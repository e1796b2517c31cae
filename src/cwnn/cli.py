"""Command-line experiment runner.

Wires the datasets, the frequency estimator, the growth engine and the
frame diagnostics into reproducible runs.  Every invocation writes one
run directory containing the fully resolved ``config.json`` (replayable
via ``--config``), the CSV logs of whatever it ran, and a deterministic
``summary.json`` (no wall-clock values, sorted keys), so re-running the
same configuration reproduces the summary byte for byte.

Exit codes: 0 success, 2 configuration or data error (no run directory
is made), 3 numeric failure, 4 the run missed its target (the loss
target within budget, or a ``diag`` check's tolerance).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .datasets import (gen_autoregression, gen_example1,
                       gen_example2_regions, load_csv, minmax_scale, split)
from .diagnostics import (TimeFrequencyBox, count_peaks, decay_report,
                          scan_indices)
from .frequency import alpha_from_epsilon, estimate_initial_resolution
from .growth import (GrowthConfig, WaveletPool, run_baseline_wnn,
                     run_growth, run_online, run_seed_phase)
from .model import Design, TrainStatus, TrainingDivergence, loss
from .wavelets import MotherWavelet, basis_set, build_center_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSED = 4


class ConfigError(ValueError):
    pass


def _fraction(text: str) -> float:
    """Parse '1/3' or '0.25' style numbers."""
    if "/" in text:
        num, den = (float(v) for v in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return num / den
    return float(text)


class Setting(NamedTuple):
    """A setting's default, what its flag reads (a type, ``[type]`` for a
    comma-separated list, or a tuple of choices), the one command that
    alone takes it, and its flag's metavar and help text, if any."""
    default: object
    reads: object
    command: str | None = None
    metavar: str | None = None
    help: str | None = None


# Every setting in flag order; the defaults are the paper's first example.
SETTINGS = {
    "seed": Setting(7, int),
    "family": Setting("sinc", ("sinc", "mexican-hat")),
    "dataset": Setting("example1",
                       ("example1", "example2", "autoregression", "csv")),
    "variant": Setting("D1", ("D1", "D2", "D3")),
    "n_samples": Setting(500, int),
    "length": Setting(20_000, int),
    "switch_at": Setting(None, int),
    "csv_path": Setting(None, str),
    "target_column": Setting(None, str),
    "feature_columns": Setting(None, [str], metavar="A,B,..."),
    "train_fraction": Setting(0.8, float),
    "domain_low": Setting([0.0, 0.0], [float]),
    "domain_high": Setting([1.0, 1.0], [float]),
    "margin": Setting(1.0, float),
    "clamp_low": Setting([0.0, 0.0], [float], metavar="X,Y|none"),
    "kappa": Setting(0.36, float),
    "learning_rate": Setting(5e-4, float),
    "epsilon": Setting(0.006, float),
    "zeta": Setting(4e-5, float, help="plateau threshold (the sweep and the "
                    "csv preset apply the rule 0.001*epsilon)"),
    "mu": Setting(1 / 3, _fraction, metavar="1/K"),
    "m_init": Setting(2, int),
    "m_cap": Setting(6, int),
    "max_resolution": Setting(10, int),
    "max_iters": Setting(50_000, int),
    "baseline": Setting("none", ("none", "wnn"), "fit", help="also run the "
                        "non-constructive level-by-level reference on the "
                        "same data"),
    "window": Setting(10, int, "online"),
    "patience": Setting(40, int, "online"),
    "mu_list": Setting([1 / 2, 1 / 3, 1 / 4, 1 / 5], [_fraction], "sweep",
                       metavar="1/2,1/3,..."),
}
DEFAULTS = {key: s.default for key, s in SETTINGS.items()}

# Parameter values bundled per experiment scenario, each preset holding
# only its differences from DEFAULTS.  ``zeta: None`` means "apply the
# rule zeta = 0.001 * epsilon at resolution time".
PRESETS = {
    "example1-d1": {},
    "example1-d2": {"variant": "D2"},
    "example1-d3": {"variant": "D3", "epsilon": 0.025},
    "example2": {"dataset": "example2", "epsilon": 0.005},
    "example3": {
        "dataset": "autoregression", "switch_at": 6001,
        "domain_high": [2.0, 2.0], "margin": 0.25,
        "learning_rate": 1e-4, "epsilon": 0.02,
        "max_resolution": 5, "max_iters": 10 ** 9,
    },
    "csv": {
        "dataset": "csv", "margin": 0.0, "clamp_low": None, "kappa": 2 / 3,
        "learning_rate": 1e-3, "epsilon": 0.015, "zeta": None, "m_init": 1,
        "max_resolution": 4,
    },
}

# resolution the start-resolution estimator probes up from
_START_M = 1
# resolution the whole-level baseline seeds its scaling and detail grids at
BASELINE_START_M = 1
# rows per input region of the example2 dataset
_N_PER_REGION = 250

# what a config value must be where a flag reads each type, and its name
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
          _fraction: ((int, float), "a number"), str: (str, "a string")}


def _nullable(key) -> bool:
    """Null is a value of ``key`` where the defaults or a preset hold it."""
    return any(layer.get(key, 0) is None
               for layer in (DEFAULTS, *PRESETS.values()))


def _check_value(key, value) -> None:
    """A config file's ``value`` must be of the kind its flag reads (a
    list's entries too; a bool is neither an integer nor a number), one
    of its choices, or null where the defaults or a preset hold null."""
    if value is None and _nullable(key):
        return
    reads = SETTINGS[key].reads
    listed = isinstance(reads, list)
    entry = reads[0] if listed else str if isinstance(reads, tuple) else reads
    types, what = _KINDS[entry]
    entries = value if listed and isinstance(value, list) else [value]
    if isinstance(value, list) != listed or any(
            isinstance(v, bool) or not isinstance(v, types) for v in entries):
        what = f"a list of {what.split()[-1]}s" if listed else what
        null = " or null" if _nullable(key) else ""
        raise ConfigError(f"field {key!r} must be {what}{null}, "
                          f"got {value!r}")
    if isinstance(reads, tuple) and value not in reads:
        raise ConfigError(f"field {key!r} must be one of "
                          f"{sorted(reads)}, got {value!r}")


def _reader(key, reads):
    """What the flag of setting ``key`` reads: a list flag reads its
    comma-separated entries, or ``none`` where null is a value of it."""
    if not isinstance(reads, list):
        return reads

    def comma_list(text):
        if text.strip().lower() == "none" and _nullable(key):
            return None
        return [reads[0](v.strip()) for v in text.split(",")]
    return comma_list


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwnn",
        description="Constructive wavelet network experiments: estimate the "
                    "dominant frequency band of a mapping, grow a model to a "
                    "loss target, run streaming scenarios, and verify the "
                    "frame localization properties numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # a flag that is not given leaves no attribute, so an explicit
        # ``none`` is told apart from an absent flag
        p = sub.add_parser(name, help=help,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                       help="named parameter bundle to start from")
        p.add_argument("--config", metavar="FILE", default=None,
                       help="JSON config file (e.g. a previous run's "
                            "config.json); flags override its values")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="run directory (default: a generated name under "
                            "$CWNN_OUT_ROOT or ./runs)")
        for key, s in SETTINGS.items():
            if s.command in (None, name):
                kind = "choices" if isinstance(s.reads, tuple) else "type"
                p.add_argument("--" + key.replace("_", "-"), metavar=s.metavar,
                               help=s.help, **{kind: _reader(key, s.reads)})

    command("estimate-freq",
            help="probe for the resolution where the mapping's detail "
                 "energy peaks; writes the energy trace")
    command("fit",
            help="grow and train a model on a batch dataset until the "
                 "loss target is met")
    command("online",
            help="windowed streaming run with growth on sustained loss "
                 "plateaus (mapping switches supported)")
    command("diag",
            help="frame diagnostics: coefficient decay outside a fixed "
                 "time-frequency box and unimodality of the "
                 "energy-versus-resolution trace")
    command("sweep",
            help="fit once per mu value on one dataset; the plateau "
                 "threshold follows the rule 0.001*epsilon "
                 "unless a config file or --zeta sets it")
    return parser


def resolve_config(args) -> dict:
    """defaults <- preset <- config file <- explicit flags.  The sweep's
    preset layer applies the zeta rule, so a config file or flag
    still pins zeta there."""
    cfg = dict(DEFAULTS)
    if args.preset:
        cfg.update(PRESETS[args.preset])
    if args.command == "sweep":
        cfg["zeta"] = None
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key in ("command", "preset"):
                continue
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config field {key!r}")
            _check_value(key, value)
            cfg[key] = value
    cfg.update((k, v) for k, v in vars(args).items() if k in DEFAULTS)
    if cfg["zeta"] is None:
        cfg["zeta"] = 0.001 * cfg["epsilon"]
    # float() reads nan and inf, and json.load NaN and Infinity
    for key, value in cfg.items():
        entries = value if isinstance(value, list) else [value]
        if not all(math.isfinite(v) for v in entries if isinstance(v, float)):
            raise ConfigError(f"field {key!r} must be finite, got {value!r}")
    for key in ("epsilon", "zeta", "mu", "learning_rate", "kappa"):
        if cfg[key] <= 0:
            raise ConfigError(f"field {key!r} must be a positive number, "
                              f"got {cfg[key]!r}")
    if cfg["kappa"] > 1:
        raise ConfigError(f"field 'kappa' must be in (0, 1], "
                          f"got {cfg['kappa']!r}")
    for key in ("window", "patience"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    if args.command in ("estimate-freq", "diag"):
        alpha_from_epsilon(cfg["epsilon"])  # the probe's smoothing weight
    # the probe never visits a level under its start
    if cfg["m_cap"] < _START_M:
        raise ConfigError(f"m_cap must be at least the start resolution "
                          f"{_START_M}, got {cfg['m_cap']}")
    # each sweep run writes mu-<round(1/mu)>/, so no two may share one
    mus = cfg["mu_list"]
    if not (mus and all(v > 0 for v in mus)
            and len({round(1.0 / v) for v in mus}) == len(mus)):
        raise ConfigError(f"field 'mu_list' must hold one or more positive "
                          f"numbers with distinct round(1/mu), got {mus!r}")
    # the growth config of every mu a run may grow with, so a mu that is
    # no reciprocal stops a sweep before its first fit; a sweep checks
    # the other fields at mu = 1 first, so its mu errors name mu_list
    sweep = args.command == "sweep"
    gcfg = _growth_config(dict(cfg, mu=1.0) if sweep else cfg)
    if cfg["m_init"] > cfg["max_resolution"]:
        raise ConfigError("m_init exceeds max_resolution")
    for mu in mus if sweep else []:
        try:
            replace(gcfg, mu=mu)
        except ValueError as exc:
            raise ConfigError(f"field 'mu_list': {exc}") from None
    cfg["preset"] = args.preset
    cfg["command"] = args.command
    return cfg


def _build_data(cfg):
    """Returns (train Dataset, extra) where extra carries scenario-specific
    pieces (the example2 second region, the csv test split)."""
    kind = cfg["dataset"]
    extra = {}
    if kind == "example1":
        ds = gen_example1(cfg["variant"], cfg["n_samples"], cfg["seed"])
    elif kind == "example2":
        ds, ds2 = gen_example2_regions(_N_PER_REGION, cfg["seed"])
        extra["second"] = ds2
    elif kind == "autoregression":
        ds = gen_autoregression(cfg["length"], cfg["seed"],
                                switch_at=cfg["switch_at"])
    elif kind == "csv":
        if not cfg["csv_path"] or not cfg["target_column"]:
            raise ConfigError("csv dataset needs 'csv_path' and "
                              "'target_column'")
        ds = load_csv(cfg["csv_path"], cfg["target_column"],
                      cfg["feature_columns"])
        ds = minmax_scale(ds)
        ds, test = split(ds, cfg["train_fraction"], cfg["seed"])
        if not len(test):
            raise ConfigError("the dataset has no held-out rows")
        extra["test"] = test
        cfg["domain_low"] = [0.0] * ds.dim
        cfg["domain_high"] = [1.0] * ds.dim
        cfg["clamp_low"] = None
    if not len(ds):
        raise ConfigError("the dataset has no training rows")
    for key in ("domain_low", "domain_high", "clamp_low"):
        if cfg[key] is not None and len(cfg[key]) != ds.dim:
            raise ConfigError(f"field {key!r} must have one bound per input "
                              f"column ({ds.dim}), got {cfg[key]!r}")
    return ds, extra


def _mother(cfg, dim: int) -> MotherWavelet:
    if cfg["family"] == "mexican-hat":
        return MotherWavelet.mexican_hat(dim)
    return MotherWavelet.sinc(dim)


def _growth_config(cfg) -> GrowthConfig:
    # each field of GrowthConfig is named like the setting it takes
    return GrowthConfig(**{f.name: cfg[f.name] for f in fields(GrowthConfig)})


def _start_grid(cfg, baseline: bool = False):
    """The lattice a run starts at: the probe's start level for
    ``estimate-freq`` and ``diag``, ``m_init`` for the growth commands,
    and with ``baseline`` the baseline's, ``BASELINE_START_M`` or the
    resolution cap when that is lower."""
    m = cfg["m_init"]
    if baseline:
        m = min(BASELINE_START_M, cfg["max_resolution"])
    elif cfg["command"] in ("estimate-freq", "diag"):
        m = _START_M
    return build_center_grid(m, cfg["domain_low"], cfg["domain_high"],
                             cfg["margin"], cfg["clamp_low"])


def _prepare_out(out, cfg) -> str:
    """Make the run directory ``out`` (if none, a fresh name under
    $CWNN_OUT_ROOT or ./runs) and write ``cfg`` to its config.json."""
    if not out:
        root = os.environ.get("CWNN_OUT_ROOT", "runs")
        base = f"{cfg['command']}-{cfg['preset'] or 'custom'}-seed{cfg['seed']}"
        out = os.path.join(root, base)
        k = 2
        while os.path.exists(out):
            out = os.path.join(root, f"{base}-{k}")
            k += 1
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "config.json"), cfg)
    return out


def _write_json(path: str, payload: dict) -> None:
    """Indented, key-sorted JSON: the same payload gives the same bytes."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_summary(out: str, payload: dict) -> None:
    _write_json(os.path.join(out, "summary.json"), payload)


def _write_run(out: str, res, prefix: str = "") -> None:
    """The train log, the growth events and the model of one run, under
    ``prefix`` (the baseline's files are ``baseline_*``)."""
    res.log.to_csv(os.path.join(out, f"{prefix}train_log.csv"))
    res.log.events_to_csv(
        os.path.join(out, f"{prefix or 'growth_'}events.csv"))
    res.model.save(os.path.join(out, f"{prefix}model.json"))


def _fit_summary(res) -> dict:
    return {
        "status": res.status.name.lower(),
        "final_loss": res.final_loss,
        "n_params": res.n_params,
        "iterations": res.log.last_iteration,
        "final_resolution": res.m,
        "events": res.log.events,
    }


def _estimate(cfg, data, out: str, stop_early: bool = True):
    """Run the start-resolution estimator on the configured data from the
    configured start grid and write its ``energy_trace.csv``."""
    ds, _ = data
    trace = estimate_initial_resolution(
        _mother(cfg, ds.dim), ds.inputs, ds.targets, _start_grid(cfg),
        kappa=cfg["kappa"], lr=cfg["learning_rate"], epsilon=cfg["epsilon"],
        m_cap=cfg["m_cap"], stop_early=stop_early)
    trace.to_csv(os.path.join(out, "energy_trace.csv"))
    return trace


def cmd_estimate_freq(cfg, data, out: str) -> int:
    trace = _estimate(cfg, data, out)
    _write_summary(out, {
        "command": "estimate-freq",
        "m_init": trace.m_init,
        "alpha": trace.alpha,
        "warning": trace.warning,
        "trace": trace.rows,
    })
    if trace.warning:
        print(f"warning: {trace.warning}", file=sys.stderr)
    print(f"m_init={trace.m_init}")
    return EXIT_OK


def _fit(cfg, data, out: str, seeded=None, baseline=None):
    """The one fit path: grow, ingest a second batch, run the optional
    baseline on the same rows, write the run; returns the model's run and
    the baseline's (None without one).  ``seeded`` is a sweep's fork of
    its seed-phase pool and design (``run_seed_phase``): the fit grows on
    from it, or takes it as the run when the seed phase ended the run.
    ``baseline`` is a baseline run already trained on this data, which
    reads no mu: the fit writes it and does not train its own."""
    ds, extra = data
    X, y = ds.inputs, ds.targets
    gcfg = _growth_config(cfg)
    res, design = seeded or (WaveletPool(_mother(cfg, ds.dim),
                                         _start_grid(cfg)), None)
    if res.status in (None, TrainStatus.PLATEAU):
        res = run_growth(res, X, y, gcfg, design)
    summary = {"command": "fit"}
    if "second" in extra:
        # second dataset arrives: continue growing on the union, from the
        # resolution the resumed run grows at
        ds2 = extra["second"]
        summary["phase1_iterations"] = res.log.last_iteration
        X = np.vstack([X, ds2.inputs])
        y = np.concatenate([y, ds2.targets])
        res.log.add_event("ingest", res.finest_m, len(ds2))
        res = run_growth(res, X, y, gcfg)
    # a csv run trains on min-max scaled data; saved models keep the record
    res.model.scaling = ds.scaling
    summary["cwnn"] = _fit_summary(res)
    if "test" in extra:
        test = extra["test"]
        summary["test_mse"] = loss(res.model, test.inputs, test.targets)
    if cfg["baseline"] == "wnn":
        if baseline is None:
            base = WaveletPool(res.model.mother,
                               _start_grid(cfg, baseline=True))
            baseline = run_baseline_wnn(base, X, y, gcfg)
            baseline.model.scaling = ds.scaling
        summary["baseline"] = _fit_summary(baseline)
        summary["param_ratio"] = res.n_params / baseline.n_params
        _write_run(out, baseline, prefix="baseline_")
    _write_run(out, res)
    _write_summary(out, summary)
    return res, baseline


def cmd_fit(cfg, data, out: str) -> int:
    res, _ = _fit(cfg, data, out)
    print(f"status={res.status.name.lower()} loss={res.final_loss:.6g} "
          f"n_params={res.n_params} iterations={res.log.last_iteration}")
    return EXIT_OK if res.status is TrainStatus.ACHIEVED else EXIT_MISSED


def cmd_online(cfg, data, out: str) -> int:
    ds, _ = data
    res = run_online(WaveletPool(_mother(cfg, ds.dim), _start_grid(cfg)),
                     ds.inputs, ds.targets, _growth_config(cfg),
                     window=cfg["window"], patience=cfg["patience"])
    # a record per window, and an event per growth phase after the seed
    tail = [r[1] for r in res.log.records[-cfg["patience"]:]]
    grew = [e[0] for e in res.log.events if e[1] != "seed"]
    final_roll = float(np.mean(tail)) if tail else float("nan")
    reconverged = bool(tail) and final_roll <= cfg["epsilon"]
    _write_run(out, res)
    _write_summary(out, {
        "command": "online",
        "windows": res.log.last_iteration,
        "n_params": res.n_params,
        "final_rolling_loss": final_roll,
        "reconverged": reconverged,
        "growth_iterations": grew,
        "events": res.log.events,
    })
    print(f"windows={res.log.last_iteration} n_params={res.n_params} "
          f"final_rolling_loss={final_roll:.6g} growth_events={len(grew)}")
    return EXIT_OK if reconverged else EXIT_MISSED


# The decay diagnostic's box, and its in-box target: three detail
# elements two resolutions inside the box, with O(1) coefficients.
_DIAG_BOX = TimeFrequencyBox(T=(1.0,), t_eps=(1,), m0=4, m1=0)
_DIAG_COEFFS, _DIAG_TRANSLATIONS = (1.0, -0.7, 0.4), ((-1,), (0,), (3,))


def cmd_diag(cfg, data, out: str) -> int:
    box = _DIAG_BOX
    mother = _mother(cfg, 1)
    m_target = (box.m1 + box.m0) // 2
    target = list(zip(_DIAG_COEFFS, basis_set(m_target, _DIAG_TRANSLATIONS)))
    report = decay_report(target, mother, box, scan_indices(box, m_pad=2))
    report.to_csv(os.path.join(out, "decay_report.csv"))
    tol = 1e-3 if cfg["family"] == "sinc" else 1e-2
    decays = report.ratio < tol

    trace = _estimate(cfg, data, out, stop_early=False)
    peaks = count_peaks([row[1] for row in trace.rows], tol=0.02)

    _write_summary(out, {
        "command": "diag",
        "decay": {
            "box": {"m1": box.m1, "m0": box.m0, "T": box.T,
                    "t_eps": box.t_eps},
            "target_resolution": m_target,
            "scanned": len(report.rows),
            "max_inside": report.max_inside,
            "max_outside": report.max_outside,
            "ratio": report.ratio,
            "tolerance": tol,
            "pass": decays,
        },
        "unimodality": {
            "m_init": trace.m_init,
            "peaks": peaks,
            "unimodal": peaks == 1,
            "trace": trace.rows,
        },
    })
    print(f"decay ratio={report.ratio:.3g} (tolerance {tol:g}): "
          f"{'pass' if decays else 'FAIL'}")
    print(f"energy trace peaks={peaks}: "
          f"{'unimodal' if peaks == 1 else 'NOT unimodal'}")
    return EXIT_OK if decays and peaks == 1 else EXIT_MISSED


def cmd_sweep(cfg, data, out: str) -> int:
    """``fit`` once per mu into mu-<round(1/mu)>/, one after another (a
    step holds the interpreter lock, so threads would not overlap).

    mu first acts at the first growth phase, so the seed phase (the seed
    level trained to its first plateau) is trained once, on one design,
    and each mu run is ``_fit`` on a fork of that pool and design, made
    just before the run and dropped once it is written: every mu-k/ holds
    what a lone ``fit --mu 1/k`` with the sweep's zeta writes, apart from
    the train logs' ``elapsed_ms``.  The baseline reads no mu either, so
    a config that asks for it trains it once, in the first run, and each
    later run writes that one."""
    ds, _ = data
    seed = WaveletPool(_mother(cfg, ds.dim), _start_grid(cfg))
    design = Design(ds.inputs, ds.targets)
    # the seed phase reads no mu, and a sweep's own mu goes unchecked, so
    # mu = 1 stands in
    run_seed_phase(seed, design, _growth_config(dict(cfg, mu=1.0)))
    results, baseline = [], None
    for mu in cfg["mu_list"]:
        sub, k = dict(cfg, mu=mu), int(round(1.0 / mu))
        res, baseline = _fit(
            sub, data, _prepare_out(os.path.join(out, f"mu-{k}"), sub),
            (seed.fork(), design.fork()), baseline)
        results.append({"mu": mu, "denominator": k, "n_params": res.n_params,
                        "status": res.status.name.lower(),
                        "final_loss": res.final_loss,
                        "iterations": res.log.last_iteration})
    _write_summary(out, {
        "command": "sweep",
        "epsilon": cfg["epsilon"],
        # whether zeta is the rule's value
        "zeta_rule": cfg["zeta"] == 0.001 * cfg["epsilon"],
        "runs": results,
    })
    for r in results:
        print(f"mu=1/{r['denominator']}: n_params={r['n_params']} "
              f"status={r['status']} iterations={r['iterations']}")
    ok = all(r["status"] == "achieved" for r in results)
    return EXIT_OK if ok else EXIT_MISSED


_COMMANDS = {"estimate-freq": cmd_estimate_freq, "fit": cmd_fit,
             "online": cmd_online, "diag": cmd_diag, "sweep": cmd_sweep}


def _openblas_paths() -> list:
    """The OpenBLAS objects the process has loaded (on Linux, numpy's and
    scipy's copies once imported), else those of numpy's wheel."""
    try:
        with open("/proc/self/maps", errors="surrogateescape") as fh:
            return sorted({line.split(None, 5)[5].strip()
                           for line in fh if "openblas" in line})
    except OSError:
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        return sorted(str(path) for path in libs.glob("*openblas*"))


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every OpenBLAS the process has loaded on one
    thread, and give each back the thread count it had.

    A run's parallelism is the tile pool of ``wavelets._each_tile``.
    OpenBLAS's own pool would contend with it for the same CPUs, and its
    products round differently on one thread than on several, so a run's
    bytes would depend on the CPU count.  Where no OpenBLAS is found (MKL,
    Accelerate) nothing changes.  Library calls outside ``main`` keep the
    caller's BLAS threads.
    """
    import ctypes  # here, so that importing the module loads no more

    restore = []
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                restore.append((put, get()))
                put(1)
                break
    try:
        yield
    finally:
        for put, threads in restore:
            put(threads)


def main(argv=None) -> int:
    """Run one command with BLAS on one thread (see ``_one_blas_thread``)
    and return its exit code."""
    with _one_blas_thread():
        args = build_parser().parse_args(argv)
        try:
            cfg = resolve_config(args)
            # the data and the seed lattices, before the run directory exists
            data = _build_data(cfg)
            _start_grid(cfg)
            if cfg["baseline"] == "wnn":
                _start_grid(cfg, baseline=True)
            return _COMMANDS[args.command](cfg, data,
                                           _prepare_out(args.out, cfg))
        except ValueError as exc:
            # ConfigError, DataError and GridError are ValueErrors too
            print(f"cwnn: configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except TrainingDivergence as exc:
            print(f"cwnn: numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment runner.

Wires the datasets, the frequency estimator, the growth engine and the
frame diagnostics into reproducible runs.  Every invocation writes one
run directory containing the fully resolved ``config.json`` (replayable
via ``--config``), the CSV logs of whatever it ran, and a deterministic
``summary.json`` (no wall-clock values, sorted keys), so re-running the
same configuration reproduces the summary byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 budget exhausted without reaching the loss target.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys

import numpy as np

from .datasets import (gen_autoregression, gen_example1,
                       gen_example2_regions, load_csv, minmax_scale, split)
from .diagnostics import (TimeFrequencyBox, count_peaks, decay_report,
                          scan_indices)
from .frequency import estimate_initial_resolution
from .growth import GrowthConfig, run_baseline_wnn, run_growth, run_online
from .model import TrainLog, TrainStatus, TrainingDivergence
from .quadrature import QuadratureError
from .wavelets import (BasisIndex, BasisKind, MotherWavelet, _cpu_count,
                       basis_matrix, build_center_grid)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "family": "sinc",
    "dataset": "example1", "variant": "D1", "n_samples": 500, "seed": 7,
    "length": 20_000, "switch_at": None,
    "csv_path": None, "target_column": None, "feature_columns": None,
    "train_fraction": 0.8,
    "domain_low": [0.0, 0.0], "domain_high": [1.0, 1.0],
    "margin": 1.0, "clamp_low": None,
    "kappa": 0.36, "learning_rate": 5e-4,
    "epsilon": 0.006, "zeta": None, "mu": 1 / 3,
    "m_init": 2, "m_cap": 6,
    "max_resolution": 10, "max_iters": 50_000,
    "window": 10, "patience": 40,
    "baseline": "none",
    "mu_list": [1 / 2, 1 / 3, 1 / 4, 1 / 5],
}

# Parameter values bundled per experiment scenario, each preset holding
# only its differences from DEFAULTS.  ``zeta: None`` means "apply the
# default rule zeta = 0.001 * epsilon at resolution time".
_EXAMPLE1_COMMON = {"clamp_low": [0.0, 0.0], "zeta": 4e-5}

PRESETS = {
    "example1-d1": dict(_EXAMPLE1_COMMON),
    "example1-d2": dict(_EXAMPLE1_COMMON, variant="D2"),
    "example1-d3": dict(_EXAMPLE1_COMMON, variant="D3", epsilon=0.025),
    "example2": dict(_EXAMPLE1_COMMON, dataset="example2", epsilon=0.005),
    "example3": {
        "dataset": "autoregression", "switch_at": 6001,
        "domain_high": [2.0, 2.0], "margin": 0.25, "clamp_low": [0.0, 0.0],
        "learning_rate": 1e-4, "epsilon": 0.02, "zeta": 4e-5,
        "max_resolution": 5, "max_iters": 10 ** 9,
    },
    "csv": {
        "dataset": "csv", "margin": 0.0, "kappa": 2 / 3,
        "learning_rate": 1e-3, "epsilon": 0.015, "m_init": 1,
        "max_resolution": 4,
    },
}

# resolution the start-resolution estimator probes up from
_START_M = 1
# rows per input region of the example2 dataset
_N_PER_REGION = 250


def _fraction(text: str) -> float:
    """Parse '1/3' or '0.25' style numbers."""
    if "/" in text:
        num, den = (float(v) for v in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return num / den
    return float(text)


def _float_list(text):
    return [float(v) for v in text.split(",")]


def _float_list_or_none(text):
    return None if text.strip().lower() == "none" else _float_list(text)


def _fraction_list(text):
    return [_fraction(v) for v in text.split(",")]


def _str_list(text):
    return [v.strip() for v in text.split(",")]


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list"}


def _kind(flag) -> type:
    """The type of what ``flag`` parses; a choices flag takes a string."""
    return type(flag.type("1")) if flag.type else str


def _check_value(key, value, flag) -> None:
    """A config file's ``value`` must be of the kind ``flag`` parses to
    (a bool is no number), one of its choices, or null where the default
    is null."""
    if value is None and DEFAULTS[key] is None:
        return
    kind = _kind(flag)
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        null = " or null" if DEFAULTS[key] is None else ""
        raise ConfigError(f"field {key!r} must be {_KIND_NAMES[kind]}{null}, "
                          f"got {value!r}")
    if flag.choices and value not in flag.choices:
        raise ConfigError(f"field {key!r} must be one of "
                          f"{sorted(flag.choices)}, got {value!r}")


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
        p.add_argument("--seed", type=int)
        p.add_argument("--family", choices=["sinc", "mexican-hat"])
        p.add_argument("--dataset",
                       choices=["example1", "example2", "autoregression", "csv"])
        p.add_argument("--variant", choices=["D1", "D2", "D3"])
        p.add_argument("--n-samples", dest="n_samples", type=int)
        p.add_argument("--length", type=int)
        p.add_argument("--switch-at", dest="switch_at", type=int)
        p.add_argument("--csv-path", dest="csv_path")
        p.add_argument("--target-column", dest="target_column")
        p.add_argument("--feature-columns", dest="feature_columns",
                       type=_str_list, metavar="A,B,...")
        p.add_argument("--train-fraction", dest="train_fraction", type=float)
        p.add_argument("--domain-low", dest="domain_low", type=_float_list)
        p.add_argument("--domain-high", dest="domain_high", type=_float_list)
        p.add_argument("--margin", type=float)
        p.add_argument("--clamp-low", dest="clamp_low",
                       type=_float_list_or_none, metavar="X,Y|none")
        p.add_argument("--kappa", type=float)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--zeta", type=float,
                       help="plateau threshold (default rule: 0.001*epsilon)")
        p.add_argument("--mu", type=_fraction, metavar="1/K")
        p.add_argument("--m-init", dest="m_init", type=int)
        p.add_argument("--m-cap", dest="m_cap", type=int)
        p.add_argument("--max-resolution", dest="max_resolution", type=int)
        p.add_argument("--max-iters", dest="max_iters", type=int)
        return p

    command("estimate-freq",
            help="probe for the resolution where the mapping's detail "
                 "energy peaks; writes the energy trace")
    p = command("fit",
                help="grow and train a model on a batch dataset until the "
                     "loss target is met")
    p.add_argument("--baseline", choices=["none", "wnn"],
                   help="also run the non-constructive level-by-level "
                        "reference on the same data")
    p = command("online",
                help="windowed streaming run with growth on sustained loss "
                     "plateaus (mapping switches supported)")
    p.add_argument("--window", type=int)
    p.add_argument("--patience", type=int)
    command("diag",
            help="frame diagnostics: coefficient decay outside a fixed "
                 "time-frequency box and unimodality of the "
                 "energy-versus-resolution trace")
    p = command("sweep",
                help="fit once per mu value on one dataset; the plateau "
                     "threshold follows the default rule 0.001*epsilon "
                     "unless a config file or --zeta sets it")
    p.add_argument("--mu-list", dest="mu_list", type=_fraction_list,
                   metavar="1/2,1/3,...")
    return parser


def _setting_flags(parser: argparse.ArgumentParser) -> dict:
    """``dest -> action`` of every subcommand flag that sets a setting
    (all but ``--preset``, ``--config`` and ``--out``)."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for p in sub.choices.values() for a in p._actions
            if a.dest not in ("help", "preset", "config", "out")}


def resolve_config(args) -> dict:
    """defaults <- preset <- config file <- explicit flags.  The sweep's
    preset layer applies the zeta default rule, so a config file or flag
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
        flags = _setting_flags(build_parser())
        for key, value in loaded.items():
            if key in ("command", "preset"):
                continue
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config field {key!r}")
            _check_value(key, value, flags[key])
            cfg[key] = value
    cfg.update((k, v) for k, v in vars(args).items() if k in DEFAULTS)
    if cfg["zeta"] is None:
        cfg["zeta"] = 0.001 * cfg["epsilon"]
    for key in ("epsilon", "zeta", "mu", "learning_rate", "kappa"):
        if cfg[key] <= 0:
            raise ConfigError(f"field {key!r} must be a positive number, "
                              f"got {cfg[key]!r}")
    # each sweep run writes mu-<round(1/mu)>/, so no two may share one
    mus = cfg["mu_list"]
    if not (all(isinstance(v, (int, float)) and v > 0 for v in mus)
            and len({round(1.0 / v) for v in mus}) == len(mus)):
        raise ConfigError(f"field 'mu_list' must hold positive numbers with "
                          f"distinct round(1/mu), got {mus!r}")
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
        extra["test"] = test
        cfg["domain_low"] = [0.0] * ds.dim
        cfg["domain_high"] = [1.0] * ds.dim
        cfg["clamp_low"] = None
    return ds, extra


def _mother(cfg, dim: int) -> MotherWavelet:
    if cfg["family"] == "mexican-hat":
        return MotherWavelet.mexican_hat(dim)
    return MotherWavelet.sinc(dim)


def _growth_config(cfg) -> GrowthConfig:
    return GrowthConfig(
        epsilon=cfg["epsilon"], zeta=cfg["zeta"], mu=cfg["mu"],
        learning_rate=cfg["learning_rate"], m_init=cfg["m_init"],
        domain_low=tuple(cfg["domain_low"]),
        domain_high=tuple(cfg["domain_high"]),
        margin=cfg["margin"],
        clamp_low=None if cfg["clamp_low"] is None else tuple(cfg["clamp_low"]),
        max_resolution=cfg["max_resolution"], max_iters=cfg["max_iters"])


def _prepare_out(args, cfg) -> str:
    if args.out:
        out = args.out
    else:
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
        "final_resolution": res.final_resolution,
        "events": res.log.events,
    }


def _estimate(cfg, out: str, stop_early: bool = True):
    """Run the start-resolution estimator on the configured data from the
    configured start grid and write its ``energy_trace.csv``."""
    ds, _ = _build_data(cfg)
    grid = build_center_grid(_START_M, cfg["domain_low"],
                             cfg["domain_high"], cfg["margin"],
                             cfg["clamp_low"])
    res = estimate_initial_resolution(_mother(cfg, ds.dim), ds.inputs,
                                      ds.targets, grid, kappa=cfg["kappa"],
                                      lr=cfg["learning_rate"],
                                      epsilon=cfg["epsilon"],
                                      m_cap=cfg["m_cap"],
                                      stop_early=stop_early)
    res.trace.to_csv(os.path.join(out, "energy_trace.csv"))
    return res


def cmd_estimate_freq(cfg, out: str) -> int:
    res = _estimate(cfg, out)
    _write_summary(out, {
        "command": "estimate-freq",
        "m_init": res.m_init,
        "alpha": res.trace.alpha,
        "warning": res.warning,
        "trace": res.trace.rows,
    })
    if res.warning:
        print(f"warning: {res.warning}", file=sys.stderr)
    print(f"m_init={res.m_init}")
    return EXIT_OK


def cmd_fit(cfg, out: str) -> int:
    ds, extra = _build_data(cfg)
    mother = _mother(cfg, ds.dim)
    gcfg = _growth_config(cfg)
    # a csv run trains on min-max scaled data; saved models keep the record
    scaling = ds.meta.get("scaling")
    log = TrainLog()
    res = run_growth(mother, ds.inputs, ds.targets, gcfg, log)
    summary = {"command": "fit"}
    if "second" in extra:
        # second dataset arrives: continue growing on the union
        ds2 = extra["second"]
        summary["phase1_iterations"] = log.last_iteration
        X = np.vstack([ds.inputs, ds2.inputs])
        y = np.concatenate([ds.targets, ds2.targets])
        log.add_event(log.last_iteration, "ingest", res.final_resolution,
                      len(ds2))
        res = run_growth(mother, X, y, gcfg, log, pool=res.pool)
    res.model.scaling = scaling
    summary["cwnn"] = _fit_summary(res)
    if "test" in extra:
        test = extra["test"]
        resid = test.targets - res.model.predict(test.inputs)
        summary["test_mse"] = float(np.mean(resid * resid))
    if cfg["baseline"] == "wnn":
        bres = run_baseline_wnn(mother, ds.inputs, ds.targets, gcfg)
        bres.model.scaling = scaling
        summary["baseline"] = _fit_summary(bres)
        summary["param_ratio"] = res.n_params / bres.n_params
        _write_run(out, bres, prefix="baseline_")
    _write_run(out, res)
    _write_summary(out, summary)
    print(f"status={res.status.name.lower()} loss={res.final_loss:.6g} "
          f"n_params={res.n_params} iterations={log.last_iteration}")
    return EXIT_OK if res.status is TrainStatus.ACHIEVED else EXIT_BUDGET


def cmd_online(cfg, out: str) -> int:
    ds, _ = _build_data(cfg)
    res = run_online(_mother(cfg, ds.dim), ds.inputs, ds.targets,
                     _growth_config(cfg), window=cfg["window"],
                     patience=cfg["patience"])
    tail = res.window_losses[-cfg["patience"]:]
    final_roll = float(np.mean(tail)) if tail else float("nan")
    reconverged = bool(tail) and final_roll <= cfg["epsilon"]
    _write_run(out, res)
    _write_summary(out, {
        "command": "online",
        "windows": len(res.window_losses),
        "n_params": res.n_params,
        "final_rolling_loss": final_roll,
        "reconverged": reconverged,
        "growth_iterations": res.growth_iterations,
        "events": res.log.events,
    })
    print(f"windows={len(res.window_losses)} n_params={res.n_params} "
          f"final_rolling_loss={final_roll:.6g} "
          f"growth_events={len(res.growth_iterations)}")
    return EXIT_OK if reconverged else EXIT_BUDGET


# The decay diagnostic's box, and its in-box target: three detail
# elements two resolutions inside the box, with O(1) coefficients.
_DIAG_BOX = TimeFrequencyBox(T=(1.0,), t_eps=(1,), m0=4, m1=0)
_DIAG_PARTS = ((1.0, (-1,)), (-0.7, (0,)), (0.4, (3,)))


def cmd_diag(cfg, out: str) -> int:
    box = _DIAG_BOX
    mother = _mother(cfg, 1)
    m_target = (box.m1 + box.m0) // 2
    bases = [BasisIndex(m_target, n, BasisKind.WAVELET)
             for _, n in _DIAG_PARTS]

    def target(pts):
        cols = basis_matrix(mother, bases, pts)
        vals = np.zeros(len(pts))
        for k, (c, _) in enumerate(_DIAG_PARTS):
            vals += c * cols[:, k]
        return vals

    half = mother.effective_radius * 2.0 ** (-m_target) + 1.0
    indices = scan_indices(box, m_pad=2)
    report = decay_report(target, mother, box, indices,
                          f_lows=(-half,), f_highs=(half,))
    report.to_csv(os.path.join(out, "decay_report.csv"))
    tol = 1e-3 if cfg["family"] == "sinc" else 1e-2

    est = _estimate(cfg, out, stop_early=False)
    peaks = count_peaks([row[1] for row in est.trace.rows], tol=0.02)

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
            "pass": report.ratio < tol,
        },
        "unimodality": {
            "m_init": est.m_init,
            "peaks": peaks,
            "unimodal": peaks == 1,
            "trace": est.trace.rows,
        },
    })
    print(f"decay ratio={report.ratio:.3g} (tolerance {tol:g}): "
          f"{'pass' if report.ratio < tol else 'FAIL'}")
    print(f"energy trace peaks={peaks}: "
          f"{'unimodal' if peaks == 1 else 'NOT unimodal'}")
    return EXIT_OK


def _sweep_one(cfg, mu, subdir):
    sub = dict(cfg, mu=mu)
    os.makedirs(subdir, exist_ok=True)
    _write_json(os.path.join(subdir, "config.json"), sub)
    ds, _ = _build_data(sub)
    res = run_growth(_mother(sub, ds.dim), ds.inputs, ds.targets,
                     _growth_config(sub), TrainLog())
    _write_run(subdir, res)
    _write_summary(subdir, {"command": "fit", "cwnn": _fit_summary(res)})
    return {"mu": mu, "denominator": int(round(1.0 / mu)),
            "status": res.status.name.lower(), "n_params": res.n_params,
            "final_loss": res.final_loss, "iterations": res.log.last_iteration}


def cmd_sweep(cfg, out: str) -> int:
    """One fit per mu on a pool of one worker per mu, up to the CPUs the
    process may run on."""
    jobs = [(mu, os.path.join(out, f"mu-{int(round(1.0 / mu))}"))
            for mu in cfg["mu_list"]]
    results = [None] * len(jobs)
    workers = max(1, min(len(jobs), _cpu_count()))
    with concurrent.futures.ThreadPoolExecutor(workers) as ex:
        futs = {ex.submit(_sweep_one, cfg, mu, sub): i
                for i, (mu, sub) in enumerate(jobs)}
        for fut in concurrent.futures.as_completed(futs):
            results[futs[fut]] = fut.result()
    _write_summary(out, {
        "command": "sweep",
        "epsilon": cfg["epsilon"],
        # whether zeta is the default rule's value
        "zeta_rule": cfg["zeta"] == 0.001 * cfg["epsilon"],
        "runs": results,
    })
    for r in results:
        print(f"mu=1/{r['denominator']}: n_params={r['n_params']} "
              f"status={r['status']} iterations={r['iterations']}")
    ok = all(r["status"] == "achieved" for r in results)
    return EXIT_OK if ok else EXIT_BUDGET


_COMMANDS = {"estimate-freq": cmd_estimate_freq, "fit": cmd_fit,
             "online": cmd_online, "diag": cmd_diag, "sweep": cmd_sweep}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg, _prepare_out(args, cfg))
    except ValueError as exc:
        # ConfigError, DataError and GridError are ValueErrors too
        print(f"cwnn: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDivergence, QuadratureError) as exc:
        print(f"cwnn: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

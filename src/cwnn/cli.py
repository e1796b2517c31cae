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
                       build_center_grid, eval_basis)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


class ConfigError(ValueError):
    pass


# Parameter values bundled per experiment scenario.  ``zeta: None`` means
# "apply the default rule zeta = 0.001 * epsilon at resolution time".
_EXAMPLE1_COMMON = {
    "dataset": "example1", "n_samples": 500, "seed": 7, "family": "sinc",
    "domain_low": [0.0, 0.0], "domain_high": [1.0, 1.0],
    "margin": 1.0, "clamp_low": [0.0, 0.0], "clamp_high": None,
    "kappa": 0.36, "learning_rate": 5e-4,
    "zeta": 4e-5, "mu": 1 / 3, "m_init": 2, "start_m": 1, "m_cap": 6,
    "max_resolution": 10, "max_iters": 50_000,
}

PRESETS = {
    "example1-d1": dict(_EXAMPLE1_COMMON, variant="D1", epsilon=0.006),
    "example1-d2": dict(_EXAMPLE1_COMMON, variant="D2", epsilon=0.006),
    "example1-d3": dict(_EXAMPLE1_COMMON, variant="D3", epsilon=0.025),
    "example2": dict(_EXAMPLE1_COMMON, dataset="example2", n_per_region=250,
                     epsilon=0.005),
    "example3": {
        "dataset": "autoregression", "length": 20_000, "seed": 7,
        "switch_at": 6001, "noise_sd": 0.01, "family": "sinc",
        "domain_low": [0.0, 0.0], "domain_high": [2.0, 2.0],
        "margin": 0.25, "clamp_low": [0.0, 0.0], "clamp_high": None,
        "kappa": 0.36, "learning_rate": 1e-4,
        "epsilon": 0.02, "zeta": 4e-5, "mu": 1 / 3, "m_init": 2,
        "start_m": 1, "m_cap": 6, "max_resolution": 5, "max_iters": 10 ** 9,
        "window": 10, "patience": 40, "improvement": 0.02,
    },
    "csv": {
        "dataset": "csv", "seed": 7, "family": "sinc",
        "margin": 0.0, "clamp_low": None, "clamp_high": None,
        "kappa": 2 / 3, "learning_rate": 1e-3,
        "epsilon": 0.015, "zeta": None, "mu": 1 / 3, "m_init": 1,
        "start_m": 1, "m_cap": 6, "max_resolution": 4, "max_iters": 50_000,
        "train_fraction": 0.8,
    },
}

DEFAULTS = {
    "family": "sinc",
    "dataset": "example1", "variant": "D1", "n_samples": 500, "seed": 7,
    "n_per_region": 250,
    "length": 20_000, "switch_at": None, "noise_sd": 0.01,
    "csv_path": None, "target_column": None, "feature_columns": None,
    "train_fraction": 0.8,
    "domain_low": [0.0, 0.0], "domain_high": [1.0, 1.0],
    "margin": 1.0, "clamp_low": None, "clamp_high": None,
    "kappa": 0.36, "learning_rate": 5e-4,
    "epsilon": 0.006, "zeta": None, "mu": 1 / 3,
    "m_init": 2, "start_m": 1, "m_cap": 6,
    "max_resolution": 10, "max_iters": 50_000,
    "window": 10, "patience": 40, "improvement": 0.02, "steps_per_window": 1,
    "baseline": "none",
    "box_m1": None, "box_m0": None, "box_T": None, "box_t_eps": None,
    "mu_list": [1 / 2, 1 / 3, 1 / 4, 1 / 5],
}

def _fraction(text: str) -> float:
    """Parse '1/3' or '0.25' style numbers."""
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _float_list(text):
    if text.strip().lower() == "none":
        return None
    return [float(v) for v in text.split(",")]


def _fraction_list(text):
    return [_fraction(v) for v in text.split(",")]


def _str_list(text):
    return [v.strip() for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwnn",
        description="Constructive wavelet network experiments: estimate the "
                    "dominant frequency band of a mapping, grow a model to a "
                    "loss target, run streaming scenarios, and verify the "
                    "frame localization properties numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="named parameter bundle to start from")
        p.add_argument("--config", metavar="FILE",
                       help="JSON config file (e.g. a previous run's "
                            "config.json); flags override its values")
        p.add_argument("--out", metavar="DIR",
                       help="run directory (default: a generated name under "
                            "$CWNN_OUT_ROOT or ./runs)")
        p.add_argument("--seed", type=int)
        p.add_argument("--family", choices=["sinc", "mexican-hat"])
        p.add_argument("--dataset",
                       choices=["example1", "example2", "autoregression", "csv"])
        p.add_argument("--variant", choices=["D1", "D2", "D3"])
        p.add_argument("--n-samples", dest="n_samples", type=int)
        p.add_argument("--n-per-region", dest="n_per_region", type=int)
        p.add_argument("--length", type=int)
        p.add_argument("--switch-at", dest="switch_at", type=int)
        p.add_argument("--noise-sd", dest="noise_sd", type=float)
        p.add_argument("--csv-path", dest="csv_path")
        p.add_argument("--target-column", dest="target_column")
        p.add_argument("--feature-columns", dest="feature_columns",
                       type=_str_list, metavar="A,B,...")
        p.add_argument("--train-fraction", dest="train_fraction", type=float)
        p.add_argument("--domain-low", dest="domain_low", type=_float_list)
        p.add_argument("--domain-high", dest="domain_high", type=_float_list)
        p.add_argument("--margin", type=float)
        p.add_argument("--clamp-low", dest="clamp_low", type=_float_list,
                       metavar="X,Y|none")
        p.add_argument("--clamp-high", dest="clamp_high", type=_float_list,
                       metavar="X,Y|none")
        p.add_argument("--kappa", type=float)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--zeta", type=float,
                       help="plateau threshold (default rule: 0.001*epsilon)")
        p.add_argument("--mu", type=_fraction, metavar="1/K")
        p.add_argument("--m-init", dest="m_init", type=int)
        p.add_argument("--start-m", dest="start_m", type=int)
        p.add_argument("--m-cap", dest="m_cap", type=int)
        p.add_argument("--max-resolution", dest="max_resolution", type=int)
        p.add_argument("--max-iters", dest="max_iters", type=int)

    p = sub.add_parser("estimate-freq",
                       help="probe for the resolution where the mapping's "
                            "detail energy peaks; writes the energy trace")
    common(p)

    p = sub.add_parser("fit",
                       help="grow and train a model on a batch dataset until "
                            "the loss target is met")
    common(p)
    p.add_argument("--baseline", choices=["none", "wnn"],
                   help="also run the non-constructive level-by-level "
                        "reference on the same data")

    p = sub.add_parser("online",
                       help="windowed streaming run with growth on sustained "
                            "loss plateaus (mapping switches supported)")
    common(p)
    p.add_argument("--window", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--improvement", type=float)
    p.add_argument("--steps-per-window", dest="steps_per_window", type=int)

    p = sub.add_parser("diag",
                       help="frame diagnostics: coefficient decay outside a "
                            "time-frequency box and unimodality of the "
                            "energy-versus-resolution trace")
    common(p)
    p.add_argument("--box-m1", dest="box_m1", type=int,
                   help="lower resolution bound (exclusive)")
    p.add_argument("--box-m0", dest="box_m0", type=int,
                   help="upper resolution bound (exclusive)")
    p.add_argument("--box-T", dest="box_T", type=_float_list, metavar="T",
                   help="time half-width per dimension")
    p.add_argument("--box-t-eps", dest="box_t_eps", type=_float_list,
                   metavar="N", help="translation margin per dimension")

    p = sub.add_parser("sweep",
                       help="fit once per mu value on one dataset; the "
                            "plateau threshold follows the default rule "
                            "0.001*epsilon unless --zeta is given")
    common(p)
    p.add_argument("--mu-list", dest="mu_list", type=_fraction_list,
                   metavar="1/2,1/3,...")

    return parser


def resolve_config(args) -> dict:
    """defaults <- preset <- config file <- explicit flags."""
    cfg = dict(DEFAULTS)
    if args.preset:
        cfg.update(PRESETS[args.preset])
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
            cfg[key] = value
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    # the sweep applies the zeta default rule unless the flag was explicit
    if args.command == "sweep" and getattr(args, "zeta", None) is None:
        cfg["zeta"] = None
    if cfg["zeta"] is None:
        cfg["zeta"] = 0.001 * cfg["epsilon"]
    for key in ("epsilon", "zeta", "mu", "learning_rate", "kappa"):
        if not isinstance(cfg[key], (int, float)) or cfg[key] <= 0:
            raise ConfigError(f"field {key!r} must be a positive number, "
                              f"got {cfg[key]!r}")
    if cfg["family"] not in ("sinc", "mexican-hat"):
        raise ConfigError(f"field 'family' must be 'sinc' or 'mexican-hat', "
                          f"got {cfg['family']!r}")
    if cfg["dataset"] not in ("example1", "example2", "autoregression", "csv"):
        raise ConfigError(f"field 'dataset' is invalid: {cfg['dataset']!r}")
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
        ds, ds2 = gen_example2_regions(cfg["n_per_region"], cfg["seed"])
        extra["second"] = ds2
    elif kind == "autoregression":
        ds = gen_autoregression(cfg["length"], cfg["seed"],
                                switch_at=cfg["switch_at"],
                                noise_sd=cfg["noise_sd"])
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
        cfg["clamp_high"] = None
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
        clamp_high=None if cfg["clamp_high"] is None else tuple(cfg["clamp_high"]),
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


def _fit_summary(res, log: TrainLog) -> dict:
    return {
        "status": res.status.name.lower(),
        "final_loss": res.final_loss,
        "n_params": res.n_params,
        "iterations": log.last_iteration,
        "final_resolution": res.final_resolution,
        "events": [[it, ev, m, added] for it, ev, m, added in log.events],
    }


def _estimate(cfg, out: str, stop_early: bool = True):
    """Run the start-resolution estimator on the configured data from the
    configured start grid and write its ``energy_trace.csv``."""
    ds, _ = _build_data(cfg)
    grid = build_center_grid(cfg["start_m"], cfg["domain_low"],
                             cfg["domain_high"], cfg["margin"],
                             cfg["clamp_low"], cfg["clamp_high"])
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
        "trace": [[m, eh, eb, nb] for m, eh, eb, nb in res.trace.rows],
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
    res.model.scaling = scaling
    summary = {"command": "fit", "cwnn": _fit_summary(res, log)}
    if "second" in extra:
        # second dataset arrives: continue growing on the union
        ds2 = extra["second"]
        phase1_iters = log.last_iteration
        X = np.vstack([ds.inputs, ds2.inputs])
        y = np.concatenate([ds.targets, ds2.targets])
        log.add_event(log.last_iteration, "ingest", res.final_resolution,
                      len(ds2))
        res = run_growth(mother, X, y, gcfg, log, pool=res.pool)
        summary["cwnn"] = _fit_summary(res, log)
        summary["phase1_iterations"] = phase1_iters
    if "test" in extra:
        test = extra["test"]
        resid = test.targets - res.model.predict(test.inputs)
        summary["test_mse"] = float(np.mean(resid * resid))
    if cfg.get("baseline") == "wnn":
        blog = TrainLog()
        bres = run_baseline_wnn(mother, ds.inputs, ds.targets, gcfg, blog)
        bres.model.scaling = scaling
        summary["baseline"] = _fit_summary(bres, blog)
        summary["param_ratio"] = res.n_params / bres.n_params
        blog.to_csv(os.path.join(out, "baseline_train_log.csv"))
        blog.events_to_csv(os.path.join(out, "baseline_events.csv"))
        bres.model.save(os.path.join(out, "baseline_model.json"))
    log.to_csv(os.path.join(out, "train_log.csv"))
    log.events_to_csv(os.path.join(out, "growth_events.csv"))
    res.model.save(os.path.join(out, "model.json"))
    _write_summary(out, summary)
    print(f"status={res.status.name.lower()} loss={res.final_loss:.6g} "
          f"n_params={res.n_params} iterations={log.last_iteration}")
    return EXIT_OK if res.status is TrainStatus.ACHIEVED else EXIT_BUDGET


def cmd_online(cfg, out: str) -> int:
    ds, _ = _build_data(cfg)
    mother = _mother(cfg, ds.dim)
    gcfg = _growth_config(cfg)
    log = TrainLog()
    res = run_online(mother, ds.inputs, ds.targets, gcfg,
                     window=cfg["window"],
                     steps_per_window=cfg["steps_per_window"],
                     patience=cfg["patience"],
                     improvement=cfg["improvement"], log=log)
    tail = res.window_losses[-cfg["patience"]:]
    final_roll = float(np.mean(tail)) if tail else float("nan")
    reconverged = bool(tail) and final_roll <= cfg["epsilon"]
    log.to_csv(os.path.join(out, "train_log.csv"))
    log.events_to_csv(os.path.join(out, "growth_events.csv"))
    res.model.save(os.path.join(out, "model.json"))
    _write_summary(out, {
        "command": "online",
        "windows": len(res.window_losses),
        "n_params": res.n_params,
        "final_rolling_loss": final_roll,
        "reconverged": reconverged,
        "growth_iterations": list(res.growth_iterations),
        "events": [[it, ev, m, added] for it, ev, m, added in log.events],
    })
    print(f"windows={len(res.window_losses)} n_params={res.n_params} "
          f"final_rolling_loss={final_roll:.6g} "
          f"growth_events={len(res.growth_iterations)}")
    return EXIT_OK if reconverged else EXIT_BUDGET


# In-box target used by the decay diagnostic: three detail elements two
# resolutions inside the default box, with O(1) coefficients.
_DIAG_PARTS = ((1.0, (-1,)), (-0.7, (0,)), (0.4, (3,)))
_DIAG_BOX = {"m1": 0, "m0": 4, "T": (1.0,), "t_eps": (1,)}


def cmd_diag(cfg, out: str) -> int:
    box_keys = ("box_m1", "box_m0", "box_T", "box_t_eps")
    given = [k for k in box_keys if cfg[k] is not None]
    if given and len(given) < len(box_keys):
        missing = sorted(set(box_keys) - set(given))
        raise ConfigError(f"missing box parameters: {', '.join(missing)}")
    if given:
        box = TimeFrequencyBox(T=tuple(cfg["box_T"]),
                               t_eps=tuple(int(v) for v in cfg["box_t_eps"]),
                               m0=cfg["box_m0"], m1=cfg["box_m1"])
    else:
        box = TimeFrequencyBox(T=_DIAG_BOX["T"], t_eps=_DIAG_BOX["t_eps"],
                               m0=_DIAG_BOX["m0"], m1=_DIAG_BOX["m1"])
    if box.dim != 1:
        raise ConfigError("the decay diagnostic target is one-dimensional; "
                          "box parameters must be too")

    mother = _mother(cfg, 1)
    m_target = (box.m1 + box.m0) // 2
    parts = [(c, BasisIndex(m_target, n, BasisKind.WAVELET))
             for c, n in _DIAG_PARTS]

    def target(pts):
        vals = np.zeros(len(pts))
        for c, b in parts:
            vals += c * eval_basis(mother, b, pts)
        return vals

    half = mother.effective_radius * 2.0 ** (-m_target) + 1.0
    indices = scan_indices(box, m_pad=2, n_pad=0)
    report = decay_report(target, mother, box, indices,
                          f_lows=(-half,), f_highs=(half,))
    report.to_csv(os.path.join(out, "decay_report.csv"))
    tol = 1e-3 if cfg["family"] == "sinc" else 1e-2

    est = _estimate(cfg, out, stop_early=False)
    peaks = count_peaks([row[1] for row in est.trace.rows], tol=0.02)

    _write_summary(out, {
        "command": "diag",
        "decay": {
            "box": {"m1": box.m1, "m0": box.m0, "T": list(box.T),
                    "t_eps": list(box.t_eps)},
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
            "trace": [[m, eh, eb, nb] for m, eh, eb, nb in est.trace.rows],
        },
    })
    print(f"decay ratio={report.ratio:.3g} (tolerance {tol:g}): "
          f"{'pass' if report.ratio < tol else 'FAIL'}")
    print(f"energy trace peaks={peaks}: "
          f"{'unimodal' if peaks == 1 else 'NOT unimodal'}")
    return EXIT_OK


def _sweep_one(cfg, mu, subdir):
    sub = dict(cfg)
    sub["mu"] = mu
    os.makedirs(subdir, exist_ok=True)
    _write_json(os.path.join(subdir, "config.json"), sub)
    ds, _ = _build_data(sub)
    mother = _mother(sub, ds.dim)
    log = TrainLog()
    res = run_growth(mother, ds.inputs, ds.targets, _growth_config(sub), log)
    log.to_csv(os.path.join(subdir, "train_log.csv"))
    log.events_to_csv(os.path.join(subdir, "growth_events.csv"))
    res.model.save(os.path.join(subdir, "model.json"))
    _write_summary(subdir, {"command": "fit", "cwnn": _fit_summary(res, log)})
    return {"mu": mu, "denominator": int(round(1.0 / mu)),
            "status": res.status.name.lower(), "n_params": res.n_params,
            "final_loss": res.final_loss, "iterations": log.last_iteration}


def cmd_sweep(cfg, out: str, zeta_rule: bool) -> int:
    """One fit per mu on a pool of one worker per mu, up to the CPUs the
    process may run on.  ``zeta_rule`` records whether zeta came from the
    default rule."""
    mu_list = cfg["mu_list"]
    jobs = []
    for mu in mu_list:
        denom = int(round(1.0 / mu))
        jobs.append((mu, os.path.join(out, f"mu-{denom}")))
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
        "zeta_rule": zeta_rule,
        "runs": results,
    })
    for r in results:
        print(f"mu=1/{r['denominator']}: n_params={r['n_params']} "
              f"status={r['status']} iterations={r['iterations']}")
    ok = all(r["status"] == "achieved" for r in results)
    return EXIT_OK if ok else EXIT_BUDGET


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        out = _prepare_out(args, cfg)
        if args.command == "estimate-freq":
            return cmd_estimate_freq(cfg, out)
        if args.command == "fit":
            return cmd_fit(cfg, out)
        if args.command == "online":
            return cmd_online(cfg, out)
        if args.command == "diag":
            return cmd_diag(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, args.zeta is None)
        raise ConfigError(f"unknown command {args.command!r}")
    except ValueError as exc:
        # ConfigError, DataError and GridError are ValueErrors too
        print(f"cwnn: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDivergence, QuadratureError) as exc:
        print(f"cwnn: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

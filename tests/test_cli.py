"""Command-line interface: config resolution, artifacts, exit codes."""

import csv
import ctypes
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import cwnn.cli as cli
from cwnn.datasets import Dataset, load_csv, minmax_unscale, split
from cwnn.model import Design, TrainingDivergence, WaveletModel
from cwnn.wavelets import RES


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("CWNN_OUT_ROOT", str(tmp_path))
    return tmp_path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


FAST_FIT = ["fit", "--preset", "example1-d1", "--n-samples", "150",
            "--epsilon", "0.02", "--max-resolution", "4"]


def test_estimate_freq_preset_prints_m_init(out_root, capsys):
    rc = cli.main(["estimate-freq", "--preset", "example1-d1",
                   "--out", str(out_root / "ef")])
    assert rc == 0
    assert "m_init=2" in capsys.readouterr().out
    run = out_root / "ef"
    assert (run / "config.json").exists()
    assert (run / "energy_trace.csv").exists()
    assert read_json(run / "summary.json")["m_init"] == 2


def test_zero_target_degenerate_warning(out_root, capsys, monkeypatch):
    rng = np.random.default_rng(3)
    ds = Dataset(rng.uniform(0, 1, size=(100, 2)), np.zeros(100))
    monkeypatch.setattr(cli, "gen_example1", lambda variant, n, seed: ds)
    rc = cli.main(["estimate-freq", "--preset", "example1-d1",
                   "--out", str(out_root / "z")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "m_init=1" in captured.out  # falls back to the start resolution
    assert "zero probe energy" in captured.err


def test_unknown_config_field_exits_2(out_root, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"epsilon": 0.01, "bogus_knob": 3}')
    rc = cli.main(["fit", "--config", str(cfg), "--out", str(out_root / "x")])
    assert rc == 2
    assert "bogus_knob" in capsys.readouterr().err


_WRONG_KINDS = [("online", {"window": "10"}), ("fit", {"seed": 1.5}),
                ("fit", {"m_init": "2"}), ("fit", {"domain_low": 0}),
                ("fit", {"kappa": True}), ("fit", {"max_iters": False}),
                ("fit", {"variant": None}), ("sweep", {"mu_list": "1/2"}),
                ("fit", {"family": "haar"}), ("fit", {"baseline": "mlp"})]


@pytest.mark.parametrize("command, payload", _WRONG_KINDS,
                         ids=[next(iter(p)) for _, p in _WRONG_KINDS])
def test_config_value_of_the_wrong_kind_exits_2(out_root, tmp_path, capsys,
                                                command, payload):
    # each value is checked against its setting's kind before any run
    # starts; the size flags keep a run that slipped through short
    (field,) = payload
    cfg = tmp_path / "kind.json"
    cfg.write_text(json.dumps(payload))
    rc = cli.main([command, "--preset", "example1-d1", "--config", str(cfg),
                   "--n-samples", "60", "--length", "60", "--max-iters", "5",
                   "--out", str(out_root / "k")])
    assert rc == 2
    err = capsys.readouterr().err
    assert repr(field) in err and "Traceback" not in err


_WRONG_ENTRIES = [("sweep", {"mu_list": [True]}, "a list of numbers"),
                  ("fit", {"domain_low": ["a", "b"]}, "a list of numbers"),
                  ("fit", {"clamp_low": [[0.0], [0.0]]},
                   "a list of numbers or null"),
                  ("fit", {"feature_columns": [1, 2]},
                   "a list of strings or null")]


@pytest.mark.parametrize("command, payload, kind", _WRONG_ENTRIES,
                         ids=[next(iter(p)) for _, p, _ in _WRONG_ENTRIES])
def test_config_list_entry_of_the_wrong_kind_exits_2(out_root, tmp_path,
                                                     capsys, command,
                                                     payload, kind):
    # a list's entries are held to the kind its flag parses them to, so
    # [true] is no mu = 1/1 and ["a", "b"] never reaches numpy
    (field,) = payload
    cfg = tmp_path / "entry.json"
    cfg.write_text(json.dumps(payload))
    run = out_root / "e"
    rc = cli.main([command, "--preset", "example1-d1", "--config", str(cfg),
                   "--n-samples", "60", "--max-iters", "5",
                   "--out", str(run)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"field {field!r} must be {kind}," in err
    assert "Traceback" not in err and not run.exists()


_NON_FINITE = [
    ("fit", ["--epsilon", "inf", "--max-iters", "3"], None),
    ("online", ["--epsilon", "inf"], None),
    ("fit", ["--clamp-low", "nan,nan"], None),
    ("fit", ["--margin", "nan"], None),
    ("fit", ["--domain-low", "nan,0"], None),
    ("estimate-freq", ["--kappa", "nan"], None),
    ("fit", ["--learning-rate", "nan"], None),
    ("sweep", ["--mu-list", "1/2,-inf"], None),
    ("fit", [], '{"zeta": NaN}'),
    ("fit", [], '{"domain_high": [1.0, Infinity]}'),
]


@pytest.mark.parametrize("command, flags, payload", _NON_FINITE,
                         ids=[" ".join(f) or p for _, f, p in _NON_FINITE])
def test_a_setting_that_is_not_finite_exits_2(out_root, tmp_path, capsys,
                                              command, flags, payload):
    # float() reads nan and inf, and json.load NaN and Infinity; every
    # number such a setting holds, a list's entries too, must be finite
    # before the run directory exists
    args = [command, "--preset", "example1-d1", *flags]
    if payload is not None:
        cfg = tmp_path / "nonfinite.json"
        cfg.write_text(payload)
        args += ["--config", str(cfg)]
    run = out_root / "nf"
    rc = cli.main(args + ["--out", str(run)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err
    assert not run.exists()


def test_config_values_of_the_right_kind_resolve(tmp_path):
    # an integer for a number, and null where the default is null
    cfg = tmp_path / "ok.json"
    cfg.write_text('{"margin": 1, "switch_at": null, "zeta": null, '
                   '"clamp_low": null, "feature_columns": ["a"]}')
    args = cli.build_parser().parse_args(["fit", "--config", str(cfg)])
    resolved = cli.resolve_config(args)
    assert resolved["margin"] == 1 and resolved["clamp_low"] is None
    assert resolved["zeta"] == 0.001 * resolved["epsilon"]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_command_takes_its_settings_in_table_order(command, capsys):
    # a command's setting flags are the table's settings that every
    # command takes or that it alone takes, in table order
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    flags = dict.fromkeys(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
    got = [f.replace("-", "_") for f in flags
           if f not in ("help", "preset", "config", "out")]
    assert got == [key for key, s in cli.SETTINGS.items()
                   if s.command in (None, command)]


def test_settings_name_only_real_commands():
    # a setting tied to a misspelt command would get no flag anywhere
    assert {s.command for s in cli.SETTINGS.values()} - {None} <= set(
        cli._COMMANDS)


def test_invalid_json_and_missing_file_exit_2(out_root, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert cli.main(["fit", "--config", str(broken),
                     "--out", str(out_root / "a")]) == 2
    assert cli.main(["fit", "--config", str(tmp_path / "absent.json"),
                     "--out", str(out_root / "b")]) == 2


def test_nonpositive_epsilon_named(out_root, tmp_path, capsys):
    cfg = tmp_path / "eps.json"
    cfg.write_text('{"epsilon": -1.0}')
    rc = cli.main(["fit", "--config", str(cfg), "--out", str(out_root / "c")])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(out_root):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--no-such-flag"])
    assert exc.value.code == 2


def test_csv_requires_path_and_target(out_root, capsys):
    rc = cli.main(["fit", "--dataset", "csv", "--out", str(out_root / "d")])
    assert rc == 2
    assert "csv_path" in capsys.readouterr().err


def test_non_finite_csv_value_exits_2(out_root, tmp_path, capsys):
    table = tmp_path / "inf.csv"
    table.write_text("x1,x2,y\n0.1,0.2,1.0\n0.3,inf,2.0\n0.5,0.6,3.0\n")
    rc = cli.main(["fit", "--preset", "csv", "--csv-path", str(table),
                   "--target-column", "y", "--out", str(out_root / "inf")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "'x2'" in err


def test_csv_model_predicts_in_original_units(out_root, tmp_path, capsys):
    # a saved csv model carries the min-max record of its training data,
    # so the loaded model gives held-out predictions in the csv's units
    rng = np.random.default_rng(11)
    X = rng.uniform([-5.0, 10.0], [5.0, 30.0], size=(120, 2))
    y = 100.0 + 20.0 * np.sin(0.3 * X[:, 0]) + 0.5 * X[:, 1]
    table = tmp_path / "units.csv"
    table.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},{t!r}\n" for (a, b), t
                                          in zip(X.tolist(), y.tolist())))
    run = out_root / "units"
    rc = cli.main(["fit", "--preset", "csv", "--csv-path", str(table),
                   "--target-column", "y", "--m-init", "0",
                   "--max-resolution", "2", "--out", str(run)])
    assert rc == 0
    cfg = read_json(run / "config.json")
    model = WaveletModel.load(run / "model.json")
    assert model.scaling["target_min"] == y.min()
    assert model.scaling["target_max"] == y.max()
    _, raw_test = split(load_csv(table, "y"), cfg["train_fraction"],
                        cfg["seed"])
    lo = np.array(model.scaling["input_min"])
    hi = np.array(model.scaling["input_max"])
    scaled_inputs = (raw_test.inputs - lo) / (hi - lo)
    back = minmax_unscale(Dataset(scaled_inputs, model.predict(scaled_inputs),
                                  model.scaling))
    np.testing.assert_allclose(back.inputs, raw_test.inputs, rtol=1e-12)
    mse = float(np.mean((back.targets - raw_test.targets) ** 2))
    s = read_json(run / "summary.json")
    assert mse == pytest.approx(s["test_mse"] * (y.max() - y.min()) ** 2,
                                rel=1e-9)


# each command on a small problem, with the files its run must write
_REPLAYED = {
    "estimate-freq": (["estimate-freq", "--preset", "example1-d1"],
                      ("energy_trace.csv",)),
    "fit": (FAST_FIT, ("train_log.csv", "growth_events.csv", "model.json")),
    "sweep": (["sweep"] + FAST_FIT[1:] + ["--mu-list", "1/2,1/3"],
              ("mu-2/summary.json", "mu-3/model.json")),
    # a pinned zeta is a config value like any other, so it replays too
    "sweep-zeta": (["sweep"] + FAST_FIT[1:] + ["--mu-list", "1/2",
                                               "--zeta", "1e-6"],
                   ("mu-2/summary.json",)),
    "online": (["online", "--preset", "example3", "--length", "300",
                "--patience", "5", "--epsilon", "0.05"],
               ("train_log.csv", "growth_events.csv", "model.json")),
    "diag": (["diag", "--preset", "example1-d1"],
             ("decay_report.csv", "energy_trace.csv")),
}


@pytest.mark.parametrize("command", sorted(_REPLAYED))
def test_fit_writes_artifacts_and_replays(out_root, capsys, command):
    argv, files = _REPLAYED[command]
    run1 = out_root / "run1"
    rc = cli.main(argv + ["--out", str(run1)])
    assert rc in (0, 4)
    for name in ("config.json", "summary.json") + files:
        assert (run1 / name).exists(), name
    if command == "fit":
        summary = read_json(run1 / "summary.json")
        assert summary["cwnn"]["status"] == "achieved"
        assert summary["cwnn"]["final_loss"] <= 0.02

    # replaying the resolved config reproduces every summary byte for byte
    run2 = out_root / "run2"
    assert cli.main([argv[0], "--config", str(run1 / "config.json"),
                     "--out", str(run2)]) == rc
    summaries = sorted(p.relative_to(run1) for p in run1.rglob("summary.json"))
    for rel in summaries:
        assert (run1 / rel).read_bytes() == (run2 / rel).read_bytes(), rel


def test_fit_budget_exit_code(out_root, capsys):
    rc = cli.main(FAST_FIT + ["--max-iters", "20",
                              "--out", str(out_root / "bud")])
    assert rc == 4
    assert read_json(out_root / "bud" / "summary.json")["cwnn"]["status"] == \
        "budget"


def test_fit_baseline_schema(out_root, capsys):
    run = out_root / "base"
    rc = cli.main(FAST_FIT + ["--baseline", "wnn", "--out", str(run)])
    assert rc == 0
    summary = read_json(run / "summary.json")
    assert set(summary["baseline"]) == set(summary["cwnn"])
    assert summary["param_ratio"] == pytest.approx(
        summary["cwnn"]["n_params"] / summary["baseline"]["n_params"])
    assert (run / "baseline_train_log.csv").exists()


@pytest.mark.parametrize("cap", [0, 10])
def test_baseline_seeds_at_its_start_or_a_lower_cap(out_root, capsys, cap):
    # whatever m_init is, the baseline seeds at BASELINE_START_M, or at
    # the resolution cap when that is lower
    assert cli.BASELINE_START_M > 0
    run = out_root / f"cap{cap}"
    rc = cli.main(["fit", "--baseline", "wnn", "--m-init", "0",
                   "--max-resolution", str(cap), "--n-samples", "48",
                   "--max-iters", "20", "--out", str(run)])
    assert rc in (0, 4)
    events = read_json(run / "summary.json")["baseline"]["events"]
    assert events[0][1:3] == ["seed", min(cli.BASELINE_START_M, cap)]
    model = WaveletModel.load(run / "baseline_model.json")
    assert model.bases[:, RES].max() <= cap


def test_generated_run_dirs_do_not_collide(out_root, capsys):
    for _ in range(2):
        assert cli.main(["estimate-freq", "--preset", "example1-d1"]) == 0
    base = "estimate-freq-example1-d1-seed7"
    assert (out_root / base).is_dir()
    assert (out_root / f"{base}-2").is_dir()


def test_online_small_stream(out_root, capsys):
    run = out_root / "on"
    rc = cli.main(["online", "--preset", "example3", "--length", "600",
                   "--patience", "5", "--epsilon", "0.05",
                   "--out", str(run)])
    summary = read_json(run / "summary.json")
    assert summary["windows"] >= 59
    assert summary["reconverged"] == (rc == 0)
    assert (run / "train_log.csv").exists()


def test_online_summary_growth_iterations_are_the_logged_phases(out_root,
                                                                capsys):
    # a target out of reach and a wide plateau gap: the stream grows,
    # once with nothing to add
    run = out_root / "grow"
    cli.main(["online", "--preset", "example3", "--length", "600",
              "--patience", "2", "--epsilon", "1e-6", "--zeta", "1e-3",
              "--max-resolution", "3", "--out", str(run)])
    summary = read_json(run / "summary.json")
    with open(run / "growth_events.csv") as fh:
        events = list(csv.DictReader(fh))
    grew = [int(e["iter"]) for e in events
            if e["event"] in ("expand", "escalate")]
    assert len(grew) == len(events) - 1 >= 2
    assert "0" in {e["added"] for e in events}
    assert summary["growth_iterations"] == grew
    with open(run / "train_log.csv") as fh:
        assert summary["windows"] == len(fh.readlines()) - 1


@pytest.mark.parametrize("flag, value, name", [
    ("--window", "0", "window"), ("--window", "-3", "window"),
    ("--patience", "0", "patience")])
def test_online_rejects_counts_below_one(out_root, capsys, flag, value,
                                         name):
    rc = cli.main(["online", "--preset", "example3", "--length", "200",
                   flag, value, "--out", str(out_root / "bad")])
    assert rc == 2
    assert f"{name} must be at least 1, got {value}" in capsys.readouterr().err


def test_online_divergence_exits_3(out_root, capsys):
    # a step size far past the stability bound blows the coefficients up
    # within a few windows; the run must stop as a numeric failure
    rc = cli.main(["online", "--preset", "example3", "--length", "3000",
                   "--learning-rate", "5", "--out", str(out_root / "div")])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_sweep_applies_zeta_rule_per_run(out_root, capsys):
    run = out_root / "sw"
    rc = cli.main(["sweep", "--preset", "example1-d1", "--n-samples", "150",
                   "--epsilon", "0.02", "--max-resolution", "4",
                   "--mu-list", "1/2,1/3", "--out", str(run)])
    assert rc == 0
    summary = read_json(run / "summary.json")
    assert summary["zeta_rule"] is True
    assert [r["denominator"] for r in summary["runs"]] == [2, 3]
    for denom in (2, 3):
        sub = read_json(run / f"mu-{denom}" / "config.json")
        assert sub["zeta"] == pytest.approx(0.001 * 0.02)
        assert (run / f"mu-{denom}" / "summary.json").exists()


def test_sweep_runs_share_their_seed_phase(out_root, capsys):
    # mu first acts at the first growth phase, so every mu run trains the
    # seed level to the same first plateau: the train logs agree step for
    # step up to the first growth event, which every run reaches at the
    # same iteration, and the runs part there
    run = out_root / "seed-phase"
    rc = cli.main(["sweep"] + FAST_FIT[1:] + ["--mu-list", "1/2,1/3,1/4",
                                              "--out", str(run)])
    assert rc == 0
    firsts, logs = [], []
    for denom in (2, 3, 4):
        with open(run / f"mu-{denom}" / "growth_events.csv") as fh:
            grown = [e for e in csv.DictReader(fh) if e["event"] != "seed"]
        with open(run / f"mu-{denom}" / "train_log.csv") as fh:
            logs.append([(r["iter"], r["loss"], r["n_params"])
                         for r in csv.DictReader(fh)])
        firsts.append((int(grown[0]["iter"]), grown[0]["added"]))
    at = firsts[0][0]
    assert at > 2 and all(first[0] == at for first in firsts)
    assert len({first[1] for first in firsts}) == 3
    assert logs[0][:at] == logs[1][:at] == logs[2][:at]
    assert [int(r[0]) for r in logs[0][:at]] == list(range(1, at + 1))


def _fit_files(run):
    """What a fit run writes, less config.json and the train logs'
    elapsed_ms column."""
    files = {}
    for path in sorted(run.iterdir()):
        if path.name.endswith("train_log.csv"):
            with open(path) as fh:
                files[path.name] = [line.rsplit(",", 1)[0] for line in fh]
        elif path.name != "config.json":
            files[path.name] = path.read_bytes()
    assert {"summary.json", "model.json", "train_log.csv"} <= set(files)
    return files


_SWEPT = {
    "fast": FAST_FIT[1:],
    # each run ingests the second region after its fork grew
    "example2": ["--preset", "example2"],
    # the seed phase plateaus at iteration 2,114 and every run needs more
    # than 2,125 steps, so each ends on the one-run budget after its fork
    # grew
    "budget": FAST_FIT[1:] + ["--max-iters", "2125"],
    # a config file asks for the baseline, which the sweep trains once
    # and each run writes
    "baseline": FAST_FIT[1:] + ["--config", "wnn.json"],
}


@pytest.mark.parametrize("case", sorted(_SWEPT))
def test_each_sweep_run_is_a_lone_fit(out_root, capsys, monkeypatch, case):
    # a run grown from a fork of the shared seed phase writes what a fit
    # with its mu and the sweep's zeta writes
    argv = _SWEPT[case]
    monkeypatch.chdir(out_root)
    (out_root / "wnn.json").write_text('{"baseline": "wnn"}')
    run = out_root / "sweep"
    rc = cli.main(["sweep", *argv, "--mu-list", "1/2,1/3", "--out", str(run)])
    zeta = repr(read_json(run / "config.json")["zeta"])
    for k in (2, 3):
        fit = out_root / f"fit-{k}"
        assert cli.main(["fit", *argv, "--mu", f"1/{k}", "--zeta", zeta,
                         "--out", str(fit)]) in (rc, 4)
        assert _fit_files(run / f"mu-{k}") == _fit_files(fit)
        summary = read_json(fit / "summary.json")["cwnn"]
        assert {e[1] for e in summary["events"]} & {"expand", "escalate"}
        assert summary["status"] == ("budget" if case == "budget"
                                     else "achieved")


def test_a_sweep_steps_through_its_seed_phase_once(out_root, capsys,
                                                   monkeypatch):
    # every gradient step is Design.step: the sweep takes the seed phase's
    # steps once and then each run's steps past its fork
    step, calls = Design.step, []

    def spy(self, *args):
        calls.append(None)
        return step(self, *args)

    monkeypatch.setattr(Design, "step", spy)
    run = out_root / "steps"
    assert cli.main(["sweep"] + FAST_FIT[1:] + ["--mu-list", "1/2,1/3,1/4",
                                                "--out", str(run)]) == 0
    runs = read_json(run / "summary.json")["runs"]
    seed_steps = set()
    for k in (2, 3, 4):
        events = read_json(run / f"mu-{k}" / "summary.json")["cwnn"]["events"]
        seed_steps.add(events[1][0])
    (at,) = seed_steps
    assert len(calls) == at + sum(r["iterations"] - at for r in runs)


def test_a_sweep_trains_its_baseline_once(out_root, capsys, monkeypatch):
    # the baseline reads no mu, so each run writes the one the first
    # run trained
    real, calls = cli.run_baseline_wnn, []

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(cli, "run_baseline_wnn", spy)
    cfg = out_root / "wnn.json"
    cfg.write_text('{"baseline": "wnn"}')
    run = out_root / "wnn"
    assert cli.main(["sweep"] + FAST_FIT[1:] + ["--mu-list", "1/2,1/3,1/4",
                                                "--config", str(cfg),
                                                "--out", str(run)]) == 0
    assert len(calls) == 1
    models = {(run / f"mu-{k}" / "baseline_model.json").read_bytes()
              for k in (2, 3, 4)}
    assert len(models) == 1


def test_the_ingest_event_names_the_resolution_the_resumed_run_grows_at(
        out_root, capsys):
    # the first region's run stops at m = 2 after an expand phase, holding
    # children at m = 3, and the resumed run grows at its finest basis
    # resolution
    run = out_root / "ex2"
    assert cli.main(["fit", "--preset", "example2", "--out", str(run)]) == 0
    events = read_json(run / "summary.json")["cwnn"]["events"]
    at = [e[1] for e in events].index("ingest")
    assert events[at - 1][1:3] == ["expand", 2]
    assert events[at][2] == 3 and events[at + 1][1:3] == ["expand", 3]


@pytest.mark.parametrize("mu_list", ["1/2,1/2", "1/2,0.5"])
def test_sweep_rejects_a_repeated_denominator(out_root, capsys, mu_list):
    # two runs would share mu-2/; the sweep stops before either starts
    run = out_root / "rep"
    rc = cli.main(["sweep", "--preset", "example1-d1", "--n-samples", "150",
                   "--epsilon", "0.02", "--max-resolution", "4",
                   "--mu-list", mu_list, "--out", str(run)])
    assert rc == 2
    assert "distinct round(1/mu)" in capsys.readouterr().err
    assert not run.exists()


def test_sweep_rejects_an_empty_mu_list(out_root, tmp_path, capsys):
    # a sweep of no runs would fit nothing and still exit 0
    cfg = tmp_path / "empty.json"
    cfg.write_text('{"mu_list": []}')
    run = out_root / "none"
    rc = cli.main(["sweep", "--preset", "example1-d1", "--config", str(cfg),
                   "--out", str(run)])
    assert rc == 2
    assert "one or more positive numbers" in capsys.readouterr().err
    assert not run.exists()


def test_sweep_explicit_zeta_pins_value(out_root, capsys):
    run = out_root / "swz"
    rc = cli.main(["sweep", "--preset", "example1-d1", "--n-samples", "150",
                   "--epsilon", "0.02", "--max-resolution", "4",
                   "--mu-list", "1/2", "--zeta", "1e-6",
                   "--out", str(run)])
    assert rc == 0
    summary = read_json(run / "summary.json")
    assert summary["zeta_rule"] is False
    assert read_json(run / "mu-2" / "config.json")["zeta"] == 1e-6


def test_config_precedence_flags_beat_file(out_root, tmp_path, capsys,
                                           monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"epsilon": 0.05, "seed": 3}))
    run = out_root / "prec"
    # a config file is checked against the settings table, not a parser
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    rc = cli.main(["estimate-freq", "--preset", "example1-d1",
                   "--config", str(cfg), "--seed", "11",
                   "--out", str(run)])
    assert rc == 0
    resolved = read_json(run / "config.json")
    assert resolved["seed"] == 11        # flag wins over file
    assert resolved["epsilon"] == 0.05   # file wins over preset
    assert resolved["variant"] == "D1"   # preset fills the rest
    assert len(built) == 1


def test_cli_import_leaves_out_scipy_interpolate():
    # the package needs no interpolation; importing it costs start-up time
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, cwnn.cli; "
             "print('scipy.interpolate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_presets_hold_only_differences(name):
    for key, value in cli.PRESETS[name].items():
        assert key in cli.DEFAULTS, key
        assert value != cli.DEFAULTS[key], key


def _resolve(argv):
    return cli.resolve_config(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_bare_command_is_the_first_example(command):
    # the defaults are example1-d1, so a bare run is the paper's first
    # example (178 bases against the baseline's 420 at seed 7)
    bare = _resolve([command])
    assert dict(bare, preset="example1-d1") == _resolve(
        [command, "--preset", "example1-d1"])


# (clamp_low, zeta outside a sweep) of each preset: the values every
# preset resolved to while the defaults held no clamp and the zeta rule
_PRESET_CLAMP_ZETA = {
    "example1-d1": ([0.0, 0.0], 4e-5), "example1-d2": ([0.0, 0.0], 4e-5),
    "example1-d3": ([0.0, 0.0], 4e-5), "example2": ([0.0, 0.0], 4e-5),
    "example3": ([0.0, 0.0], 4e-5), "csv": (None, 0.001 * 0.015)}


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_presets_keep_their_clamp_and_zeta(name):
    clamp, zeta = _PRESET_CLAMP_ZETA[name]
    for command in cli._COMMANDS:
        cfg = _resolve([command, "--preset", name])
        assert cfg["clamp_low"] == clamp, command
        want = 0.001 * cfg["epsilon"] if command == "sweep" else zeta
        assert cfg["zeta"] == want, command


def test_clamp_low_none_clears_the_preset_clamp(out_root, capsys):
    run = out_root / "nc"
    rc = cli.main(["estimate-freq", "--preset", "example1-d1",
                   "--clamp-low", "none", "--out", str(run)])
    assert rc == 0
    assert read_json(run / "config.json")["clamp_low"] is None


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flag", ["--domain-low", "--domain-high"])
def test_domain_flags_reject_none(out_root, capsys, flag):
    assert _exit_code(["estimate-freq", "--preset", "example1-d1", flag,
                       "none", "--out", str(out_root / "dn")]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["fit", "--mu", "1/0"],
                                  ["sweep", "--mu-list", "1/0"],
                                  ["sweep", "--mu-list", "0"]],
                         ids=["mu-1/0", "mu-list-1/0", "mu-list-0"])
def test_zero_in_mu_exits_2(out_root, capsys, argv):
    assert _exit_code(argv + ["--preset", "example1-d1",
                              "--out", str(out_root / "mz")]) == 2
    err = capsys.readouterr().err
    assert "mu" in err and "Traceback" not in err


@pytest.mark.parametrize("family, code", [("sinc", 0), ("mexican-hat", 4)])
def test_diag_exits_4_when_a_check_fails(out_root, capsys, family, code):
    # the Mexican hat's out-of-box ratio (0.19 at seed 7) is over its
    # 1e-2 tolerance; the run still writes its summary
    run = out_root / family
    assert cli.main(["diag", "--preset", "example1-d1", "--family", family,
                     "--out", str(run)]) == code
    summary = read_json(run / "summary.json")
    passed = summary["decay"]["pass"] and summary["unimodality"]["unimodal"]
    assert passed == (code == 0)
    assert ("FAIL" in capsys.readouterr().out) == (family == "mexican-hat")


def test_m_cap_below_the_start_resolution_exits_2(out_root, capsys):
    # the probe starts at m = 1 and never visits level 0
    rc = cli.main(["estimate-freq", "--preset", "example1-d1", "--m-cap", "0",
                   "--out", str(out_root / "cap")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "m_cap must be at least the start resolution 1, got 0" in \
        captured.err
    assert "m_init" not in captured.out


@pytest.mark.parametrize("text, want", [("none", None), ("None", None),
                                        ("a, b", ["a", "b"])])
def test_feature_columns_flag_reads_none(text, want):
    # null is a value of feature_columns (every column but the target), so
    # its flag reads none as a config file's null does
    assert _resolve(["fit", "--preset", "csv", "--feature-columns", text])[
        "feature_columns"] == want


def test_feature_columns_none_fits_every_column(out_root, tmp_path, capsys):
    table = tmp_path / "t.csv"
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, size=(60, 2))
    table.write_text("a,b,y\n" + "".join(f"{a!r},{b!r},{a + b!r}\n"
                                         for a, b in X.tolist()))
    run = out_root / "fc"
    rc = cli.main(["fit", "--preset", "csv", "--csv-path", str(table),
                   "--target-column", "y", "--feature-columns", "none",
                   "--max-iters", "5", "--out", str(run)])
    assert rc in (0, 4)
    assert read_json(run / "config.json")["feature_columns"] is None
    assert WaveletModel.load(run / "model.json").mother.dim == 2


def test_sweep_is_fit_once_per_mu_on_example2(out_root, capsys):
    # each mu run ingests the second region as fit does, and replaying a
    # run's config through fit writes the same summary byte for byte
    run = out_root / "sw2"
    argv = ["--preset", "example2", "--epsilon", "0.02",
            "--max-resolution", "4", "--max-iters", "400"]
    rc = cli.main(["sweep", *argv, "--mu-list", "1/2,1/3",
                   "--out", str(run)])
    assert rc in (0, 4)
    for denom in (2, 3):
        summary = read_json(run / f"mu-{denom}" / "summary.json")
        ingest = [e for e in summary["cwnn"]["events"] if e[1] == "ingest"]
        assert len(ingest) == 1 and ingest[0][3] == 250
        assert ingest[0][0] == summary["phase1_iterations"]
    fit = out_root / "fit2"
    cli.main(["fit", "--config", str(run / "mu-3" / "config.json"),
              "--out", str(fit)])
    assert (fit / "summary.json").read_bytes() == \
        (run / "mu-3" / "summary.json").read_bytes()


def test_csv_sweep_keeps_the_scaling_record(out_root, tmp_path, capsys):
    table = tmp_path / "s.csv"
    rng = np.random.default_rng(8)
    X = rng.uniform([0.0, 10.0], [1.0, 20.0], size=(80, 2))
    table.write_text("a,b,y\n" + "".join(
        f"{a!r},{b!r},{math.sin(3 * a) + 0.1 * b!r}\n" for a, b in X.tolist()))
    run = out_root / "csw"
    rc = cli.main(["sweep", "--preset", "csv", "--csv-path", str(table),
                   "--target-column", "y", "--mu-list", "1/2,1/3",
                   "--max-iters", "50", "--out", str(run)])
    assert rc in (0, 4)
    for denom in (2, 3):
        sub = run / f"mu-{denom}"
        model = WaveletModel.load(sub / "model.json")
        assert model.scaling["input_max"] == X.max(axis=0).tolist()
        assert read_json(sub / "summary.json")["test_mse"] >= 0.0
        # the run records the unit-cube domain it ran on
        assert read_json(sub / "config.json")["domain_high"] == [1.0, 1.0]


# bad inputs that stop a run before its run directory exists (exit 2),
# and a probe step that diverges (exit 3)
_BAD_INPUTS = {
    "csv-missing": (["fit", "--preset", "csv", "--csv-path",
                     "/nonexistent/t.csv", "--target-column", "y"], 2,
                    "cannot read"),
    "csv-no-path": (["fit", "--dataset", "csv"], 2, "csv_path"),
    "m-cap": (["estimate-freq", "--m-cap", "0"], 2, "m_cap"),
    "mu": (["fit", "--mu", "0.3"], 2, "mu must be the reciprocal"),
    "window": (["online", "--window", "0"], 2, "window"),
    "kappa": (["estimate-freq", "--kappa", "2"], 2, "'kappa'"),
    "mu-list": (["sweep", "--mu-list", "1/2,0.3"], 2,
                "field 'mu_list': mu must be the reciprocal"),
    "domain-3d": (["fit", "--domain-low", "0,0,0", "--domain-high", "1,1,1",
                   "--clamp-low", "none"], 2, "'domain_low'"),
    "domain-1d": (["estimate-freq", "--domain-low", "0", "--domain-high", "1",
                   "--clamp-low", "none"], 2, "'domain_low'"),
    "clamp-1d": (["fit", "--clamp-low", "0"], 2, "'clamp_low'"),
    "probe-lr": (["estimate-freq", "--learning-rate", "1e200"], 3,
                 "diverged"),
    "probe-epsilon": (["estimate-freq", "--epsilon", "2"], 2,
                      "epsilon must be in (0, 1]"),
    "diag-epsilon": (["diag", "--epsilon", "2"], 2,
                     "epsilon must be in (0, 1]"),
    "no-rows": (["fit", "--n-samples", "0"], 2, "no training rows"),
    "domain-order": (["fit", "--domain-low", "1,1", "--domain-high", "0,0"],
                     2, "inconsistent domain bounds"),
    "margin": (["fit", "--margin", "-2"], 2, "empty lattice"),
    # lattice points at m_init = 3 but none at the baseline's seed, m = 1
    "baseline-lattice": (["fit", "--baseline", "wnn", "--domain-low",
                          "0.3,0.3", "--domain-high", "0.4,0.4", "--margin",
                          "0", "--clamp-low", "none", "--m-init", "3",
                          "--max-iters", "50"], 2,
                         "empty lattice at resolution 1"),
    "m-init": (["fit", "--m-init", "12"], 2,
               "m_init exceeds max_resolution"),
    "max-iters-0": (["fit", "--max-iters", "0"], 2,
                    "max_iters must be at least 1, got 0"),
    "max-iters-negative": (["fit", "--max-iters", "-5"], 2,
                           "max_iters must be at least 1, got -5"),
    # a two-row table splits into two training rows and no held-out one
    "no-held-out-rows": (["fit", "--preset", "csv", "--csv-path",
                          "<two-row.csv>", "--target-column", "y"], 2,
                         "no held-out rows"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_before_the_run_directory(out_root, capsys, case,
                                                  monkeypatch):
    argv, code, message = _BAD_INPUTS[case]
    table = out_root / "two-row.csv"
    table.write_text("x1,x2,y\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
    argv = [str(table) if a == "<two-row.csv>" else a for a in argv]
    # a bad input must stop the command before any fit starts
    monkeypatch.setattr(cli, "run_growth", None)
    run = out_root / "bad"
    assert cli.main(argv + ["--out", str(run)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert run.exists() == (code == 3)


def test_fit_takes_an_epsilon_the_probe_would_refuse(out_root, capsys):
    # only the probe's smoothing needs epsilon <= 1
    run = out_root / "loose"
    assert cli.main(["fit", "--epsilon", "2", "--max-iters", "10",
                     "--out", str(run)]) == 0
    assert read_json(run / "summary.json")["cwnn"]["status"] == "achieved"


def test_example2_baseline_trains_on_the_union(out_root, capsys,
                                               monkeypatch):
    rows = []
    real = cli.run_baseline_wnn

    def spy(pool, X, y, config):
        rows.append(len(y))
        return real(pool, X, y, config)
    monkeypatch.setattr(cli, "run_baseline_wnn", spy)
    rc = cli.main(["fit", "--preset", "example2", "--baseline", "wnn",
                   "--epsilon", "0.02", "--max-resolution", "4",
                   "--max-iters", "200", "--out", str(out_root / "b2")])
    assert rc in (0, 4)
    assert rows == [2 * cli._N_PER_REGION]


# ------------------------------------------------------- BLAS thread count

def _openblas_threads():
    """The (get, set) thread-count functions of each OpenBLAS the process
    has loaded; skips where numpy's BLAS is not OpenBLAS."""
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in name.lower():
        pytest.skip(f"numpy's BLAS is {name}, not OpenBLAS")
    found = []
    for path in cli._openblas_paths():
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_{}_num_threads64_",
                    "scipy_openblas_{}_num_threads",
                    "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, sym.format("get"), None)
            if get is not None:
                put = getattr(lib, sym.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    assert found, "numpy's OpenBLAS was not found"
    return found


@pytest.mark.parametrize("raised, code", [
    (None, 0), (cli.ConfigError("bad data"), 2),
    (TrainingDivergence("diverged"), 3)])
def test_a_run_holds_blas_at_one_thread_and_restores_its_count(
        out_root, capsys, monkeypatch, raised, code):
    # every loaded OpenBLAS runs the command on one thread and gets back
    # the count it had, 3 here, on a success and on either error path
    libs = _openblas_threads()
    build, seen = cli._build_data, []

    def spy(cfg):
        seen.append([get() for get, _ in libs])
        if raised is not None:
            raise raised
        return build(cfg)

    monkeypatch.setattr(cli, "_build_data", spy)
    found = [get() for get, _ in libs]
    try:
        for _, put in libs:
            put(3)
        assert cli.main(FAST_FIT + ["--out", str(out_root / "f")]) == code
        assert seen == [[1] * len(libs)]
        assert [get() for get, _ in libs] == [3] * len(libs)
        # argparse's exit leaves the block too
        with pytest.raises(SystemExit):
            cli.main(["fit", "--no-such-flag"])
        assert [get() for get, _ in libs] == [3] * len(libs)
    finally:
        for (_, put), threads in zip(libs, found):
            put(threads)

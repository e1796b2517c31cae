"""Command-line interface: config resolution, artifacts, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cwnn.cli as cli
from cwnn.datasets import Dataset, load_csv, minmax_unscale, split
from cwnn.model import WaveletModel


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
    ds = Dataset(rng.uniform(0, 1, size=(100, 2)), np.zeros(100), {})
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


def test_config_values_of_the_right_kind_resolve(tmp_path):
    # an integer for a number, and null where the default is null
    cfg = tmp_path / "ok.json"
    cfg.write_text('{"margin": 1, "switch_at": null, "zeta": null, '
                   '"clamp_low": null, "feature_columns": ["a"]}')
    args = cli.build_parser().parse_args(["fit", "--config", str(cfg)])
    resolved = cli.resolve_config(args)
    assert resolved["margin"] == 1 and resolved["clamp_low"] is None
    assert resolved["zeta"] == 0.001 * resolved["epsilon"]


def test_every_setting_has_one_flag():
    # the union of the subcommands' flags is the settings: a deleted
    # setting leaves no flag behind; and each flag parses to a named kind
    flags = cli._setting_flags(cli.build_parser())
    assert set(flags) == set(cli.DEFAULTS)
    assert {cli._kind(f) for f in flags.values()} == set(cli._KIND_NAMES)


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
                                  {"scaling": model.scaling}))
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


def test_config_precedence_flags_beat_file(out_root, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"epsilon": 0.05, "seed": 3}))
    run = out_root / "prec"
    rc = cli.main(["estimate-freq", "--preset", "example1-d1",
                   "--config", str(cfg), "--seed", "11",
                   "--out", str(run)])
    assert rc == 0
    resolved = read_json(run / "config.json")
    assert resolved["seed"] == 11        # flag wins over file
    assert resolved["epsilon"] == 0.05   # file wins over preset
    assert resolved["variant"] == "D1"   # preset fills the rest


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

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


def test_fit_writes_artifacts_and_replays(out_root, capsys):
    run1 = out_root / "fit1"
    rc = cli.main(FAST_FIT + ["--out", str(run1)])
    assert rc == 0
    for name in ("config.json", "train_log.csv", "growth_events.csv",
                 "model.json", "summary.json"):
        assert (run1 / name).exists(), name
    summary = read_json(run1 / "summary.json")
    assert summary["cwnn"]["status"] == "achieved"
    assert summary["cwnn"]["final_loss"] <= 0.02

    # replaying the resolved config reproduces the summary byte for byte
    run2 = out_root / "fit2"
    rc = cli.main(["fit", "--config", str(run1 / "config.json"),
                   "--out", str(run2)])
    assert rc == 0
    assert (run1 / "summary.json").read_bytes() == \
        (run2 / "summary.json").read_bytes()


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


def test_online_divergence_exits_3(out_root, capsys):
    # a step size far past the stability bound blows the coefficients up
    # within a few windows; the run must stop as a numeric failure
    rc = cli.main(["online", "--preset", "example3", "--length", "3000",
                   "--learning-rate", "5", "--out", str(out_root / "div")])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_diag_partial_box_exits_2(out_root, capsys):
    rc = cli.main(["diag", "--preset", "example1-d1", "--box-m1", "0",
                   "--out", str(out_root / "dg")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "box_m0" in err and "box_T" in err and "box_t_eps" in err


def test_sweep_applies_zeta_rule_per_run(out_root, capsys):
    run = out_root / "sw"
    rc = cli.main(["sweep", "--preset", "example1-d1", "--n-samples", "150",
                   "--epsilon", "0.02", "--max-resolution", "4",
                   "--mu-list", "1/2,1/3", "--workers", "2",
                   "--out", str(run)])
    assert rc == 0
    summary = read_json(run / "summary.json")
    assert summary["zeta_rule"] is True
    assert [r["denominator"] for r in summary["runs"]] == [2, 3]
    for denom in (2, 3):
        sub = read_json(run / f"mu-{denom}" / "config.json")
        assert sub["zeta"] == pytest.approx(0.001 * 0.02)
        assert (run / f"mu-{denom}" / "summary.json").exists()


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

"""End-to-end acceptance runs for the documented behavior of the package.

Each numbered test exercises one externally stated claim at its stated
tolerance and prints a single ``criterion N: PASS/FAIL`` verdict line
(visible with ``pytest -v -rA``).  Iteration counts are deliberately not
gated anywhere — they depend on optimizer details; statuses, parameter
ratios, trends, tolerances and runtimes are.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

import cwnn.cli as cli
from cwnn.diagnostics import (TimeFrequencyBox, count_peaks, decay_report,
                              scan_indices)
from cwnn.frequency import (alpha_from_epsilon, ema_update,
                            estimate_initial_resolution)
from cwnn.model import WaveletModel, loss
from cwnn.datasets import gen_example1
from cwnn.wavelets import (TRANS, BasisKind, MotherWavelet, basis_matrix,
                           basis_set, build_center_grid)
from quadrature_oracle import adaptive_integral


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def read_summary(run):
    with open(run / "summary.json") as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("CWNN_OUT_ROOT", str(tmp_path))
    return tmp_path


def test_criterion_1_initial_frequency(out_root, capsys):
    t0 = time.perf_counter()
    rc = cli.main(["estimate-freq", "--preset", "example1-d1",
                   "--out", str(out_root / "c1")])
    dt = time.perf_counter() - t0
    printed = capsys.readouterr().out
    m_init = read_summary(out_root / "c1")["m_init"]
    ok = rc == 0 and m_init == 2 and "m_init=2" in printed and dt < 30.0
    verdict(1, ok, f"estimated start resolution {m_init} (want 2) "
                   f"in {dt:.2f}s (limit 30s)")


def test_criterion_2_parameter_efficiency(out_root, capsys):
    t0 = time.perf_counter()
    rc = cli.main(["fit", "--preset", "example1-d1", "--baseline", "wnn",
                   "--out", str(out_root / "c2")])
    dt = time.perf_counter() - t0
    s = read_summary(out_root / "c2")
    ratio = s["param_ratio"]
    ok = (rc == 0 and s["cwnn"]["status"] == "achieved"
          and s["cwnn"]["final_loss"] <= 0.006
          and ratio <= 0.75 and dt < 300.0)
    band = "within" if ratio <= 0.60 else "above"
    verdict(2, ok, f"constructive {s['cwnn']['n_params']} vs full-grid "
                   f"{s['baseline']['n_params']} params, ratio {ratio:.3f} "
                   f"(gate 0.75, {band} the tighter 0.60 band), "
                   f"{dt:.1f}s (limit 300s)")


def test_criterion_3_energy_fraction_trend(out_root, capsys):
    rc = cli.main(["sweep", "--preset", "example1-d1", "--epsilon", "0.01",
                   "--out", str(out_root / "c3")])
    s = read_summary(out_root / "c3")
    counts = [r["n_params"] for r in s["runs"]]
    denoms = [r["denominator"] for r in s["runs"]]
    statuses = [r["status"] for r in s["runs"]]
    violations = [(a, b) for a, b in zip(counts, counts[1:]) if b > a]
    small = all(b <= 1.1 * a for a, b in violations)
    ok = (rc == 0 and denoms == [2, 3, 4, 5]
          and all(st == "achieved" for st in statuses)
          and len(violations) <= 1 and small)
    verdict(3, ok, f"parameter counts {counts} for fractions 1/{denoms} "
                   f"non-increasing ({len(violations)} adjacent violations)")


def test_criterion_4_online_switching(out_root, capsys):
    t0 = time.perf_counter()
    rc = cli.main(["online", "--preset", "example3",
                   "--out", str(out_root / "c4")])
    dt = time.perf_counter() - t0
    run = out_root / "c4"
    _, rows = read_csv_rows(run / "train_log.csv")
    losses = np.array([float(r[1]) for r in rows])
    # the mapping switches at sample 5998 of the stream = window 599
    switch_w = 599
    patience = 40
    roll_pre = np.convolve(losses[:switch_w], np.ones(patience) / patience,
                           mode="valid")
    pre_ok = roll_pre.min() <= 0.02
    spike_ok = losses[switch_w:switch_w + 20].max() > 0.02
    _, events = read_csv_rows(run / "growth_events.csv")
    grown_after = [e for e in events
                   if e[1] in ("expand", "escalate") and int(e[0]) >= switch_w]
    recon = float(np.mean(losses[-patience:]))
    ok = (rc == 0 and pre_ok and spike_ok and len(grown_after) >= 1
          and recon <= 0.02 and dt < 180.0)
    verdict(4, ok, f"pre-switch rolling loss {roll_pre.min():.2e} <= 0.02, "
                   f"spike {losses[switch_w:switch_w+20].max():.2f}, "
                   f"{len(grown_after)} growth events after the switch, "
                   f"reconverged to {recon:.2e}, {dt:.1f}s (limit 180s)")


def test_criterion_5_energy_unimodality(capsys):
    mother = MotherWavelet.sinc(2)
    peaks_by_variant = {}
    for variant in ("D1", "D2", "D3"):
        ds = gen_example1(variant, 500, seed=7)
        grid = build_center_grid(1, [0.0, 0.0], [1.0, 1.0], margin=1.0,
                                 clamp_low=[0.0, 0.0])
        res = estimate_initial_resolution(
            mother, ds.inputs, ds.targets, grid, kappa=0.36, lr=5e-4,
            epsilon=0.006 if variant != "D3" else 0.025, m_cap=6,
            stop_early=False)
        trace = [row[1] for row in res.rows]
        assert [row[0] for row in res.rows] == [1, 2, 3, 4, 5, 6]
        peaks_by_variant[variant] = count_peaks(trace, tol=0.02)
    ok = all(p == 1 for p in peaks_by_variant.values())
    verdict(5, ok, f"probe-energy trace peaks over resolutions 1..6: "
                   f"{peaks_by_variant} (want exactly 1 each, 2% dip band)")


def test_criterion_6_coefficient_decay(capsys):
    mother = MotherWavelet.sinc(1)
    box = TimeFrequencyBox(T=(1.0,), t_eps=(1,), m0=4, m1=0)
    parts = list(zip((1.0, -0.7, 0.4),
                     basis_set(2, [(-1,), (0,), (3,)], BasisKind.WAVELET)))
    indices = scan_indices(box, m_pad=2)
    rep = decay_report(parts, mother, box, indices)
    ok = rep.ratio < 1e-3 and rep.max_inside > 0.1
    verdict(6, ok, f"out-of-box coefficient ratio {rep.ratio:.2e} over "
                   f"{len(rep.rows)} scanned indices (gate 1e-3); "
                   f"max inside {rep.max_inside:.3f}, "
                   f"max outside {rep.max_outside:.2e}")


def test_criterion_7_numerical_identities(capsys):
    checks = []
    # smoothing weight special values
    checks.append(abs(alpha_from_epsilon(0.1) - 0.5) <= 1e-12)
    checks.append(alpha_from_epsilon(1.0) == 0.0)
    # EMA hand arithmetic
    checks.append(ema_update(1.0, 3.0, 0.5, 2) == pytest.approx(8.0 / 3.0))
    checks.append(ema_update(1.0, 1.0, 0.5, 2) == pytest.approx(4.0 / 3.0))
    checks.append(ema_update(5.0, 7.0, 0.0, 2) == 7.0)

    # analytic gradient vs central finite differences, 20 random instances
    mh = MotherWavelet.mexican_hat(1)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 7))
        seen = set()
        while len(seen) < k:
            seen.add((int(rng.integers(0, 4)), int(rng.integers(-4, 9))))
        bases = basis_set([m for m, _ in sorted(seen)],
                          [(n,) for _, n in sorted(seen)], BasisKind.WAVELET)
        model = WaveletModel(mh, bases, rng.standard_normal(k))
        X = rng.uniform(-1.0, 2.0, size=(12, 1))
        y = rng.standard_normal(12)
        psi = basis_matrix(mh, bases, X)
        grad = -(2.0 / 12) * (psi.T @ (y - psi @ model.coeffs))
        h = 1e-6
        for j in range(k):
            c0 = model.coeffs[j]
            model.coeffs[j] = c0 + h
            up = loss(model, X, y)
            model.coeffs[j] = c0 - h
            dn = loss(model, X, y)
            model.coeffs[j] = c0
            fd = (up - dn) / (2 * h)
            # relative for O(1) components, absolute floor keeps roundoff
            # from dominating when a basis is nearly dead on the batch
            rel = abs(fd - grad[j]) / max(1.0, abs(fd))
            worst = max(worst, rel)
    checks.append(worst < 1e-6)

    # dilation/translation leave the element energy invariant
    norm_worst = 0.0
    for dim in (1, 2):
        mother = MotherWavelet.mexican_hat(dim)
        want = mother.norm_sq
        for m in (-1, 0, 1, 2, 3):
            n = tuple(int(v) for v in rng.integers(-2, 3, size=dim))
            b = basis_set(m, [n], BasisKind.WAVELET)[0]
            # the Mexican hat is below 1e-15 past radius 9 (mother units)
            lows = b[TRANS] * 2.0 ** -m - 9.0 * 2.0 ** -m
            highs = b[TRANS] * 2.0 ** -m + 9.0 * 2.0 ** -m

            def sq(pts, b=b, mother=mother):
                v = basis_matrix(mother, b[None], pts)[:, 0]
                return v * v

            got = adaptive_integral(sq, lows, highs,
                                    [max(8, 2 ** max(m, 0) * 4)] * dim,
                                    order=16, rtol=1e-9, atol=1e-12)
            norm_worst = max(norm_worst, abs(got - want) / want)
    checks.append(norm_worst < 1e-6)

    ok = all(checks)
    verdict(7, ok, f"smoothing weight and EMA hand cases exact; "
                   f"gradient vs finite differences worst rel err "
                   f"{worst:.2e} (gate 1e-6); element-energy invariance "
                   f"worst rel err {norm_worst:.2e} (gate 1e-6)")


def _nine_column_csv(path):
    rng = np.random.default_rng(42)
    n = 400
    u = rng.uniform(0.0, 1.0, size=(n, 9))
    lo = np.array([0, 1, -2, 0, 5, 0, 0, -1, 2.0])
    hi = np.array([2, 3, 0, 1, 9, 4, 1, 1, 6.0])
    X = lo + u * (hi - lo)
    y = (0.6 * np.sin(2.0 * u[:, 0]) + 0.4 * np.sin(2.0 * u[:, 3])
         - 0.3 * np.sin(2.0 * u[:, 7]) + 0.2 * u[:, 1])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"f{i}" for i in range(9)] + ["target"])
        for row, t in zip(X, y):
            w.writerow([repr(float(v)) for v in row] + [repr(float(t))])


NINE_D_FLAGS = ["--m-init", "0", "--max-resolution", "1",
                "--learning-rate", "1e-3", "--epsilon", "0.006",
                "--zeta", "1e-6"]


def test_criterion_8_determinism(out_root, tmp_path, capsys):
    nine = tmp_path / "nine.csv"
    _nine_column_csv(nine)
    jobs = {
        "example1-d1": ["fit", "--preset", "example1-d1"],
        "example1-d2": ["fit", "--preset", "example1-d2"],
        "example1-d3": ["fit", "--preset", "example1-d3"],
        "example2": ["fit", "--preset", "example2"],
        "example3": ["online", "--preset", "example3"],
        "csv": ["fit", "--preset", "csv", "--csv-path", str(nine),
                "--target-column", "target"] + NINE_D_FLAGS,
    }
    mismatched = []
    for name, argv in jobs.items():
        payloads = []
        for rep in (1, 2):
            run = out_root / f"c8-{name}-{rep}"
            rc = cli.main(argv + ["--out", str(run)])
            assert rc == 0, f"{name} run {rep} exited {rc}"
            payloads.append((run / "summary.json").read_bytes())
        if payloads[0] != payloads[1]:
            mismatched.append(name)
    ok = not mismatched
    verdict(8, ok, f"summary files byte-identical across repeat runs for "
                   f"all {len(jobs)} presets"
                   + (f"; mismatches: {mismatched}" if mismatched else ""))


def test_csv_pipeline_end_to_end_9d(out_root, tmp_path, capsys):
    """High-dimensional substitute for the excluded external-data study:
    a 9-column synthetic table goes through load / scale / split / fit and
    must reach the configured loss target with a finite held-out error."""
    nine = tmp_path / "nine.csv"
    _nine_column_csv(nine)
    run = out_root / "nine"
    rc = cli.main(["fit", "--preset", "csv", "--csv-path", str(nine),
                   "--target-column", "target"] + NINE_D_FLAGS
                  + ["--out", str(run)])
    s = read_summary(run)
    assert rc == 0
    assert s["cwnn"]["status"] == "achieved"
    assert s["cwnn"]["final_loss"] <= 0.006
    assert 0.0 < s["test_mse"] < 0.05
    cfg = json.loads((run / "config.json").read_text())
    assert cfg["dataset"] == "csv" and cfg["train_fraction"] == 0.8
    print(f"9-D pipeline: loss {s['cwnn']['final_loss']:.4g}, "
          f"held-out {s['test_mse']:.4g}")

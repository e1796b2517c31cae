"""Linear-in-coefficients predictor: loss, gradient, plateau training."""

import csv
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwnn.growth
import cwnn.model
import cwnn.wavelets
from cwnn.growth import GrowthConfig, WaveletPool, run_growth
from cwnn.model import (DIVERGENCE_LIMIT, Design, TrainLog, TrainStatus,
                        TrainingDivergence, WaveletModel, loss,
                        train_to_plateau)
from cwnn.wavelets import (BasisKind, MotherWavelet, basis_matrix, basis_set,
                           build_center_grid)
from divergence_oracle import check_finite

MH1 = MotherWavelet.mexican_hat(1)


def line(m, ns, kind=BasisKind.WAVELET):
    """The one-axis basis set of the translations ``ns`` at ``m``."""
    return basis_set(m, np.reshape(list(ns), (-1, 1)), kind)


def empty(mother):
    """An empty basis set of the mother's dimension."""
    return basis_set(0, np.zeros((0, mother.dim), int))


def wm(indices, coeffs=None):
    bases = basis_set([m for m, _ in indices],
                      np.reshape([n for _, n in indices], (-1, 1)))
    model = WaveletModel.zeros(MH1, bases)
    if coeffs is not None:
        model.coeffs[:] = coeffs
    return model


def test_predict_empty_and_zero():
    assert wm([]).predict(np.zeros((3, 1))).tolist() == [0.0, 0.0, 0.0]
    assert wm([(0, 0), (1, 1)]).predict(np.ones((2, 1))).tolist() == [0.0, 0.0]


def test_predict_single_basis_at_center():
    model = wm([(0, 0)], [2.0])
    assert model.predict(np.array([0.0])) == pytest.approx(2.0)


def test_loss_hand_cases():
    model = wm([])
    X = np.zeros((2, 1))
    assert loss(model, X, np.array([3.0, 4.0])) == pytest.approx(12.5)
    # residuals (1, -1) -> mean square 1
    m2 = wm([(0, 0)], [1.0])
    y = m2.predict(X) + np.array([1.0, -1.0])
    assert loss(m2, X, y) == pytest.approx(1.0)
    assert loss(m2, X, m2.predict(X)) == 0.0


def test_loss_rejects_empty():
    with pytest.raises(ValueError):
        loss(wm([(0, 0)]), np.zeros((0, 1)), np.zeros(0))


def one_step(model, X, y, lr):
    """One full-batch gradient update through the training loop: an
    epsilon below any loss and a single-iteration budget."""
    train_to_plateau(model, Design(X, y), lr, zeta=0.0, epsilon=-1.0,
                     max_iters=1, log=TrainLog())


def test_gradient_step_hand_case():
    # one sample at the element's center: psi(x)=1, y=1, coeff 0, lr=0.5
    # -> new coeff = 0.5 * 2 * 1 * 1 = 1
    model = wm([(0, 0)])
    one_step(model, np.array([[0.0]]), np.array([1.0]), 0.5)
    assert model.coeffs[0] == pytest.approx(1.0)


def test_gradient_step_fixed_point():
    model = wm([(0, 0), (1, 2)], [0.3, -0.7])
    X = np.linspace(-1, 2, 7).reshape(-1, 1)
    y = model.predict(X)
    before = model.coeffs.copy()
    one_step(model, X, y, 0.1)
    assert np.allclose(model.coeffs, before)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    model = wm([(0, 0), (1, 1), (2, -1)], rng.standard_normal(3))
    X = rng.uniform(-2, 2, size=(15, 1))
    y = rng.standard_normal(15)
    psi = basis_matrix(MH1, model.bases, X)
    resid = y - psi @ model.coeffs
    grad = -(2.0 / 15) * (psi.T @ resid)  # dL/dc
    h = 1e-6
    for j in range(3):
        c0 = model.coeffs[j]
        model.coeffs[j] = c0 + h
        up = loss(model, X, y)
        model.coeffs[j] = c0 - h
        dn = loss(model, X, y)
        model.coeffs[j] = c0
        fd = (up - dn) / (2 * h)
        assert abs(fd - grad[j]) <= 1e-6 * max(1.0, abs(fd))


def test_small_step_never_increases_loss():
    # one step with lr = 1 / (2 * lambda_max(Gram)) must not increase the
    # quadratic loss; Gram eigenvalues from an independent eigensolver
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        idx = {(int(rng.integers(0, 3)), int(rng.integers(-2, 3)))
               for _ in range(k)}
        model = wm(sorted(idx), rng.standard_normal(len(idx)))
        X = rng.uniform(-2, 2, size=(12, 1))
        y = rng.standard_normal(12)
        psi = basis_matrix(MH1, model.bases, X)
        lam = np.linalg.eigvalsh(psi.T @ psi / 12).max()
        before = loss(model, X, y)
        one_step(model, X, y, 1.0 / (2.0 * lam))
        assert loss(model, X, y) <= before + 1e-12


def test_append_bases_keeps_predictions():
    model = wm([(0, 0)], [1.5])
    X = np.linspace(-1, 1, 5).reshape(-1, 1)
    before = model.predict(X)
    model.append_bases(line(1, [3]))
    assert np.allclose(model.predict(X), before)
    assert model.coeffs[-1] == 0.0


def test_save_load_round_trip(tmp_path):
    model = wm([(0, 0), (2, 1)], [0.25, -1.0])
    path = tmp_path / "model.json"
    model.save(path)
    back = WaveletModel.load(path)
    assert np.array_equal(back.bases, model.bases)
    assert np.array_equal(back.coeffs, model.coeffs)
    assert back.mother.family == model.mother.family
    assert back.scaling is None and "scaling" not in model.to_dict()
    model.scaling = {"feature_range": [0.0, 1.0], "input_min": [-2.0],
                     "input_max": [3.0], "target_min": 1.0,
                     "target_max": 4.0}
    model.save(path)
    assert WaveletModel.load(path).scaling == model.scaling


def test_save_writes_one_line_that_loads_back_bit_for_bit(tmp_path):
    # coefficients whose shortest repr takes all 17 digits, a subnormal,
    # extremes and both zeros; every basis kind, and a scaling record
    rng = np.random.default_rng(11)
    grid = [(m, (n, -n), kind) for m in range(3) for n in range(-3, 4)
            for kind in BasisKind]
    bases = basis_set(*[list(column) for column in zip(*grid)])
    coeffs = rng.standard_normal(len(bases)) * 10.0 ** rng.integers(
        -12, 12, len(bases))
    coeffs[:4] = [5e-324, -1.7976931348623157e308, 0.0, -0.0]
    model = WaveletModel(MotherWavelet.sinc(2), bases, coeffs,
                         {"input_min": [-2.0, 0.1], "target_max": 4.0})
    path = tmp_path / "model.json"
    model.save(path)
    text = path.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    back = WaveletModel.load(path)
    assert np.array_equal(back.bases, model.bases)
    assert back.bases.dtype == model.bases.dtype
    assert np.array_equal(back.coeffs, model.coeffs)
    assert np.array_equal(np.signbit(back.coeffs), np.signbit(coeffs))
    assert back.mother == model.mother and back.scaling == model.scaling


# a model.json written while each basis was an object of its own, by
# ``fit --preset example1-d1 --seed 7 --n-samples 60 --max-iters 1200
# --max-resolution 3 --zeta 1e-4``: both kinds at m = 2 and the 20
# details an expand phase added at m = 3
SAVED_MODEL = Path(__file__).with_name("model_seed7.json")


def test_a_saved_model_file_loads_and_writes_back_its_bytes(tmp_path):
    entries = json.loads(SAVED_MODEL.read_text())["bases"]
    model = WaveletModel.load(SAVED_MODEL)
    assert model.bases.tolist() == [
        [BasisKind[e["kind"].upper()], e["m"], *e["n"]] for e in entries]
    assert model.coeffs.tolist() == [e["c"] for e in entries]
    assert model.mother == MotherWavelet.sinc(2) and model.scaling is None
    path = tmp_path / "model.json"
    model.save(path)
    assert path.read_bytes() == SAVED_MODEL.read_bytes()


# --------------------------------------------------------------- training

def _easy_problem(rng=None):
    rng = rng or np.random.default_rng(0)
    model = wm([(0, 0), (0, 1)])
    X = rng.uniform(-2, 3, size=(40, 1))
    target = wm([(0, 0), (0, 1)], [0.8, -0.5])
    return model, X, target.predict(X)


def test_train_achieved_before_first_step():
    model, X, y = _easy_problem()
    model.coeffs[:] = [0.8, -0.5]
    log = TrainLog()
    st = train_to_plateau(model, Design(X, y), 0.1, 1e-9, 1e-6, 100, log)
    assert st is TrainStatus.ACHIEVED
    assert log.records == []  # no step taken


def test_train_reaches_closed_form_solution():
    rng = np.random.default_rng(4)
    model = wm([(0, 0)])
    X = rng.uniform(-2, 2, size=(30, 1))
    y = rng.standard_normal(30)
    psi = basis_matrix(MH1, model.bases, X)[:, 0]
    best = float(psi @ y / (psi @ psi))
    st = train_to_plateau(model, Design(X, y), 0.2, 1e-14, 1e-12, 50_000,
                          TrainLog())
    assert st is TrainStatus.PLATEAU  # generic data cannot hit loss 1e-12
    assert model.coeffs[0] == pytest.approx(best, abs=1e-4)


def test_train_budget_status():
    model, X, y = _easy_problem()
    st = train_to_plateau(model, Design(X, y), 1e-5, 1e-15, 1e-12, 3,
                          TrainLog())
    assert st is TrainStatus.BUDGET


def test_train_infinite_zeta_stops_in_two_iterations():
    model, X, y = _easy_problem()
    log = TrainLog()
    st = train_to_plateau(model, Design(X, y), 1e-4, math.inf, 1e-12, 100,
                          log)
    assert st is TrainStatus.PLATEAU
    assert log.last_iteration == 2


def test_train_divergence_restores_last_good():
    model, X, y = _easy_problem()
    with pytest.raises(TrainingDivergence) as got:
        train_to_plateau(model, Design(X, y), 1e6, 1e-12, 1e-12, 1000,
                         TrainLog())
    assert np.all(np.isfinite(model.coeffs))
    # p = 2 <= N = 40 runs the Gram form; the residual form must diverge
    # at the same step and restore the same coefficients
    ref, _, _ = _easy_problem()
    with pytest.raises(TrainingDivergence) as want:
        _residual_train(ref, X, y, 1e6, 1e-12, 1e-12, 1000)
    assert str(got.value) == str(want.value)
    np.testing.assert_allclose(model.coeffs, ref.coeffs, rtol=1e-9)


def test_log_csv_formats(tmp_path):
    log = TrainLog()
    log.append(0.125, 3)
    log.append(0.0625, 3)
    log.add_event("expand", 2, 4)
    p1, p2 = tmp_path / "log.csv", tmp_path / "events.csv"
    log.to_csv(p1)
    log.events_to_csv(p2)
    lines = p1.read_text().splitlines()
    assert lines[0] == "iter,loss,n_params,elapsed_ms"
    assert lines[1].startswith("1,0.125,3,")
    assert p2.read_text().splitlines() == ["iter,event,resolution,added",
                                           "2,expand,2,4"]


def test_log_csv_writes_the_bytes_csv_writer_writes(tmp_path):
    # losses whose repr takes an exponent or all 17 digits, and clock
    # readings past a second
    log = TrainLog()
    rng = np.random.default_rng(3)
    for loss_value in [0.125, 1e-300, 3.0, 2.5e16] + list(
            rng.uniform(0.0, 1.0, 50) * 10.0 ** rng.integers(-9, 9, 50)):
        log.append(float(loss_value), int(rng.integers(1, 5000)))
    log.records[-1] = log.records[-1][:3] + (123456.7891,)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(["iter", "loss", "n_params", "elapsed_ms"])
    for it, lv, np_, ms in log.records:
        w.writerow([it, repr(lv), np_, f"{ms:.3f}"])
    assert path.read_bytes() == want.getvalue().encode()


def test_a_log_fork_goes_on_apart_with_its_clock_running_on():
    log = TrainLog()
    log.append(0.5, 3)
    log.add_event("seed", 1, 3)
    fork = log.fork()
    assert fork.records == log.records and fork.events == log.events
    fork.append(0.25, 4)
    fork.add_event("expand", 1, 1)
    assert (len(log.records), len(log.events)) == (1, 1)
    # the fork's clock reads on from the last record, not from the fork
    assert fork.records[1][3] >= log.records[0][3]
    assert fork.records[1][3] - log.records[0][3] < 1000.0


def test_add_event_stamps_the_last_iteration():
    log = TrainLog()
    log.add_event("seed", 1, 10)
    for loss_value in (0.5, 0.4, 0.3, 0.25):
        log.append(loss_value, 10)
    log.add_event("expand", 1, 3)
    log.add_event("escalate", 2, 6)
    assert log.events == [(0, "seed", 1, 10), (4, "expand", 1, 3),
                          (4, "escalate", 2, 6)]


def test_training_is_deterministic():
    runs = []
    for _ in range(2):
        model, X, y = _easy_problem(np.random.default_rng(17))
        log = TrainLog()
        train_to_plateau(model, Design(X, y), 0.05, 1e-9, 1e-9, 500, log)
        runs.append([(it, ls, np_) for it, ls, np_, _ in log.records])
    assert runs[0] == runs[1]


# ------------------------------------------------------------------- step

def _stepping_problem(rows, target):
    """Two elements on ``rows`` samples of a constant ``target``, synced:
    the Gram form for 40 rows (p <= N), the residual form for one."""
    rng = np.random.default_rng(rows)
    model = wm([(0, 0), (0, 1)], [0.3, -0.2])
    design = Design(rng.uniform(-1.0, 2.0, size=(rows, 1)),
                    np.full(rows, target))
    design.sync(model)
    assert (design.gram is None) == (rows < model.n_params)
    return model, design


def _assert_step_refused(model, design, lr, direction):
    # a log that holds six steps: the refused one would be the seventh
    log = TrainLog()
    for k in range(6):
        log.append(1.0 / (k + 1), model.n_params)
    records = list(log.records)
    before, kept = model.coeffs, model.coeffs.copy()
    with pytest.raises(TrainingDivergence,
                       match="^training diverged at iteration 7$"):
        design.step(model, lr, direction, log)
    assert model.coeffs is before
    np.testing.assert_array_equal(model.coeffs, kept)
    assert log.records == records


@pytest.mark.parametrize("rows", [40, 1], ids=["gram", "residual"])
def test_step_commits_and_returns_the_next_objective(rows):
    model, design = _stepping_problem(rows, 1.0)
    direction, _ = design.objective(model.coeffs)
    want = model.coeffs + 0.01 * 2.0 / rows * direction
    log = TrainLog()
    got = design.step(model, 0.01, direction, log)
    np.testing.assert_array_equal(model.coeffs, want)
    want_direction, want_loss = design.objective(want)
    np.testing.assert_array_equal(got[0], want_direction)
    assert got[1] == want_loss
    # the committed step is the log's first record
    assert [r[:3] for r in log.records] == [(1, want_loss, model.n_params)]


@pytest.mark.parametrize("rows", [40, 1], ids=["gram", "residual"])
def test_step_refuses_a_non_finite_loss(rows):
    # a huge target and a tiny rate: the stepped coefficients stay small
    # while the loss at them overflows
    lr = 1e-200
    with np.errstate(over="ignore"):
        model, design = _stepping_problem(rows, 1e200)
        direction, _ = design.objective(model.coeffs)
        c = model.coeffs + lr * 2.0 / rows * direction
        assert np.max(np.abs(c)) < 1e3
        assert not np.isfinite(design.objective(c)[1])
        _assert_step_refused(model, design, lr, direction)


@pytest.mark.parametrize("rows", [40, 1], ids=["gram", "residual"])
def test_step_refuses_coefficients_past_the_limit(rows):
    # a step to about twice the limit, where the loss is still finite
    model, design = _stepping_problem(rows, 1.0)
    direction = np.ones(model.n_params)
    lr = DIVERGENCE_LIMIT * rows
    c = model.coeffs + lr * 2.0 / rows * direction
    assert np.max(np.abs(c)) > DIVERGENCE_LIMIT
    assert np.isfinite(design.objective(c)[1])
    _assert_step_refused(model, design, lr, direction)


# ------------------------------------------------- Gram vs residual form

def _residual_train(model, X, y, lr, zeta, epsilon, max_iters, log=None):
    """Reference: the plateau loop on the residual form r = y - psi c,
    with the same exits, checks and log records as ``train_to_plateau``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    psi = basis_matrix(model.mother, model.bases, X)
    scale = lr * 2.0 / y.size
    resid = y - psi @ model.coeffs
    current = float(np.mean(resid * resid))
    if current <= epsilon:
        return TrainStatus.ACHIEVED
    offset = log.last_iteration if log is not None else 0
    for k in range(1, max_iters + 1):
        last_good = model.coeffs.copy()
        model.coeffs += scale * (psi.T @ resid)
        resid = y - psi @ model.coeffs
        new = float(np.mean(resid * resid))
        if not np.isfinite(new):
            check_finite(model, offset + k, last_good)
            model.coeffs = last_good
            raise TrainingDivergence(
                f"training diverged at iteration {offset + k}")
        check_finite(model, offset + k, last_good)
        if log is not None:
            log.append(new, model.n_params)
        if new <= epsilon:
            return TrainStatus.ACHIEVED
        if k >= 2 and abs(new - current) <= zeta:
            return TrainStatus.PLATEAU
        current = new
    return TrainStatus.BUDGET


# distinct 1-D elements whose centers k / 2^m lie in the sample range
_POOL = [(m, k) for m in range(3) for k in range(-(2 ** m), 3 * 2 ** m + 1)]


def _random_problem(seed, p, n, lr_fraction):
    """p random elements, n samples on [-1, 3], targets from a random
    expansion plus noise at 1% of the column energy, random start
    coefficients, and lr = lr_fraction / lambda_max(psi^T psi / n)."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(_POOL), size=p, replace=False)
    model = wm([_POOL[i] for i in sorted(picks)], rng.standard_normal(p))
    X = rng.uniform(-1.0, 3.0, size=(n, 1))
    psi = basis_matrix(MH1, model.bases, X)
    noise_sd = 0.1 * np.sqrt(np.mean(psi * psi))
    y = psi @ rng.standard_normal(p) + noise_sd * rng.standard_normal(n)
    lam = np.linalg.norm(psi, 2) ** 2 / n
    return model, X, y, lr_fraction / lam


def _compare_forms(model, X, y, lr, zeta, epsilon, max_iters):
    ref = WaveletModel(model.mother, model.bases, model.coeffs.copy())
    log, ref_log = TrainLog(), TrainLog()
    status = train_to_plateau(model, Design(X, y), lr, zeta, epsilon,
                              max_iters, log)
    ref_status = _residual_train(ref, X, y, lr, zeta, epsilon, max_iters,
                                 ref_log)
    assert status is ref_status
    assert [r[0] for r in log.records] == [r[0] for r in ref_log.records]
    tol = 1e-12 * max(1.0, float(y @ y) / y.size)
    for got, want in zip(log.records, ref_log.records):
        assert abs(got[1] - want[1]) <= tol
    assert (np.linalg.norm(model.coeffs - ref.coeffs)
            <= 1e-9 * np.linalg.norm(ref.coeffs))
    return status, log


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30),
       st.sampled_from(["under", "equal", "over"]), st.floats(0.02, 0.15),
       st.integers(1, 25))
def test_gram_form_matches_residual_form(seed, n, shape, lr_fraction,
                                         max_iters):
    # zeta = 0 and a tiny epsilon: both forms take exactly max_iters steps
    rng = np.random.default_rng(seed)
    p = {"under": int(rng.integers(1, n)), "equal": n,
         "over": int(rng.integers(n + 1, min(2 * n, len(_POOL)) + 1))}[shape]
    model, X, y, lr = _random_problem(seed, p, n, lr_fraction)
    status, log = _compare_forms(model, X, y, lr, 0.0, 1e-300, max_iters)
    assert status is TrainStatus.BUDGET
    assert log.last_iteration == max_iters


@pytest.mark.parametrize("seed,p,n", [(1, 3, 40), (2, 12, 30), (3, 20, 20),
                                      (4, 25, 12)])
def test_gram_form_matches_residual_exits(seed, p, n):
    # a real plateau gap: the same exit, at the same iteration
    model, X, y, lr = _random_problem(seed, p, n, 0.3)
    status, log = _compare_forms(model, X, y, lr, 1e-6 * float(y @ y) / n,
                                 1e-300, 20_000)
    assert status is TrainStatus.PLATEAU
    assert log.last_iteration > 2


def _grow_both_ways(monkeypatch, grow):
    """Run ``grow() -> (result, log)`` with run_growth training by
    ``train_to_plateau`` and then by ``_residual_train``; returns
    ``(result, log, shapes)`` of each, ``shapes`` being the basis size of
    every training call."""
    runs = []
    for train in (train_to_plateau, _residual_train):
        shapes = []

        # run_growth passes its design; the reference builds psi itself
        def spy(model, design, lr, zeta, epsilon, max_iters, log,
                train=train, shapes=shapes):
            assert isinstance(design, Design)
            shapes.append(model.n_params)
            data = ((design,) if train is train_to_plateau
                    else (design.X, design.y))
            return train(model, *data, lr, zeta, epsilon, max_iters, log)

        monkeypatch.setattr(cwnn.growth, "train_to_plateau", spy)
        runs.append((*grow(), shapes))
    monkeypatch.undo()
    return runs


def _assert_same_growth(got, want):
    (res, log, shapes), (ref, ref_log, ref_shapes) = got, want
    assert shapes == ref_shapes
    assert res.status is ref.status
    assert log.events == ref_log.events
    assert [r[0] for r in log.records] == [r[0] for r in ref_log.records]
    losses = np.array([r[1] for r in log.records])
    ref_losses = np.array([r[1] for r in ref_log.records])
    assert np.max(np.abs(losses - ref_losses)) <= 1e-12
    np.testing.assert_allclose(res.model.coeffs, ref.model.coeffs, rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(ref.model.coeffs)))


def _growth_config(**kw):
    base = dict(epsilon=1e-4, zeta=1e-5, mu=1 / 2, learning_rate=0.03,
                max_resolution=3, max_iters=20_000)
    base.update(kw)
    return GrowthConfig(**base)


def _start_pool():
    """An empty pool a run seeds at m = 1 over [0, 1] with a one-span
    margin, clamped at 0."""
    return WaveletPool(MH1, build_center_grid(1, (0.0,), (1.0,), margin=1.0,
                                              clamp_low=(0.0,)))


def test_growth_crossing_sample_count_matches_residual_form(monkeypatch):
    # 12 samples: the pool grows from 10 to 12 elements (Gram form, p <= N)
    # and then past 12 (residual form) within one run
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, size=(12, 1))
    y = np.sin(12.0 * X[:, 0]) * np.exp(-X[:, 0])
    config = _growth_config()

    def grow():
        res = run_growth(_start_pool(), X, y, config)
        return res, res.log

    got, want = _grow_both_ways(monkeypatch, grow)
    shapes = got[2]
    assert min(shapes) < 12 and 12 in shapes and max(shapes) > 12
    _assert_same_growth(got, want)


@pytest.mark.parametrize("rows", ["stacked", "replaced"])
def test_growth_resume_on_new_rows_matches_residual_form(monkeypatch, rows):
    # a resumed pool trains on columns built on the rows it is given: the
    # old rows plus new ones (as the CLI's resume does), or as many rows,
    # all new, where a stale column would still have the right shape
    rng = np.random.default_rng(5)
    X1 = rng.uniform(0.0, 0.5, size=(120, 1))
    X2 = rng.uniform(0.5, 1.0, size=(120, 1))
    X = np.vstack([X1, X2]) if rows == "stacked" else X2
    config = _growth_config(epsilon=1e-3, zeta=5e-6, learning_rate=0.05,
                            max_resolution=4)

    def target(X_):
        return np.sin(12.0 * X_[:, 0]) * np.exp(-X_[:, 0])

    resumed_at = []

    def grow():
        first = run_growth(_start_pool(), X1, target(X1), config)
        resumed_at.append(len(first.log.events))
        return run_growth(first, X, target(X), config), first.log

    got, want = _grow_both_ways(monkeypatch, grow)
    # the resumed run grows, so its design syncs more than once
    assert len(got[1].events) > resumed_at[0] + 1
    _assert_same_growth(got, want)


# ------------------------------------------------ design kept across phases

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["mexican_hat", "sinc"]),
       st.integers(1, 2), st.integers(2, 24),
       st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_design_sync_matches_full_build(seed, family, d, n, chunks):
    # random append sequences of mixed kinds and resolutions; with up to
    # 54 bases on 2 to 24 samples, p crosses N in many draws
    rng = np.random.default_rng(seed)
    mother = getattr(MotherWavelet, family)(d)
    cand = sorted({(int(rng.integers(0, 3)),
                    tuple(int(v) for v in rng.integers(-3, 5, size=d)),
                    int(rng.integers(0, 2)))
                   for _ in range(sum(chunks))})
    order = [cand[i] for i in rng.permutation(len(cand))]
    X = rng.uniform(-1.0, 3.0, size=(n, d))
    y = rng.standard_normal(n)
    model = WaveletModel.zeros(mother, empty(mother))
    design = Design(X, y)
    crossed = False
    start = 0
    for size in chunks:
        part = order[start:start + size]
        model.append_bases(basis_set([m for m, _, _ in part],
                                     np.reshape([n for _, n, _ in part],
                                                (-1, d)),
                                     [kind for _, _, kind in part]))
        start += size
        design.sync(model)
        psi = basis_matrix(mother, model.bases, X)
        assert np.array_equal(np.hstack(design.blocks), psi)
        crossed = crossed or model.n_params > n
        if crossed:
            assert design.gram is None and design.b is None
            continue
        gram, b = psi.T @ psi, psi.T @ y
        assert (np.linalg.norm(design.gram - gram)
                <= 1e-12 * np.linalg.norm(gram))
        assert np.linalg.norm(design.b - b) <= 1e-12 * np.linalg.norm(b)
        assert design.yy == float(y @ y)


def _synced(mother, X, y, sizes):
    """A design of ``X`` and ``y`` synced to a model grown by lattice runs
    of the given sizes, wavelets and companions taking turns."""
    model = WaveletModel.zeros(mother, empty(mother))
    design = Design(X, y)
    for k, size in enumerate(sizes):
        kind = (BasisKind.WAVELET, BasisKind.SCALING)[k % 2]
        model.append_bases(line(3 + k, range(-2, size - 2), kind))
        design.sync(model)
    return model, design


@pytest.mark.parametrize("family", ["mexican_hat", "sinc"])
def test_a_tall_design_sums_its_gram_border_by_row_chunk(family,
                                                         monkeypatch):
    # 3 * 4096 + 5 rows are four row chunks, and each sync past the first
    # borders G on the tile pool (N * p cells exceed one block).  G and b
    # are the same bytes on one CPU and on two, and each entry is within
    # the rounding of a dot product of psi^T psi and psi^T y, 16 eps *
    # sum_i |psi_ij psi_ik| (or |psi_ij y_i|), the bound of the psi^T y
    # test in test_wavelets.py
    mother = getattr(MotherWavelet, family)(1)
    rows = 3 * cwnn.wavelets._BLOCK_ROWS + 5
    assert len(cwnn.wavelets._row_chunks(rows)) == 4
    rng = np.random.default_rng(31)
    X = rng.uniform(0.0, 1.0, size=(rows, 1))
    y = np.sin(7.0 * X[:, 0]) + 0.1 * rng.standard_normal(rows)
    pool, pools = cwnn.wavelets.ThreadPoolExecutor, []
    monkeypatch.setattr(cwnn.wavelets, "ThreadPoolExecutor",
                        lambda workers: pools.append(workers) or pool(workers))
    got = []
    for cpus in (1, 2):
        monkeypatch.setattr(cwnn.wavelets, "_cpu_count", lambda: cpus)
        model, design = _synced(mother, X, y, (12, 10, 20))
        got.append((design.gram.tobytes(), design.b.tobytes()))
    assert got[0] == got[1]
    assert pools == [2, 2]
    psi = basis_matrix(mother, model.bases, X)
    eps = np.finfo(float).eps
    assert np.all(np.abs(design.gram - psi.T @ psi)
                  <= 16 * eps * (np.abs(psi).T @ np.abs(psi)))
    assert np.all(np.abs(design.b - psi.T @ y)
                  <= 16 * eps * (np.abs(psi).T @ np.abs(y)))


@pytest.mark.parametrize("rows", [500, cwnn.wavelets._BLOCK_ROWS])
def test_a_design_of_one_row_chunk_borders_with_the_whole_products(rows):
    # up to _BLOCK_ROWS rows, each sync borders G and b with the products
    # over all rows, bit for bit as before the chunked sums
    rng = np.random.default_rng(32)
    X = rng.uniform(0.0, 1.0, size=(rows, 1))
    y = np.cos(5.0 * X[:, 0])
    _, design = _synced(MH1, X, y, (12, 9, 20))
    gram, b = np.empty((0, 0)), np.empty(0)
    for i, new in enumerate(design.blocks):
        cross = np.vstack([blk.T @ new for blk in design.blocks[:i]]
                          or [new[:0]])
        gram = np.block([[gram, cross], [cross.T, new.T @ new]])
        b = np.concatenate([b, new.T @ y])
    assert design.gram.tobytes() == gram.tobytes()
    assert design.b.tobytes() == b.tobytes()


def test_design_takes_its_first_block_without_a_copy(monkeypatch):
    # the first sync's columns are psi itself, so a wide probe level
    # holds one N x p matrix, not two
    blocks = []

    def recording(mother, bases, X_):
        blocks.append(basis_matrix(mother, bases, X_))
        return blocks[-1]

    monkeypatch.setattr(cwnn.model, "basis_matrix", recording)
    model = wm([(0, 0), (1, 1)])
    design = Design(np.linspace(0.0, 1.0, 3).reshape(-1, 1), np.ones(3))
    design.sync(model)
    assert len(design.blocks) == 1 and design.blocks[0] is blocks[0]
    # every later sync keeps its block as evaluated too, in both forms:
    # the third sync takes p past N = 3
    for m in (2, 3):
        model.append_bases(line(m, [1]))
        design.sync(model)
    assert design.gram is None
    assert len(design.blocks) == len(blocks) == 3
    assert all(got is want for got, want in zip(design.blocks, blocks))


def test_design_sync_allocates_its_new_block_not_a_copy():
    # 5 000 rows of a Gram-form design: two syncs of 150 columns hold
    # 12 MB, and the third adds 5 columns.  Joining the blocks would
    # allocate all 12 MB again; a sync may take only the new block, the
    # evaluation scratch bound stated in wavelets.py, and the Gram
    # border, which fits well inside that bound at these sizes
    rows = 5000
    X = np.linspace(-2.0, 2.0, rows).reshape(-1, 1)
    design = Design(X, np.sin(3.0 * X[:, 0]))
    model = WaveletModel.zeros(MH1, empty(MH1))
    for lo, hi in ((0, 150), (150, 300)):
        model.append_bases(line(6, range(lo - 150, hi - 150)))
        design.sync(model)
    held = sum(blk.nbytes for blk in design.blocks)
    model.append_bases(line(2, range(5)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        design.sync(model)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert design.gram is not None and len(design.blocks) == 3
    new = design.blocks[-1].nbytes
    assert peak < held
    assert peak <= new + 4 * cwnn.wavelets._BLOCK_ELEMS * 8


def test_a_design_fork_shares_its_columns_and_syncs_apart():
    # the fork holds the parent's blocks, G and b themselves; its syncs
    # add blocks and border G in the fork alone, in either form
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, size=(6, 1))
    model = wm([(0, 0), (0, 1)], [0.5, -0.25])
    design = Design(X, np.sin(3.0 * X[:, 0]))
    design.sync(model)
    gram, b, blocks = design.gram, design.b, list(design.blocks)
    fork = design.fork()
    assert fork.blocks is not design.blocks and len(fork.blocks) == 1
    assert fork.blocks[0] is blocks[0]
    assert fork.gram is gram and fork.b is b
    assert np.array_equal(fork.bases, design.bases)
    grown = WaveletModel(MH1, model.bases, model.coeffs.copy())
    for more in (line(1, [0, 1]), line(2, range(4))):
        grown.append_bases(more)
        fork.sync(grown)
    # 8 columns on 6 rows: the fork runs the residual form
    assert fork.gram is None and len(fork.blocks) == 3
    assert len(design.blocks) == 1 and design.blocks[0] is blocks[0]
    assert np.array_equal(design.bases, model.bases)
    assert design.gram is gram and design.b is b and gram.shape == (2, 2)
    direction, value = fork.objective(grown.coeffs)
    assert value == pytest.approx(loss(grown, X, design.y), rel=1e-12)


def test_design_rejects_bases_it_was_not_built_on():
    model = wm([(0, 0), (1, 1)])
    design = Design(np.zeros((3, 1)), np.ones(3))
    design.sync(model)
    with pytest.raises(ValueError):
        design.sync(wm([(1, 1), (0, 0)]))


@pytest.mark.parametrize("n_x, n_y", [(600, 500), (500, 600)])
def test_a_design_refuses_targets_of_another_row_count(n_x, n_y):
    # with 600 input rows and 500 targets a growth run trained on the
    # first 500 rows in the Gram form and returned without an error; a
    # refused run leaves its pool unseeded
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, size=(n_x, 1))
    y = np.sin(6.0 * rng.uniform(0.0, 1.0, size=n_y))
    counts = f"X has {n_x} rows and y {n_y} values"
    with pytest.raises(ValueError, match=counts):
        Design(X, y)
    config = GrowthConfig(epsilon=1e-6, zeta=1e-10, mu=1 / 2,
                          learning_rate=0.05, max_resolution=3,
                          max_iters=200)
    for run in (run_growth, cwnn.growth.run_baseline_wnn):
        pool = _start_pool()
        with pytest.raises(ValueError, match=counts):
            run(pool, X, y, config)
        assert pool.n_params == 0 and pool.log.events == []


def test_growth_evaluates_each_column_once(monkeypatch):
    # a multi-phase run evaluates N cells per basis, each exactly once
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 1.0, size=(200, 1))
    y = np.sin(12.0 * X[:, 0]) * np.exp(-X[:, 0])
    config = GrowthConfig(epsilon=5e-3, zeta=5e-6, mu=1 / 3,
                          learning_rate=0.05, max_resolution=4,
                          max_iters=20_000)
    cells = []

    def counting(mother, bases, X_):
        out = basis_matrix(mother, bases, X_)
        cells.append(out.size)
        return out

    monkeypatch.setattr(cwnn.model, "basis_matrix", counting)
    res = run_growth(_start_pool(), X, y, config)
    assert res.status is TrainStatus.ACHIEVED
    assert sum(e[1] != "seed" for e in res.log.events) >= 2
    assert len(cells) >= 3
    assert sum(cells) == y.size * res.n_params

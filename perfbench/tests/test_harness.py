"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from layers import PER_LAYER, TARGETS, pass_metrics  # noqa: E402
from spans import (Recorder, Span, Target, concurrent_overlap,  # noqa: E402
                   covered_length, self_times, summarize, traced)
from workloads import WORKLOADS, Op, counts_non_increasing  # noqa: E402


def span(sid, name, parent, start, end, **counts):
    sp = Span(sid, name, parent, start, end)
    sp.counts.update(counts)
    return sp


# root 0..10 with a nested chain and two children that overlap in time,
# as two worker threads would
TREE = [
    span(0, "cli.main", None, 0.0, 10.0),
    span(1, "growth.run_growth", 0, 1.0, 4.0),
    span(2, "wavelets.basis_matrix", 1, 1.5, 2.0, cells=6),
    span(3, "model.train_to_plateau", 1, 2.0, 3.5, iters=5),
    span(4, "wavelets.basis_matrix", 3, 2.5, 3.0, cells=4),
    span(5, "growth.run_growth", 0, 3.0, 6.0),
    span(6, "growth.run_growth", 5, 3.5, 4.5),
]


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered_length([(0, 4), (1, 2)]) == 4.0


def test_self_time_subtracts_union_of_children():
    selfs = self_times(TREE)
    assert selfs[0] == pytest.approx(10.0 - 5.0)   # children cover 1..6
    assert selfs[1] == pytest.approx(3.0 - 2.0)    # 1.5..3.5 covered
    assert selfs[2] == pytest.approx(0.5)
    assert selfs[3] == pytest.approx(1.5 - 0.5)
    assert selfs[5] == pytest.approx(3.0 - 1.0)
    # the overlapping siblings count 1..4 and 3..6 twice over 3..4
    assert concurrent_overlap(TREE) == pytest.approx(1.0)
    total = sum(selfs.values())
    assert total - concurrent_overlap(TREE) == pytest.approx(10.0)


def test_summarize_counts_nested_same_name_once():
    totals = summarize(TREE)
    rg = totals["growth.run_growth"]
    assert rg.calls == 3
    assert rg.s == pytest.approx(3.0 + 3.0)       # span 6 sits inside 5
    assert rg.self_s == pytest.approx(1.0 + 2.0 + 1.0)
    bm = totals["wavelets.basis_matrix"]
    assert (bm.calls, bm.counts["cells"]) == (2, 10)
    assert bm.self_s == pytest.approx(1.0)


def test_pass_metrics_derive_rates_and_zero_for_missing_layers():
    m = pass_metrics(summarize(TREE))
    assert set(m) == {name for name, _ in PER_LAYER} - {
        "cli.import_s", "wavelets.mother_setup_s", "trace.overhead_s"}
    assert m["wavelets.basis_matrix.cells"] == 10
    assert m["wavelets.basis_matrix.ns_per_cell"] == pytest.approx(1e8)
    assert m["model.train_to_plateau.iters"] == 5
    assert m["model.train_to_plateau.us_per_iter"] == pytest.approx(2e5)
    assert m["diagnostics.inner_product.calls"] == 0
    assert m["quadrature.adaptive_integral.s"] == 0.0


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner(x):
        time.sleep(0.001)
        return [x] * x

    a.inner = inner
    b.inner = inner           # "from .a import inner" in another module
    b.outer = lambda x: b.inner(x) + b.inner(1)
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


@pytest.fixture
def fakepkg():
    modules = _fake_package()
    sys.modules.update(modules)
    try:
        yield modules
    finally:
        for name in modules:
            sys.modules.pop(name)


def test_wrapping_reaches_every_importer_and_is_undone(fakepkg):
    a, b = fakepkg["fakepkg.a"], fakepkg["fakepkg.b"]
    inner = a.inner
    targets = [Target("fakepkg.a", "inner", "a.inner",
                      lambda args: lambda res: {"n": args["x"] + len(res)}),
               Target("fakepkg.b", "outer", "b.outer"),
               Target("fakepkg.a", "gone", "a.gone")]
    rec = Recorder()
    with traced(rec, targets) as unresolved:
        assert a.inner is b.inner is not inner
        with rec.root_span("root"):
            assert b.outer(3) == [3, 3, 3, 1]
    assert a.inner is inner and b.inner is inner
    # a target the package lacks is named, not silently dropped
    assert unresolved == ["fakepkg.a:gone"]
    names = [(sp.name, sp.parent) for sp in rec.spans]
    assert names == [("root", None), ("b.outer", 0), ("a.inner", 1),
                     ("a.inner", 1)]
    assert summarize(rec.spans)["a.inner"].counts["n"] == 6 + 2


def test_count_hook_that_no_longer_fits_raises(fakepkg):
    a = fakepkg["fakepkg.a"]
    inner = a.inner
    target = Target("fakepkg.a", "inner", "a.inner",
                    lambda args: lambda res: {"n": args["renamed"]})
    with traced(Recorder(), [target]):
        with pytest.raises(KeyError):
            a.inner(2)
    assert a.inner is inner


def test_targets_resolve_against_the_package():
    import cwnn.cli  # noqa: F401

    with traced(Recorder(), TARGETS) as unresolved:
        pass
    assert unresolved == []


def test_percentile_and_sample_count():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == pytest.approx(50.5)
    assert run.percentile(values, 99) == pytest.approx(99.01)
    assert run.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)
    summary = run.latency_summary([float(v) for v in range(2000)])
    assert summary["n"] == 2000
    assert summary["p50"] == pytest.approx(999.5)
    assert summary["p99"] == pytest.approx(1979.01)
    assert summary["beyond_p99"] == 20      # at least ten back the p99


def test_step_gaps_read_every_train_log(tmp_path):
    (tmp_path / "mu-2").mkdir()
    rows = "iter,loss,n_params,elapsed_ms\n1,0.5,3,1.000\n2,0.4,3,1.250\n"
    (tmp_path / "train_log.csv").write_text(rows + "3,0.3,3,2.000\n")
    (tmp_path / "mu-2" / "train_log.csv").write_text(rows)
    assert sorted(run.step_gaps_ms(str(tmp_path))) == pytest.approx(
        [0.25, 0.25, 0.75])


def test_failing_op_is_counted_and_the_pass_goes_on(tmp_path, capsys):
    import cwnn.cli

    ops = (Op("bad", ("fit", "--preset", "no-such-preset"), lambda s: []),
           Op("estimate", ("estimate-freq", "--preset", "example1-d1",
                           "--m-cap", "3"), lambda s: []))
    result = run.run_pass(cwnn.cli.main, ops, 7, str(tmp_path))
    bad, good = result.ops
    assert bad.failed and bad.exit_code == 2
    assert bad.problems == ["exit code 2"]
    assert not good.failed and good.exit_code == 0
    assert list(tmp_path.iterdir()) == []      # run directories removed


def test_failed_output_check_marks_op_failed(tmp_path):
    import cwnn.cli

    op = Op("estimate", ("estimate-freq", "--preset", "example1-d1",
                         "--m-cap", "3"), lambda s: ["m_init wrong"])
    result = run.run_op(cwnn.cli.main, op, 7, str(tmp_path / "ef"))
    assert result.exit_code == 0 and result.problems == ["m_init wrong"]


def test_overhead_pairs_leave_out_the_warm_up():
    def pass_of(seconds, traced, warmup=False):
        op = run.OpResult("op", seconds, 0, [])
        return run.PassResult([op], traced, warmup=warmup)

    passes = [pass_of(9.0, False, warmup=True), pass_of(4.0, False),
              pass_of(4.5, True), pass_of(5.0, False), pass_of(5.25, True)]
    # the last traced pass has an untraced neighbour on one side only
    assert run.overhead_pairs(passes) == [(4.5, 4.5), (5.0, 5.25)]
    # a traced pass right after the warm-up has no pair
    assert run.overhead_pairs(passes[:1] + passes[2:3]) == []


def test_sweep_trend_rule_allows_one_small_increase():
    assert counts_non_increasing([190, 178, 174, 170])
    assert counts_non_increasing([190, 178, 180, 170])
    assert not counts_non_increasing([190, 178, 174, 206])   # > 10% up
    assert not counts_non_increasing([170, 178, 174, 180])   # two increases


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # every listed workload is defined (`stream` is defined but not listed)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

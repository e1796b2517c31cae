"""What the traced run wraps in ``cwnn`` and the per-layer metrics it
derives from the spans of one pass.

Each target is a public function (or a method that does one layer's
work) named by the module that defines it; the wrapper is installed at
every ``cwnn`` module that imported it by name.  A target that a later
version of the package no longer has is named in the traced run's
report and result file, and the metrics it feeds read zero.
"""

from __future__ import annotations

import math

from spans import NameTotals, Target


def _cells(arguments):
    return lambda result: {"cells": int(getattr(result, "size", 0))}


def _train_iters(arguments):
    log = arguments.get("log")
    start = log.last_iteration if log is not None else 0
    return lambda result: {
        "iters": (log.last_iteration - start) if log is not None else 0}


def _added(arguments):
    return lambda result: {"added": len(result)}


def _points(arguments):
    order = int(arguments["order"])
    points = math.prod(int(p) * order for p in arguments["panels"])
    return lambda result: {"points": points}


TARGETS = (
    Target("cwnn.wavelets", "MotherWavelet.sinc", "wavelets.mother_built"),
    Target("cwnn.wavelets", "MotherWavelet.mexican_hat",
           "wavelets.mother_built"),
    # the sinc profile tabulation; the private class is what a new mother
    # spends its set-up on
    Target("cwnn.wavelets", "_SincRadialProfile.__init__",
           "wavelets.profile_tabulate"),
    Target("cwnn.wavelets", "basis_matrix", "wavelets.basis_matrix", _cells),
    Target("cwnn.wavelets", "children_centers", "wavelets.children_centers"),
    Target("cwnn.model", "train_to_plateau", "model.train_to_plateau",
           _train_iters),
    Target("cwnn.growth", "run_growth", "growth.run_growth"),
    Target("cwnn.growth", "run_baseline_wnn", "growth.run_baseline_wnn"),
    Target("cwnn.growth", "run_online", "growth.run_online"),
    Target("cwnn.growth", "select_high_energy", "growth.select_high_energy"),
    Target("cwnn.growth", "expand_into_next", "growth.expand_into_next",
           _added),
    Target("cwnn.frequency", "estimate_initial_resolution",
           "frequency.estimate_initial_resolution"),
    Target("cwnn.frequency", "estimate_subspace_energy",
           "frequency.estimate_subspace_energy"),
    Target("cwnn.diagnostics", "decay_report", "diagnostics.decay_report"),
    Target("cwnn.diagnostics", "inner_product", "diagnostics.inner_product"),
    Target("cwnn.quadrature", "adaptive_integral",
           "quadrature.adaptive_integral"),
    Target("cwnn.quadrature", "integrate_tensor",
           "quadrature.integrate_tensor", _points),
    Target("cwnn.datasets", "gen_example1", "datasets.gen"),
    Target("cwnn.datasets", "gen_example2_regions", "datasets.gen"),
    Target("cwnn.datasets", "gen_autoregression", "datasets.gen"),
    Target("cwnn.model", "WaveletModel.save", "cli.write"),
    Target("cwnn.model", "TrainLog.to_csv", "cli.write"),
    Target("cwnn.model", "TrainLog.events_to_csv", "cli.write"),
    Target("cwnn.frequency", "EnergyTrace.to_csv", "cli.write"),
    Target("cwnn.diagnostics", "DecayReport.to_csv", "cli.write"),
    Target("cwnn.cli", "_write_summary", "cli.write"),
)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("cli.import_s", "s"),
    ("wavelets.mother_setup_s", "s"),
    ("wavelets.mothers_built", "count"),
    ("wavelets.profile_tabulate.calls", "count"),
    ("wavelets.profile_tabulate.s", "s"),
    ("wavelets.basis_matrix.calls", "count"),
    ("wavelets.basis_matrix.self_s", "s"),
    ("wavelets.basis_matrix.cells", "count"),
    ("wavelets.basis_matrix.ns_per_cell", "ns"),
    ("model.train_to_plateau.calls", "count"),
    ("model.train_to_plateau.self_s", "s"),
    ("model.train_to_plateau.iters", "count"),
    ("model.train_to_plateau.us_per_iter", "us"),
    ("growth.run_growth.self_s", "s"),
    ("growth.run_baseline_wnn.self_s", "s"),
    ("growth.run_online.self_s", "s"),
    ("growth.select_high_energy.calls", "count"),
    ("growth.select_high_energy.s", "s"),
    ("growth.expand_into_next.calls", "count"),
    ("growth.expand_into_next.s", "s"),
    ("growth.expand_into_next.added", "count"),
    ("frequency.estimate_initial_resolution.s", "s"),
    ("frequency.estimate_subspace_energy.calls", "count"),
    ("frequency.estimate_subspace_energy.s", "s"),
    ("wavelets.children_centers.calls", "count"),
    ("wavelets.children_centers.s", "s"),
    ("diagnostics.decay_report.s", "s"),
    ("diagnostics.inner_product.calls", "count"),
    ("quadrature.adaptive_integral.calls", "count"),
    ("quadrature.adaptive_integral.s", "s"),
    ("quadrature.integrate_tensor.calls", "count"),
    ("quadrature.integrate_tensor.points", "count"),
    ("datasets.gen_s", "s"),
    ("cli.write_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced pass from ``spans.summarize``
    output.  The set-up probe and overhead metrics are added by the
    caller."""
    def row(name) -> NameTotals:
        return totals.get(name) or NameTotals()

    bm = row("wavelets.basis_matrix")
    tp = row("model.train_to_plateau")
    out = {
        "wavelets.mothers_built": row("wavelets.mother_built").calls,
        "wavelets.basis_matrix.cells": bm.counts["cells"],
        "wavelets.basis_matrix.ns_per_cell":
            _ratio(bm.self_s * 1e9, bm.counts["cells"]),
        "model.train_to_plateau.iters": tp.counts["iters"],
        "model.train_to_plateau.us_per_iter":
            _ratio(tp.self_s * 1e6, tp.counts["iters"]),
        "growth.expand_into_next.added":
            row("growth.expand_into_next").counts["added"],
        "quadrature.integrate_tensor.points":
            row("quadrature.integrate_tensor").counts["points"],
        "datasets.gen_s": row("datasets.gen").s,
        "cli.write_s": row("cli.write").s,
    }
    # the rest read one span name's calls, inclusive or self time
    for name, _ in PER_LAYER:
        span_name, _, field = name.rpartition(".")
        if name not in out and field in ("calls", "s", "self_s"):
            out[name] = getattr(row(span_name), field)
    return out


def layer_of(span_name: str) -> str:
    """Module part of a span name (``wavelets.basis_matrix``: ``wavelets``)."""
    return span_name.split(".", 1)[0]

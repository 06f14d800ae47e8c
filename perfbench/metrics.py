"""Metric tables and the arithmetic that turns a run record into metrics.

End-to-end metrics come from untraced passes; per-layer metrics from the
traced passes of a ``--trace 1`` run, as self time (a span's duration minus
the union of its children) or exact counts, averaged per traced pass.
"""

from __future__ import annotations

import math
import statistics

from tracing import self_times

# name, unit, better, bound; README.md defines each one
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_ms_p50", "ms", "lower", 0.25),
    ("item_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# name, unit, the end-to-end metric it should move (and where)
PER_LAYER = [
    ("groups.rep_s", "s", "setup_s, all workloads; a control that stays near zero"),
    ("tensors.build_site_tensor_s", "s", "setup_s on nonabelian-2x1"),
    ("tensors.build_site_tensor_calls", "count", "setup_s on nonabelian-2x1"),
    ("tensors.site_tensor_bytes", "B_computed", "peak_rss_mb on nonabelian-2x1"),
    ("tensors.random_deformation_s", "s", "items_per_s on z2-sweep"),
    ("tensors.regroup_s", "s", "wall_s on nonabelian-2x1"),
    ("lattice.contract_s", "s", "setup_s on z3-trials and nonabelian-2x1"),
    ("lattice.contract_calls", "count", "setup_s on z3-trials and nonabelian-2x1"),
    ("lattice.ground_projector_s", "s", "items_per_s on z2-sweep, setup_s on z3-trials"),
    ("lattice.ground_projector_calls", "count", "items_per_s on z2-sweep, setup_s on z3-trials"),
    ("lattice.site_applications", "count", "items_per_s on z2-sweep"),
    ("lattice.projector_svd_s", "s", "items_per_s on z2-sweep"),
    ("lattice.coefficients_calls", "count", "items_per_s on z3-trials"),
    ("lattice.coefficients_bytes", "B_computed", "items_per_s on z3-trials"),
    ("lattice.coefficients_s", "s", "items_per_s on z3-trials"),
    ("spectral.born_measure_s", "s", "items_per_s and item_ms_* on z3-trials"),
    ("spectral.born_measure_calls", "count", "items_per_s and item_ms_* on z3-trials"),
    ("spectral.born_measure_ms_p50", "ms", "items_per_s and item_ms_* on z3-trials"),
    ("spectral.jordan_s", "s", "items_per_s on z2-sweep"),
    ("protocol.prepare_s", "s", "setup_s on z3-trials and nonabelian-2x1"),
    ("protocol.trial_self_s", "s", "items_per_s on z3-trials and nonabelian-2x1"),
    ("protocol.measurements_per_trial", "count", "items_per_s; must not change in a speed-up"),
    ("protocol.forward_success_ratio", "ratio", "items_per_s; must not change in a speed-up"),
    ("protocol.aggregate_s", "s", "wall_s on z3-trials"),
    ("cli.import_s", "s", "setup_s, all workloads"),
    ("cli.output_s", "s", "wall_s, all workloads"),
    ("cli.output_bytes", "B", "wall_s, all workloads"),
    ("trace.overhead_s", "s", "none: traced minus untraced median pass wall time"),
]

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def _rank(percentile: float, n: int) -> int:
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point
    return max(1, math.ceil(round(percentile / 100.0 * n, 9)))


def nearest_rank(values: list[float], percentile: float) -> float:
    """The sample at nearest rank ``ceil(p/100 * n)`` of the sorted values."""
    return sorted(values)[_rank(percentile, len(values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ten samples beyond it.

    Falls back to the median when the sample is too small for any.
    """
    usable = [p for p in TAIL_LADDER if n - _rank(p, n) >= TAIL_MIN_BEYOND]
    return max(usable, default=TAIL_LADDER[0])


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(record: dict, sample_items: int) -> tuple[dict[str, float], dict]:
    """End-to-end metrics of the untraced passes, plus how the tail was taken.

    A pass whose timed invocation failed before its first item is left out;
    the output checks count the failure.
    """
    passes = [p for p in record["passes"] if not p["traced"] and p["setup_s"] is not None]
    items = [d for p in passes for d in p["items"]]
    sample = items[:sample_items]
    tail_p = tail_percentile(len(sample))
    values = {
        "wall_s": statistics.median(p["end"] - p["start"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "items_per_s": len(items) / sum(items),
        "item_ms_p50": 1000.0 * nearest_rank(sample, 50.0),
        "item_ms_tail": 1000.0 * nearest_rank(sample, tail_p),
        "peak_rss_mb": record["rss_kb"] / 1024.0,
    }
    detail = {
        "passes": len(passes),
        "items": len(items),
        "tail_percentile": tail_p,
        "tail_sample": len(sample),
    }
    return values, detail


SELF_TIME_SPANS = {
    "tensors.build_site_tensor_s": ("tensors.build_site_tensor",),
    "tensors.random_deformation_s": ("tensors.random_deformation",),
    "tensors.regroup_s": ("tensors.verify_regroup_equivalence",),
    "lattice.contract_s": ("lattice.contract_isometric_state",),
    "lattice.ground_projector_s": ("lattice.ground_projector",),
    "lattice.projector_svd_s": ("lattice.projector_from_columns",),
    "lattice.coefficients_s": ("lattice.GroundProjector.coefficients",),
    "spectral.born_measure_s": ("spectral.born_measure",),
    "spectral.jordan_s": ("spectral.jordan_decompose",),
    "protocol.prepare_s": ("protocol.prepare_protocol",),
    "protocol.aggregate_s": ("protocol.aggregate_step_stats",),
}
CALL_COUNTS = {
    "tensors.build_site_tensor_calls": "tensors.build_site_tensor",
    "lattice.contract_calls": "lattice.contract_isometric_state",
    "lattice.ground_projector_calls": "lattice.ground_projector",
    "lattice.coefficients_calls": "lattice.GroundProjector.coefficients",
    "spectral.born_measure_calls": "spectral.born_measure",
}
GROUP_SPANS = ("groups.build_group", "groups.regular_rep", "groups.semi_regular_rep",
               "groups.load_group_document")


def _output_time(main: dict, top_spans: list[dict]) -> float:
    """Time from the end of the last compute step to the CLI's return.

    Compute steps are the spans directly under ``cli.main``; the aggregate
    table is reported on its own, so its time is taken out.
    """
    compute_end = max(
        (s["end"] for s in top_spans if s["name"] != "protocol.aggregate_step_stats"),
        default=main["start"],
    )
    aggregate = sum(
        s["end"] - s["start"] for s in top_spans
        if s["name"] == "protocol.aggregate_step_stats" and s["start"] >= compute_end
    )
    return main["end"] - compute_end - aggregate


def per_layer(record: dict, spans: list[dict], forward_bits: list[int]) -> dict[str, float]:
    """Per-layer metrics of the traced passes, each averaged per traced pass.

    ``forward_bits`` holds the outcome of every forward measurement in the
    traced passes' traces (1 = the target projector fired).
    """
    traced = [p for p in record["passes"] if p["traced"]]
    untraced_walls = [p["end"] - p["start"] for p in record["passes"]
                      if not p["traced"] and p["index"] > 0]
    traced_ids = {p["index"] for p in traced}
    spans = [s for s in spans if s["pass"] in traced_ids]
    own = self_times(spans)
    n_pass = len(traced)

    def total_self(names) -> float:
        return sum(own[s["id"]] for s in spans if s["name"] in names) / n_pass

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    values: dict[str, float] = {"groups.rep_s": total_self(GROUP_SPANS)}
    for metric, names in SELF_TIME_SPANS.items():
        values[metric] = total_self(names)
    for metric, name in CALL_COUNTS.items():
        values[metric] = len(named(name)) / n_pass

    builds = named("tensors.build_site_tensor")
    values["tensors.site_tensor_bytes"] = float(max((s["info"]["bytes"] for s in builds), default=0))
    values["lattice.site_applications"] = sum(
        s["info"]["t"] for s in named("lattice.partial_peps_state")) / n_pass
    values["lattice.coefficients_bytes"] = sum(
        s["info"]["bytes"] for s in named("lattice.GroundProjector.coefficients")) / n_pass

    measures = named("spectral.born_measure")
    values["spectral.born_measure_ms_p50"] = (
        1000.0 * nearest_rank([s["end"] - s["start"] for s in measures], 50.0) if measures else 0.0
    )
    trials = named("protocol.run_protocol")
    in_trials = [s for s in measures if s["trial"] is not None]
    trial_time = sum(s["end"] - s["start"] for s in trials)
    values["protocol.trial_self_s"] = (
        trial_time - sum(s["end"] - s["start"] for s in in_trials)) / n_pass
    values["protocol.measurements_per_trial"] = len(in_trials) / len(trials) if trials else 0.0
    values["protocol.forward_success_ratio"] = (
        sum(forward_bits) / len(forward_bits) if forward_bits else 0.0
    )

    values["cli.import_s"] = record["import_s"]
    by_id = {s["id"]: s for s in spans}
    output_s = 0.0
    output_bytes = 0
    for p in traced:
        for inv in p["invocations"]:
            main = by_id[inv["span"]]
            top = [s for s in spans if s["parent"] == main["id"]]
            output_s += _output_time(main, top)
            output_bytes += inv["output_bytes"]
    values["cli.output_s"] = output_s / n_pass
    values["cli.output_bytes"] = output_bytes / n_pass
    values["trace.overhead_s"] = (
        statistics.median(p["end"] - p["start"] for p in traced) - statistics.median(untraced_walls)
    )
    return values

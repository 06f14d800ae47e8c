"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER, nearest_rank, tail_percentile
from tracing import self_time, self_times
from workloads import S3_ANYONS, WORKLOADS, Z2_ANYONS, Z3_ANYONS, _failure_law_check, anyon_count

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_without_children_is_the_duration():
    assert self_time(1.0, 3.5, []) == pytest.approx(2.5)


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0), (5.5, 5.8)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)


def test_self_times_uses_parent_links():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 6.0, "end": 7.0},
    ]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


@pytest.mark.parametrize("n, expected", [
    (5, 50.0),      # too few for any: the median
    (20, 50.0),     # rank 10, ten beyond
    (39, 50.0),     # p75 would leave nine
    (40, 75.0),
    (48, 75.0),
    (99, 75.0),     # p90 would leave nine
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (9999, 99.0),   # p99.9 would leave nine
    (10000, 99.9),
])
def test_tail_percentile_leaves_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50.0) == 3.0
    assert nearest_rank(values, 75.0) == 4.0
    assert nearest_rank(values, 100.0) == 5.0
    assert nearest_rank(values, 0.0) == 1.0


def test_anyon_counts_match_the_quantum_double():
    assert (Z2_ANYONS, Z3_ANYONS, S3_ANYONS) == (4, 9, 8)

    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))

    rotation, reflection = (1, 2, 3, 0), (0, 3, 2, 1)
    d4 = {(0, 1, 2, 3)}
    while True:
        grown = d4 | {compose(g, s) for g in d4 for s in (rotation, reflection)}
        if grown == d4:
            break
        d4 = grown
    assert len(d4) == 8
    assert anyon_count(sorted(d4), compose) == 22


def _aggregate(tmp_path: Path, failures: int, reached: int, law: float) -> str:
    (tmp_path / "aggregate.csv").write_text(
        "step,m,empirical_fail,analytic_fail,bound,d_min,kappa,trials_reached\n"
        f"1,80,{failures / reached},{law},0.0065,0.95,2.0,{reached}\n"
    )
    return str(tmp_path)


@pytest.mark.parametrize("failures, reached, law, ok", [
    (0, 48, 4e-5, True),
    (1, 48, 4e-5, True),    # one rare exhaustion is not a bias
    (2, 48, 4e-5, False),
    (12, 100, 0.1, True),
    (25, 100, 0.1, False),
])
def test_failure_law_band(tmp_path, failures, reached, law, ok):
    assert _failure_law_check(_aggregate(tmp_path, failures, reached, law))[1] is ok


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit, better, bound) for name, unit, better, bound in END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER
    ]

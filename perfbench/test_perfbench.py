"""Self-tests of the benchmark on a small command.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
They check the harness, not the package: a traced run prints the same
payload as an untraced one, its spans form a tree with non-negative self
times and repeatable counters, and a wrong reference is counted as failed.
"""

from __future__ import annotations

import json

import pytest

import run

# K through degree 2 at sizes 1 and 2: every verdict MATCH, and the Hopf
# check runs in gl_4(K).  HC(K) = 1, 0 and Lambda(HC(K)[1]) = 1, 1, 0.
SMALL = run.Workload(
    "small", ("lqt", "fixtures/K.alg", "--n", "1,2", "--max-degree", "2"),
    run.LQTReference(sizes=(1, 2), hc=(1, 0), stable=(1, 1, 0), hopf=True))


@pytest.fixture(scope="module")
def traced_pair():
    """Two traced runs and one untraced run of the small command."""
    runs = []
    for i in range(2):
        trace_file = run.OUT / f"selftest-{i}.json"
        runs.append(run.traced_run(SMALL, trace_file))
        trace_file.unlink(missing_ok=True)
    return runs, run.workload_run(SMALL)


def test_traced_payload_matches_untraced(traced_pair):
    runs, plain = traced_pair
    traced = runs[0][0]
    assert plain.code == traced.code == 0
    assert SMALL.problems(plain.code, plain.stdout) == []
    assert json.loads(traced.stdout) == json.loads(plain.stdout)


def test_span_tree_is_well_formed(traced_pair):
    for _, trace in traced_pair[0]:
        assert trace is not None and trace["exit_code"] == 0
        assert run.span_problems(trace) == []
        spans = trace["spans"]
        roots = [s for s in spans if s[3] < 0]
        assert [s[0] for s in roots] == ["cli.main"]
        agg = run.aggregate(trace)
        assert all(a["self_s"] >= 0 for a in agg.values())
        assert agg["lqt.verify_lqt"]["calls"] == 1
        assert "lqt.hopf_product_on_homology" in agg
        assert "chain.quotient_echelon" in agg


def test_counters_repeat_exactly(traced_pair):
    (_, first), (_, second) = traced_pair[0]
    assert first["counters"] == second["counters"]
    values = run.layer_values(first)
    assert values["lqt.hopf_checked_pairs"] > 0
    assert values["chain.echelon_generators"] >= values["chain.echelon_rank"] > 0
    assert values["constructions.models_built"] > 0


def test_span_problems_catches_a_broken_tree():
    trace = {"spans": [["cli.main", 0.0, 1.0, -1],
                       ["lqt.verify_lqt", 0.5, 1.5, 0],
                       ["chain.homology", 2.0, 1.9, 0]],
             "counters": {}}
    problems = run.span_problems(trace)
    assert any("not inside its parent" in p for p in problems)
    assert any("ends before it starts" in p for p in problems)


def test_failed_share_catches_a_wrong_reference():
    wrong = run.Workload(
        "small-wrong", SMALL.argv,
        run.LQTReference(sizes=(1, 2), hc=(1, 0), stable=(1, 1, 1),
                         hopf=True))
    metrics, tally, walls = run.measure(wrong, seed=0, seconds=0.1)
    runs = len(walls)
    assert runs >= 1
    assert tally.failed == runs
    assert all("matrix_homology" in f for f in tally.failures)
    line = json.loads(run.result_line(metrics, tally))
    assert line["correct"] is False
    assert line["failed"] == runs
    assert line["attempted"] == runs + run.SETUP_PROBES

    metrics, tally, _ = run.measure(SMALL, seed=0, seconds=0.1)
    assert tally.failed == 0
    assert json.loads(run.result_line(metrics, tally))["correct"] is True
    assert set(metrics) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_benchmark_json_names_the_reported_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in run.PER_LAYER] + list(run.TRACE_METRICS)

"""Tests of the benchmark itself: seeded inputs, repeatable counters, span
structure, the time limit and the answer checks.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads
from checks import Checker
from workloads import Query
from tracing import Tracer, layer_metrics, self_times

BENCH = Path(bench.__file__).resolve().parent
FIXTURES = BENCH.parent / "fixtures"
SEEDED = ("dense-lp", "wide-ground")
COUNTERS = (
    "simplex.calls",
    "simplex.cols_max",
    "psat.calls",
    "psat.branch_count",
    "grounder.ground_clauses",
    "grounder.unfolded_clauses",
    "grounder.base_atoms",
    "worlds.support_worlds",
)
# A quick mix that reaches every layer: wide rung 8, one dense program and
# fixture queries with a witness, an entropy model and an evolution check.
SMALL = {
    "wide8-validate",
    "wide8-ground",
    "wide8-consistent",
    "dense0-consistent",
    "maxent-p0",
    "evolve-conditional",
    "tighten-p0-all",
    "unfold-p0",
}


# A maxent program whose Frank-Wolfe loop does not converge at the commit that
# added the benchmark; it stands for any query that runs past the time limit.
NON_CONVERGING = Query(
    "maxent-slow",
    ("maxent", "@slow.tpl", "--json"),
    "fixture",
    {"exit": 0},
)
NON_CONVERGING_TEXT = (
    "calendar 1..1.\n"
    "p0@Y:<Y=1,[0.1],[0.25]> :- p0@Y1 or p1@Y1:<Y1=1,[0.35],[0.85]>.\n"
    "p1@Y:<Y=1,[0.3],[0.55]>.\n"
)


def _queries(tmp_path, names=("wide-ground", "dense-lp", "fixture-cli"), seed=3):
    queries = []
    for name in names:
        queries += bench.write_inputs(workloads.build(name, seed, FIXTURES), tmp_path)
    slow = workloads.Workload("slow", {"slow.tpl": NON_CONVERGING_TEXT}, [NON_CONVERGING], {})
    queries += bench.write_inputs(slow, tmp_path)
    return {q.qid: q for q in queries}


def _small(tmp_path):
    return [q for qid, q in _queries(tmp_path).items() if qid in SMALL]


def _traced_pass(queries):
    alarm = bench._Alarm()
    tracer = Tracer()
    tracer.install()
    try:
        result = bench.run_pass(queries, alarm, tracer)
    finally:
        tracer.uninstall()
        alarm.close()
    return result, tracer


@pytest.mark.parametrize("name", SEEDED)
def test_same_seed_gives_same_inputs(name):
    a = workloads.build(name, 7, FIXTURES)
    b = workloads.build(name, 7, FIXTURES)
    assert a.files == b.files and a.queries == b.queries


@pytest.mark.parametrize("name", SEEDED)
def test_another_seed_changes_inputs(name):
    assert workloads.build(name, 7, FIXTURES).files != workloads.build(name, 8, FIXTURES).files


def test_fixture_queries_cover_every_fixture_query_file():
    workload = workloads.build("fixture-cli", 1, FIXTURES)
    named = {arg[1:] for q in workload.queries for arg in q.argv if arg.startswith("@")}
    assert {p.name for p in FIXTURES.iterdir()} <= named
    assert workload == workloads.build("fixture-cli", 2, FIXTURES)


def test_counters_repeat_exactly(tmp_path):
    queries = _small(tmp_path)
    runs = []
    for _ in range(2):
        result, tracer = _traced_pass(queries)
        assert [o.error for o in result.outcomes] == [None] * len(queries)
        runs.append(layer_metrics(tracer, result.wall_s))
    for name in COUNTERS:
        assert runs[0][name] == runs[1][name], name
        assert runs[0][name] > 0, name


def test_spans_nest_and_self_times_sum_to_wall(tmp_path):
    result, tracer = _traced_pass(_small(tmp_path))
    spans = {s.sid: s for s in tracer.spans}
    roots = [s for s in spans.values() if s.parent is None]
    assert [s.name for s in roots] == ["bench.pass"]
    for s in spans.values():
        assert s.start <= s.end
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            if parent.name != "bench.pass":
                assert s.query == parent.query is not None
    layers = {s.layer for s in spans.values()}
    assert {"bench", "cli", "parser", "grounder", "psat", "simplex", "worlds", "compression"} <= layers
    total = sum(self_times(list(spans.values())).values())
    assert total == pytest.approx(roots[0].seconds, rel=1e-9)
    assert total == pytest.approx(result.wall_s, abs=1e-3)


def test_uninstall_restores_every_attribute():
    import tplp.cli
    import tplp.compression
    import tplp.psat

    modules = (tplp.cli, tplp.compression, tplp.psat)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install()
    assert tplp.psat.solve_lp is not before[2]["solve_lp"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_query_past_the_limit_is_cut_off_and_charged(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "QUERY_LIMIT_S", 0.2)
    query = _queries(tmp_path, ())["maxent-slow"]
    alarm = bench._Alarm()
    try:
        outcome = bench.run_query(query, alarm)
    finally:
        alarm.close()
    assert outcome.error == "time limit"
    assert outcome.seconds >= 0.2


def test_failed_queries_run_once_and_cheap_ones_often(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "QUERY_LIMIT_S", 1.0)
    queries = _queries(tmp_path, ("fixture-cli", "wide-ground"))
    picked = [queries["maxent-slow"], queries["readme-ialg-join"], queries["wide8-consistent"]]
    alarm = bench._Alarm()
    try:
        samples = bench.timed_samples(picked, 3.0, alarm, lambda: None)
    finally:
        alarm.close()
    defect, ialg, slow = samples
    assert len(defect) == 1 and defect[0].error == "time limit"
    assert len(ialg) > len(slow) >= 2
    failed, wrong, _ = bench.check_samples(picked, samples)
    assert failed == {0} and wrong == 0
    seconds = bench.query_seconds(samples, failed)
    assert seconds[0] == 1.0 and seconds[1] == statistics.median(o.scaled_s for o in ialg)


def test_query_time_is_the_median_of_runs_scaled_by_the_reference():
    ref = bench.REFERENCE_S
    runs = [bench.Outcome(0, "", None, 0.010, ref_s=2 * ref),  # slow machine: 0.005
            bench.Outcome(0, "", None, 0.030, ref_s=ref),
            bench.Outcome(0, "", None, 0.004, ref_s=ref)]
    assert bench.query_seconds([runs], set()) == [pytest.approx(0.005)]


def test_setup_timer_spreads_samples_and_reports_the_median(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 3)
    setup = bench.SetupTimer(60.0)
    setup.tick()
    setup.tick()
    assert len(setup.times) == 1  # the next sample is due 20 s later
    assert setup.median() == sorted(setup.times)[1] and len(setup.times) == 3


def test_checker_rejects_wrong_answers(tmp_path):
    import tplp.cli

    queries = _queries(tmp_path, ("fixture-cli", "dense-lp"))
    checker = Checker()

    def outcome(query):
        result = tplp.cli.run(list(query.argv))
        return bench.Outcome(result.exit_code, result.payload, None, 0.0)

    p1 = queries["readme-consistent-p1"]
    good = outcome(p1)
    assert checker.check(p1, good) is None
    assert checker.check(p1, dataclasses.replace(good, exit=0)) is not None
    assert checker.check(p1, dataclasses.replace(good, error="time limit")) == "time limit"

    p0 = queries["consistent-p0"]
    good = outcome(p0)
    assert checker.check(p0, good) is None
    body = json.loads(good.payload)
    body["witness"] = [{"world": [], "p": "1/1"}]  # a@1 has mass 0, outside [0.5, 0.7]
    assert "not a model" in checker.check(p0, dataclasses.replace(good, payload=json.dumps(body)))

    tight = queries["dense0-tighten0"]
    good = outcome(tight)
    assert checker.check(tight, good) is None
    body = json.loads(good.payload)
    (key, (lo, hi)), = body["intervals"].items()
    body["intervals"] = {key: ["0/1", hi] if lo != "0/1" else ["1/2", hi]}
    assert "oracle" in checker.check(tight, dataclasses.replace(good, payload=json.dumps(body)))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", ".out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixture-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

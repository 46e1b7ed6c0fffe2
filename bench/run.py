"""tplp benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload dense-lp --seed 1 --seconds 40 --trace 0

The run writes the workload's inputs under bench/.work, sends the workload's
fixed query list through ``tplp.cli.run`` pass after pass for ``--seconds``
seconds, then checks every answer of every pass.  Between queries it times
set-up: a fresh interpreter importing ``tplp.cli``, every ``--seconds`` /
SETUP_SAMPLES seconds, and a fixed reference loop that measures the machine's
current speed.  Each query's time, and set-up's, is the median of its runs,
each run scaled to the speed at which the reference loop takes REFERENCE_S
(see query_seconds).  With
``--trace 1`` it runs one untraced and one traced pass instead, prints the
per-layer metrics and writes the spans to bench/.out.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# A query running longer than this is cut off and counted as failed; a failed
# query is charged this many seconds and is not run again in later passes.
QUERY_LIMIT_S = 5.0
# Queries faster than this are sampled more often; see timed_samples.
CHEAP_S = 0.05
# Set-up is timed this many times in a run, spread evenly over it.
SETUP_SAMPLES = 40
# Nominal time of reference_seconds' loop; a query's time is reported at the
# machine speed where the loop takes this long.  See query_seconds.
REFERENCE_S = 0.002


class QueryTimeout(BaseException):
    """Raised from the alarm handler; BaseException so the CLI cannot catch it."""


@dataclass
class Outcome:
    exit: int | None
    payload: str
    error: str | None  # "time limit" or the escaping exception; None if answered
    seconds: float
    ref_s: float = REFERENCE_S  # reference loop time next to the query

    @property
    def scaled_s(self) -> float:
        return self.seconds * REFERENCE_S / self.ref_s


@dataclass
class PassResult:
    wall_s: float
    outcomes: list[Outcome]


class _Alarm:
    """Per-query time limit through SIGALRM, armed only around the query."""

    def __init__(self):
        self.armed = False
        self._previous = signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise QueryTimeout()

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_query(query, alarm: _Alarm, tracer=None) -> Outcome:
    import tplp.cli

    exit_code, payload, error = None, "", None
    # Start every query from a collected heap, as a fresh process would,
    # so that its time does not depend on the garbage of the queries before it.
    gc.collect()
    depth = len(tracer.stack) if tracer else 0
    if tracer:
        tracer.query = query.qid
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    alarm.armed = True
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            result = tplp.cli.run(list(query.argv))
        alarm.armed = False
        exit_code, payload = result.exit_code, result.payload
    except QueryTimeout:
        error = "time limit"
    except Exception as exc:  # anything escaping the CLI is not a TplpError
        error = f"{type(exc).__name__}: {str(exc)[:120]}"
    finally:
        alarm.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    if tracer:
        tracer.unwind(depth)
        tracer.query = None
    return Outcome(exit_code, payload, error, seconds)


def run_pass(queries, alarm: _Alarm, tracer=None) -> PassResult:
    span = tracer.span("bench.pass") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with span:
        outcomes = [run_query(q, alarm, tracer) for q in queries]
    return PassResult(time.perf_counter() - start, outcomes)


def reference_seconds() -> float:
    """Time of a fixed loop of exact arithmetic and dict updates, the
    program's own mix of work; it measures the machine's current speed."""
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 800):
        total += Fraction(1, i % 97 + 1)
        seen[i % 13, i % 7] = total
    return time.perf_counter() - start


def timed_samples(queries, seconds: float, alarm: _Alarm, between) -> list[list[Outcome]]:
    """Every outcome of every query, from passes that fit in `seconds`.

    A pass runs each query once; a query that failed is not run again.  From
    the second pass on, the queries whose best time is under CHEAP_S also run
    after every slower query, so that they are sampled across the whole run
    rather than a few times: the machine's speed changes over seconds.
    The reference loop runs between queries; each outcome keeps the faster of
    the two reference times around it.  `between` is called after every query.
    """
    start = time.perf_counter()
    ref_before = reference_seconds()

    def timed(q) -> Outcome:
        nonlocal ref_before
        outcome = run_query(q, alarm)
        ref_after = reference_seconds()
        outcome.ref_s = min(ref_before, ref_after)
        ref_before = ref_after
        between()
        return outcome

    samples: list[list[Outcome]] = [[timed(q)] for q in queries]

    def sample(i: int) -> None:
        outcome = timed(queries[i])
        if outcome.payload == samples[i][0].payload:
            outcome.payload = samples[i][0].payload  # one copy, so memory does not grow with repeats
        samples[i].append(outcome)

    while True:
        live = [i for i, s in enumerate(samples) if not any(o.error for o in s)]
        best = {i: min(o.seconds for o in samples[i]) for i in live}
        cheap = [i for i in live if best[i] < CHEAP_S]
        slow = len(live) - len(cheap)
        next_pass = sum(best.values()) + slow * sum(best[i] for i in cheap)
        if time.perf_counter() - start + next_pass > seconds:
            return samples
        for i in live:
            sample(i)
            if best[i] >= CHEAP_S:
                for j in cheap:
                    sample(j)


class SetupTimer:
    """Set-up time: wall time of a fresh interpreter importing tplp.cli.

    ``tick`` takes a sample when one is due, so that SETUP_SAMPLES samples
    spread over `seconds`; each is scaled by the reference loop timed around
    it, as a query's are.  ``median`` tops the samples up to SETUP_SAMPLES
    and returns their median.
    """

    def __init__(self, seconds: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.interval = seconds / SETUP_SAMPLES
        self.times: list[float] = []
        self._import()  # byte-compiles on a first run
        self.due = time.perf_counter()

    def _import(self) -> None:
        cmd = [sys.executable, "-c", "import tplp.cli"]
        subprocess.run(cmd, env=self.env, check=True, cwd=ROOT)

    def _sample(self) -> None:
        ref_before = reference_seconds()
        start = time.perf_counter()
        self._import()
        elapsed = time.perf_counter() - start
        ref_s = min(ref_before, reference_seconds())
        self.times.append(elapsed * REFERENCE_S / ref_s)
        self.due = time.perf_counter() + self.interval

    def tick(self) -> None:
        if len(self.times) < SETUP_SAMPLES and time.perf_counter() >= self.due:
            self._sample()

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self._sample()
        return statistics.median(self.times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_inputs(workload, workdir: Path):
    """Write the workload's files and resolve '@key' arguments to their paths."""
    for key, text in workload.files.items():
        (workdir / key).write_text(text, encoding="utf-8")

    def resolve(arg: str) -> str:
        return str(workdir / arg[1:]) if arg.startswith("@") else arg

    return [dataclasses.replace(q, argv=tuple(resolve(a) for a in q.argv)) for q in workload.queries]


def check_samples(queries, samples: list[list[Outcome]]) -> tuple[set[int], int, list[str]]:
    """Check every answer: (failed query indexes, wrong answers, first reason per query)."""
    from checks import Checker

    checker = Checker()
    failed: set[int] = set()
    wrong = 0
    reasons = []
    for i, (query, outcomes) in enumerate(zip(queries, samples)):
        verdicts: dict[tuple, str | None] = {}  # repeated runs mostly print the same answer
        for outcome in outcomes:
            key = (outcome.exit, outcome.payload, outcome.error)
            if key not in verdicts:
                verdicts[key] = checker.check(query, outcome)
            reason = verdicts[key]
            if reason is None:
                continue
            wrong += outcome.error is None
            if i not in failed:
                failed.add(i)
                reasons.append(f"{query.qid}: {reason}")
    return failed, wrong, reasons


def query_seconds(samples: list[list[Outcome]], failed: set[int]) -> list[float]:
    """Per query: the median of its samples scaled to the reference speed,
    or the time limit if it failed.

    Other tenants of a shared machine slow it by up to 2x for seconds to
    minutes, longer than a run; even the fastest sample then reads as slow
    as the phase the run fell in.  Scaling each sample by the reference loop
    timed next to it takes most of that slowdown out.
    """
    return [
        QUERY_LIMIT_S if i in failed else statistics.median(o.scaled_s for o in outcomes)
        for i, outcomes in enumerate(samples)
    ]


def end_to_end(seconds: list[float], failed: set[int], setup_s: float, rss: float) -> dict:
    return {
        "wall_s": (sum(seconds), "s"),
        "verdict_p50_ms": (statistics.median(seconds) * 1000.0, "ms"),
        "answered_ratio": ((len(seconds) - len(failed)) / len(seconds), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def traced_run(queries, alarm: _Alarm, out_path: Path):
    from tracing import Tracer, layer_metrics, replay_float

    plain = run_pass(queries, alarm)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(queries, alarm, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced.wall_s)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    speedup, disagree = replay_float(tracer.lps)
    metrics["simplex.float_speedup"] = speedup
    metrics["simplex.float_disagree"] = disagree
    tracer.write(out_path)
    return traced, metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_speedup")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tplp").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no tplp sources under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    workload = workloads.build(args.workload, args.seed, ROOT / "fixtures")
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work"))
    alarm = _Alarm()
    try:
        queries = write_inputs(workload, workdir)
        if args.trace:
            out_dir = BENCH_DIR / ".out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            traced, layer = traced_run(queries, alarm, spans_path)
            samples = [[o] for o in traced.outcomes]
        else:
            setup = SetupTimer(args.seconds)
            samples = timed_samples(queries, args.seconds, alarm, setup.tick)
            rss = peak_rss_mb()
            setup_s = setup.median()
        failed, wrong, reasons = check_samples(queries, samples)
    finally:
        alarm.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed}: {json.dumps(workload.params)}")
    for reason in reasons:
        print(f"failed {reason}")
    if args.trace:
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(query_seconds(samples, failed), failed, setup_s, rss)
        counts = sorted(len(s) for s in samples)
        print(f"{len(queries)} queries, each timed at its fastest of {counts[0]} to {counts[-1]} runs")
        refs = [o.ref_s * 1000.0 for s in samples for o in s]
        measured = sum(min(o.seconds for o in s) for i, s in enumerate(samples) if i not in failed)
        print(f"reference loop {min(refs):.3f} to {max(refs):.3f} ms; answered queries' fastest runs "
              f"sum to {measured:.4f} s as measured")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(queries),
                "failed": len(failed),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

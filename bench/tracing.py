"""Outside-in tracing: timing wrappers at the module attributes callers use.

``Tracer.install()`` replaces each public layer function at the module
attribute where its caller looks it up (``tplp.cli.tighten``,
``tplp.psat.solve_lp``, ...) with a wrapper that records a span: name, start,
end, parent span and query id.  Spans stay in memory until ``write``.
Counters are taken from arguments and results at the same boundaries.  No
file of the program changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import tplp.cli
import tplp.compression
import tplp.psat
from tplp.errors import LPNumericalFailure
from tplp.simplex import INFEASIBLE, LPMode, solve_lp

from checks import ORACLE_TOL

# (module, attribute, span name); the span name's prefix is the layer.
WRAPPED = (
    (tplp.cli, "run", "cli.run"),
    (tplp.cli, "parse_program", "parser.parse_program"),
    (tplp.cli, "parse_query", "parser.parse_query"),
    (tplp.cli, "parse_skeleton", "parser.parse_skeleton"),
    (tplp.cli, "render_program", "parser.render_program"),
    (tplp.cli, "ground_program", "grounder.ground_program"),
    (tplp.cli, "ground_temporal_variables", "grounder.ground_temporal_variables"),
    (tplp.cli, "unfold", "grounder.unfold"),
    (tplp.cli, "pprogram_to_ptprogram", "grounder.pprogram_to_ptprogram"),
    (tplp.cli, "check_consistency", "psat.check_consistency"),
    (tplp.cli, "tighten", "psat.tighten"),
    (tplp.cli, "entails", "psat.entails"),
    (tplp.cli, "max_entropy_model", "psat.max_entropy_model"),
    (tplp.cli, "build_evolution_program", "compression.build_evolution_program"),
    (tplp.cli, "solve_profile", "compression.solve_profile"),
    (tplp.cli, "verify_evolution", "compression.verify_evolution"),
    (tplp.compression, "check_consistency", "psat.check_consistency"),
    (tplp.compression, "strong_witness", "psat.strong_witness"),
    (tplp.psat, "solve_lp", "simplex.solve_lp"),
    (tplp.psat, "WorldDistribution", "worlds.WorldDistribution"),
)
PARSE_SPANS = {"parser.parse_program", "parser.parse_query", "parser.parse_skeleton"}
GROUND_SPANS = {"grounder.ground_program", "grounder.ground_temporal_variables"}
UNFOLD_SPANS = {"grounder.unfold", "grounder.pprogram_to_ptprogram"}


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    query: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.query: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.lp_cols: list[int] = []
        self.lp_rows: list[int] = []
        self.lp_feasible = 0
        self.lps: list[tuple[tuple, dict]] = []
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --

    def _open(self) -> tuple[int, int | None, float]:
        sid = self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid: int, name: str, parent: int | None, start: float) -> None:
        end = time.perf_counter()
        if self.stack and self.stack[-1] == sid:
            self.stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.query))

    @contextmanager
    def span(self, name: str):
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(sid, name, parent, start)

    def unwind(self, depth: int) -> None:
        """Drop spans left open by a query cut off at its time limit."""
        del self.stack[depth:]

    # -- wrappers --

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)

        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, parent, start)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters --

    def _observe_branches(self, args, kwargs, result) -> None:
        self.counts["psat.branch_count"] += result.branch_count

    _observe_check_consistency = _observe_branches
    _observe_tighten = _observe_branches
    _observe_entails = _observe_branches
    _observe_max_entropy_model = _observe_branches

    def _observe_solve_lp(self, args, kwargs, result) -> None:
        self.lp_cols.append(args[0])
        self.lp_rows.append(len(args[1]))
        if result.status != INFEASIBLE:
            self.lp_feasible += 1
        self.lps.append((args, kwargs))

    def _observe_ground_program(self, args, kwargs, result) -> None:
        self.counts["grounder.ground_clauses"] += len(result.clauses)

    def _observe_unfold(self, args, kwargs, result) -> None:
        self.counts["grounder.unfolded_clauses"] += len(result.clauses)
        if result.base is not None:
            self.counts["grounder.base_atoms"] += len(result.base)

    def _observe_WorldDistribution(self, args, kwargs, result) -> None:
        self.counts["worlds.support_worlds"] += result.support_size()

    # -- output --

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its direct children's."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += s.seconds - child_time[s.sid]
    return dict(out)


def busy_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy time: outermost spans of the layer, children included."""
    layer_of = {s.sid: s.layer for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.parent is None or layer_of.get(s.parent) != s.layer:
            out[s.layer] += s.seconds
    return dict(out)


def replay_float(lps: list[tuple[tuple, dict]]) -> tuple[float, int]:
    """Solve every recorded LP again, exact and float; (speed-up, disagreements).

    A disagreement is a different feasibility verdict, an optimum that differs
    by more than ORACLE_TOL, or a float LPNumericalFailure.
    """
    exact_s = float_s = 0.0
    disagree = 0
    for args, kwargs in lps:
        kwargs = {k: v for k, v in kwargs.items() if k != "mode"}
        t0 = time.perf_counter()
        exact = solve_lp(*args, mode=LPMode.EXACT, **kwargs)
        t1 = time.perf_counter()
        try:
            approx = solve_lp(*args, mode=LPMode.FLOAT, **kwargs)
        except LPNumericalFailure:
            approx = None
        t2 = time.perf_counter()
        exact_s += t1 - t0
        float_s += t2 - t1
        if approx is None or approx.status != exact.status:
            disagree += 1
        elif kwargs.get("objective") is not None and exact.status != INFEASIBLE:
            if abs(float(exact.value) - float(approx.value)) > ORACLE_TOL:
                disagree += 1
    return (exact_s / float_s if float_s > 0 else 0.0), disagree


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    busy = busy_times(spans)

    def total(names) -> float:
        return sum(s.seconds for s in spans if s.name in names)

    layer_of = {s.sid: s.layer for s in spans}
    psat_calls = sum(1 for s in spans if s.layer == "psat" and layer_of.get(s.parent) != "psat")
    calls = len(tracer.lp_cols)
    counts = tracer.counts
    return {
        "cli.self_s": own.get("cli", 0.0),
        "parser.parse_s": total(PARSE_SPANS),
        "parser.render_s": total({"parser.render_program"}),
        "grounder.ground_s": total(GROUND_SPANS),
        "grounder.unfold_s": total(UNFOLD_SPANS),
        "grounder.ground_clauses": counts["grounder.ground_clauses"],
        "grounder.unfolded_clauses": counts["grounder.unfolded_clauses"],
        "grounder.base_atoms": counts["grounder.base_atoms"],
        "psat.self_s": own.get("psat", 0.0),
        "psat.busy_s": busy.get("psat", 0.0),
        "psat.calls": psat_calls,
        "psat.branch_count": counts["psat.branch_count"],
        "psat.maxent_s": total({"psat.max_entropy_model"}),
        "simplex.calls": calls,
        "simplex.busy_s": busy.get("simplex", 0.0),
        "simplex.cols_max": max(tracer.lp_cols, default=0),
        "simplex.cols_mean": sum(tracer.lp_cols) / calls if calls else 0.0,
        "simplex.rows_mean": sum(tracer.lp_rows) / calls if calls else 0.0,
        "simplex.feasible_ratio": tracer.lp_feasible / calls if calls else 0.0,
        "worlds.build_s": busy.get("worlds", 0.0),
        "worlds.support_worlds": counts["worlds.support_worlds"],
        "compression.busy_s": busy.get("compression", 0.0),
        "bench.self_s": own.get("bench", 0.0),
        "trace.wall_s": wall_s,
    }

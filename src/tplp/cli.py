"""Command-line interface.

Exit codes: 0 success, 1 semantic negative (inconsistent, not entailed,
unknown at the epsilon boundary), 2 usage or input error, 3 resource limit
(world, iteration or calendar cap); a TplpError carries its own as exit_code.  JSON
payloads serialize rationals as "num/den" strings and are byte-deterministic
for identical invocations.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .compression import (
    VerificationMode,
    build_evolution_program,
    solve_profile,
    verify_evolution,
)
from .errors import InconsistentProgram, TplpError
from .grounder import (
    GroundingMode,
    ground_program,
    ground_temporal_variables,
    pprogram_to_ptprogram,
    unfold,
)
from .intervals import ProbInterval, is_consistent, parse_int, parse_rational
from .model import substitute_time, validate_annotation
from .parser import (
    QueryKind,
    eval_interval_expr,
    parse_program,
    parse_query,
    parse_skeleton,
    render_program,
)
from .psat import (
    SolveOptions,
    Verdict,
    check_consistency,
    entails,
    max_entropy_model,
    tighten,
)


@dataclass
class CommandResult:
    exit_code: int
    payload: str


class _CliError(TplpError):
    """A usage or input error found by the command line itself."""


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _interval_json(iv: ProbInterval) -> list[str]:
    return [_rat(iv.lo), _rat(iv.hi)]


# Per byte value, its bits from the lowest: a mask's bits, ascending, are its
# little-endian bytes expanded through this table.
_BYTE_BITS = [bits[::-1] for bits in itertools.product((0, 1), repeat=8)]


def _bits(mask: int):
    """Per atom index up to mask's highest set bit, 1 when the bit is set."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return itertools.chain.from_iterable(map(_BYTE_BITS.__getitem__, data))


class _Witness:
    """A distribution's support worlds, by ascending mask, as the payload
    writes them: per world its held atoms' names and its mass.  Its masses
    sum to one, so there is at least one world.

    Each held atom is named once, and each world picks its names by its
    bits.  Each mass is formatted once per Fraction object: a distribution
    built over one denominator shares one per distinct mass.  _dump writes it
    as the list of {"p": ..., "world": [...]} objects json.dumps would;
    lines() gives the text form.
    """

    __slots__ = ("names", "worlds")

    def __init__(self, dist):
        items = dist.mask_items()
        held = 0
        for mask, _ in items:
            held |= mask
        # per atom index, its name if some world holds it
        self.names = [str(a) if bit else None for a, bit in zip(dist.base.atoms, _bits(held))]
        texts: dict[int, str] = {}  # id of a mass -> its text
        self.worlds = []  # (mask, mass text) per world
        for mask, p in items:
            text = texts.get(id(p))
            if text is None:
                text = texts[id(p)] = _rat(p)
            self.worlds.append((mask, text))

    def json(self, newline: str) -> str:
        """The bytes of json.dumps at the depth whose line break is newline.
        Each held atom's quoted line is made once; a world is one join of
        its atoms' lines."""
        inner = newline + "  "  # a world's braces
        field = inner + "  "  # a world's keys
        atom = field + "  "  # a world's atoms
        lines = [None if n is None else atom + _quote(n) for n in self.names]
        # a mass's text, digits and a slash, needs no escaping
        head, key, close = "{" + field + '"p": "', '",' + field + '"world": ', field + "]"
        items = []
        for m, p in self.worlds:
            world = "[" + ",".join(itertools.compress(lines, _bits(m))) + close if m else "[]"
            items.append(head + p + key + world + inner + "}")
        return "[" + inner + ("," + inner).join(items) + newline + "]"

    def lines(self) -> list[str]:
        """Per world, '  {a@1, b@1}: 2/5'."""
        names = self.names
        return [
            "  {" + ", ".join(itertools.compress(names, _bits(m))) + "}: " + p
            for m, p in self.worlds
        ]


_INF = float("inf")


def _dump(obj, newline: str = "\n") -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2) for a payload
    (dict keys are strings).  json writes in pure Python whenever an indent is
    given; here every string goes through its C escaper."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [_quote(k) + ": " + _dump(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        items = [_dump(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, _Witness):
        return obj.json(newline)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        if obj == -_INF:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None


def _emit_diagnostics(diags):
    for d in diags:
        print(str(d), file=sys.stderr)


def _warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


def _load_program(path: str):
    result = parse_program(_read(path))
    _emit_diagnostics(result.diagnostics)
    if not result.ok:
        raise _CliError(f"{path}: {len(result.errors)} error(s)")
    return result.program


def _load_query(args, kind: QueryKind):
    result = parse_query(_read(args.queryfile))
    _emit_diagnostics(result.diagnostics)
    if not result.ok:
        raise _CliError(f"{args.queryfile}: invalid query")
    if result.query.kind is not kind:
        article = "an" if kind is QueryKind.ENTAIL else "a"
        raise _CliError(f"the {kind.value} command needs {article} '?{kind.value}' query")
    return result.query


def _options(args) -> SolveOptions:
    try:
        cap = parse_int(args.max_world_atoms)
    except ValueError:
        cap = 0
    if cap < 1:
        raise _CliError(
            f"--max-world-atoms must be a positive integer, not {args.max_world_atoms!r}"
        )
    try:
        epsilon = parse_rational(args.epsilon)
    except ValueError:
        epsilon = 0
    if epsilon <= 0:
        raise _CliError(f"--epsilon must be a positive rational, not {args.epsilon!r}")
    return SolveOptions(epsilon=epsilon, max_world_atoms=cap)


def _unfolded(program, args):
    return unfold(program, warn=_warn, grounding=GroundingMode(args.grounding))


# --- subcommand handlers -------------------------------------------------------------
#
# Each handler returns (exit code, JSON body, text form).  The text form is a
# function of no arguments, which run() calls only when --json is absent, or
# None for a JSON-only answer.  A solving command checks its options first,
# then reads its query, then parses the program and checks the query against
# its calendar, and only then grounds and unfolds it: a bad option or query
# costs no grounding.


def _diagnostics_json(diags) -> list[dict]:
    return [{"kind": d.kind.value, "message": d.message, "at": str(d.span or "")} for d in diags]


def _cmd_validate(args):
    result = parse_program(_read(args.file))
    _emit_diagnostics(result.diagnostics)
    errors, warnings = result.errors, result.warnings
    body = {
        "verdict": "ok" if not errors else "error",
        "errors": _diagnostics_json(errors),
        "warnings": _diagnostics_json(warnings),
    }
    verdict = "ok" if not errors else f"{len(errors)} error(s)"
    return 0 if not errors else 2, body, lambda: f"{verdict} ({len(warnings)} warning(s))"


def _program_answer(program):
    text = render_program(program)
    return 0, {"program": text}, lambda: text.rstrip("\n")


def _cmd_ground(args):
    program = _load_program(args.file)
    return _program_answer(ground_program(program, GroundingMode(args.grounding)))


def _cmd_unfold(args):
    program = _load_program(args.file)
    pp = unfold(ground_temporal_variables(program), warn=_warn)
    return _program_answer(pprogram_to_ptprogram(pp, program.calendar))


def _cmd_consistent(args):
    opts = _options(args)
    outcome = check_consistency(_unfolded(_load_program(args.file), args), opts)
    witness = _Witness(outcome.witness) if outcome.witness else None
    body = {
        "verdict": outcome.verdict.value,
        "branch_count": outcome.branch_count,
        "eps": _rat(opts.epsilon),
        "witness": witness,
    }

    def text():
        return "\n".join([outcome.verdict.value, *(witness.lines() if witness else ())])

    return 0 if outcome.verdict is Verdict.CONSISTENT else 1, body, text


def _cmd_entail(args):
    opts = _options(args)
    query = _load_query(args, QueryKind.ENTAIL)
    program = _load_program(args.file)
    annot_diags = validate_annotation(query.annot, program.calendar)
    if any(d.is_error for d in annot_diags):
        _emit_diagnostics(annot_diags)
        raise _CliError("invalid query annotation")
    pp = _unfolded(program, args)
    _emit_diagnostics(annot_diags)  # warnings, after unfolding's own
    outcome = entails(pp, query, program.calendar, opts)
    if outcome.vacuous:
        _warn("the query constraint has an empty solution set")
    verdict = "ENTAILED" if outcome.entailed else "NOT_ENTAILED"
    body = {
        "verdict": verdict,
        "vacuous": outcome.vacuous,
        "branch_count": outcome.branch_count,
        "eps": _rat(opts.epsilon),
        "per_time": [
            {
                "time": v.time,
                "bounds": _interval_json(v.bounds),
                "target": _interval_json(v.target),
                "holds": v.holds,
            }
            for v in outcome.per_time
        ],
    }

    def text():
        lines = [verdict]
        for v in outcome.per_time:
            lines.append(f"  t={v.time}: tightened {v.bounds} target {v.target} -> {v.holds}")
        return "\n".join(lines)

    return 0 if outcome.entailed else 1, body, text


def _cmd_tighten(args):
    opts = _options(args)
    query = _load_query(args, QueryKind.TIGHTEN)
    program = _load_program(args.file)
    if query.at is not None and query.at not in program.calendar:
        raise _CliError(f"time point {query.at} is outside the calendar")
    times = [query.at] if query.at is not None else program.calendar.points
    instances = [substitute_time(query.formula, t) for t in times]
    outcome = tighten(_unfolded(program, args), instances, opts)
    intervals = {str(f): iv for f, iv in zip(instances, outcome.intervals)}
    body = {
        "verdict": "OK",
        "intervals": {k: _interval_json(iv) for k, iv in intervals.items()},
        "branch_count": outcome.branch_count,
        "eps": _rat(opts.epsilon),
        "boundary_sensitive": outcome.boundary_sensitive,
    }
    return 0, body, lambda: "\n".join(f"{k}: {iv}" for k, iv in intervals.items())


def _cmd_maxent(args):
    opts = _options(args)
    outcome = max_entropy_model(_unfolded(_load_program(args.file), args), opts)
    witness = _Witness(outcome.distribution)
    body = {
        "verdict": "OK",
        "entropy": outcome.entropy,
        "branch_count": outcome.branch_count,
        "eps": _rat(opts.epsilon),
        "witness": witness,
    }

    def text():
        return "\n".join([f"entropy {outcome.entropy:.6f} nats", *witness.lines()])

    return 0, body, text


def _load_profile_csv(path: str):
    per_time: dict[str, dict[int, ProbInterval]] = {}
    lines: dict[tuple[str, int], int] = {}  # (slot, time) -> the line giving it
    rows = csv.reader(io.StringIO(_read(path), newline=""))
    start = 1  # the physical line a record starts on; a quoted field may span lines
    for row in rows:
        lineno, start = start, rows.line_num + 1
        if not row or row[0].strip().startswith("#"):
            continue
        if lineno == 1 and row[0].strip().lower() in ("formula", "formula_id", "id"):
            continue
        if len(row) != 4:
            raise _CliError(f"{path}:{lineno}: expected formula_id,time,lo,hi")
        slot, t_text, lo_text, hi_text = (c.strip() for c in row)
        where = f"{path}:{lineno}"
        try:
            t = parse_int(t_text)
        except ValueError:
            raise _CliError(f"{where}: time {t_text!r} is not an integer") from None
        try:
            iv = ProbInterval(parse_rational(lo_text), parse_rational(hi_text))
        except ValueError as exc:
            raise _CliError(f"{where}: {exc}") from None
        if iv.lo > iv.hi:
            raise _CliError(f"{where}: lower bound {lo_text} exceeds upper {hi_text}")
        first = lines.setdefault((slot, t), lineno)
        if first != lineno:
            raise _CliError(f"{where}: {slot} at time {t} repeats line {first}")
        per_time.setdefault(slot, {})[t] = iv
    if not lines:
        raise _CliError(f"{path}: no annotation slices found")
    return per_time, sorted({t for _, t in lines})


def _cmd_evolve(args):
    opts = _options(args)
    skeleton, diags = parse_skeleton(_read(args.skeleton))
    _emit_diagnostics(diags)
    if skeleton is None:
        raise _CliError(f"{args.skeleton}: invalid skeleton")
    per_time, delta = _load_profile_csv(args.profile)
    program = build_evolution_program(skeleton, per_time, delta)
    if not args.verify:
        return _program_answer(program)
    mode = VerificationMode(args.verify)
    try:
        profile = solve_profile(skeleton, per_time, delta, opts)
    except InconsistentProgram as exc:
        return 1, {"verdict": "INCONSISTENT_SLICE", "detail": str(exc)}, None
    report = verify_evolution(profile, program, mode)
    body = {
        "program": render_program(program),
        "mode": mode.value,
        "all_inside": report.all_inside,
        "literal_model": report.literal_model,
        "checks": [
            {
                "formula": c.formula,
                "time": c.time,
                "mass": _rat(c.mass),
                "interval": _interval_json(c.interval),
                "inside": c.inside,
            }
            for c in report.checks
        ],
    }
    return 0, body, None


def _cmd_ialg(args):
    result = eval_interval_expr(args.expr)
    if isinstance(result, bool):
        return 0, {"value": result}, lambda: str(result).lower()
    consistent = is_consistent(result)
    body = {"interval": _interval_json(result), "consistent": consistent}
    return 0, body, lambda: f"{result}{'' if consistent else ' (inconsistent)'}"


# --- argument wiring -----------------------------------------------------------------


# Option groups of (flag, add_argument keywords).  A subcommand takes --json
# and the groups its handler reads; any other option is a usage error.
_SOLVE = (
    ("--epsilon", dict(default=str(SolveOptions.epsilon), help="strict-violation margin")),
    (
        "--max-world-atoms",
        dict(
            default=str(SolveOptions.max_world_atoms),
            help="atom cap for world enumeration (default %(default)s; no environment "
            "variable sets it)",
        ),
    ),
)
_GROUNDING = (
    (
        "--grounding",
        dict(choices=[m.value for m in GroundingMode], default="full", help="grounding mode"),
    ),
)
_VERIFY = (
    (
        "--verify",
        dict(
            choices=[m.value for m in VerificationMode],
            help="verify the construction and report per-slice masses",
        ),
    ),
)
_JSON = ("--json", dict(action="store_true", help="machine-readable output"))

# name -> (handler, help, positional arguments, option groups)
_COMMANDS = {
    "validate": (_cmd_validate, "parse and validate a program", ["file"], ()),
    "ground": (_cmd_ground, "emit the ground program", ["file"], _GROUNDING),
    "unfold": (_cmd_unfold, "emit the temporally unfolded program", ["file"], ()),
    "consistent": (_cmd_consistent, "decide consistency", ["file"], _SOLVE + _GROUNDING),
    "entail": (
        _cmd_entail, "check an entailment query", ["file", "queryfile"], _SOLVE + _GROUNDING
    ),
    "tighten": (
        _cmd_tighten, "tightest entailed interval", ["file", "queryfile"], _SOLVE + _GROUNDING
    ),
    "maxent": (_cmd_maxent, "maximum-entropy model", ["file"], _SOLVE + _GROUNDING),
    "evolve": (
        _cmd_evolve, "build an evolution program", ["skeleton", "profile"], _SOLVE + _VERIFY
    ),
    "ialg": (_cmd_ialg, "evaluate an interval expression", ["expr"], ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tplp", description="Temporal probabilistic logic program toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        for flag, keywords in (*options, _JSON):
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


# Built by the first run() and reused by every later one in the process.
_parser: argparse.ArgumentParser | None = None


def run(argv) -> CommandResult:
    """Answer one command.  The cyclic garbage collector is paused while it
    runs, and left as it was found: a command's objects form acyclic graphs,
    which reference counting alone frees, so the collector's passes over
    them, one per 700 net allocations, would find nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> CommandResult:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(2 if exc.code not in (0, None) else 0, "")
    try:
        code, body, text = args.handler(args)
    except InconsistentProgram:
        code, body, text = 1, {"verdict": "INCONSISTENT_PROGRAM"}, lambda: "INCONSISTENT_PROGRAM"
    except TplpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(exc.exit_code, "")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(2, "")
    return CommandResult(code, _dump(body) if args.json or text is None else text())


def main():
    result = run(sys.argv[1:])
    if result.payload:
        try:
            print(result.payload, flush=True)
        except BrokenPipeError:
            # The reader closed early.  Python flushes stdout again at exit, so
            # point it at devnull to keep that flush quiet (Python docs, "Note
            # on SIGPIPE").
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()

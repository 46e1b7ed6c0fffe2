"""Known-answer checks, run after the timed passes.

``Checker.check(query, outcome)`` returns None for a right answer and a short
reason otherwise.  Three independent sources of truth are used:

* fixture-cli: the hand-written answers in ``expected/fixture_cli.json``;
* every printed witness is parsed back and must be an exact model of the
  program (``tplp.worlds.ki_satisfies`` over exact rationals);
* dense-lp: verdicts and intervals must match ``tests/oracles.BruteForce``,
  the float big-M enumerator over explicit worlds.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from tplp.grounder import GroundingMode, HerbrandBase, ground_program, unfold
from tplp.model import substitute_time
from tplp.parser import parse_program, parse_query
from tplp.worlds import WorldDistribution, ki_satisfies

from oracles import BruteForce

# The tolerance the repository's tests allow between the exact engine and the
# float oracle.
ORACLE_TOL = 1e-6
ENTROPY_TOL = 1e-6


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _option(argv, flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


class Checker:
    def __init__(self):
        self._programs: dict[tuple[str, str], object] = {}
        self._oracle: dict[tuple, object] = {}

    def _unfolded(self, path: str, grounding: str):
        key = (path, grounding)
        if key not in self._programs:
            program = parse_program(Path(path).read_text()).program
            self._programs[key] = unfold(ground_program(program, GroundingMode(grounding)))
        return self._programs[key]

    # -- shared pieces --

    def _witness(self, argv, entries) -> tuple[str | None, WorldDistribution | None]:
        pp = self._unfolded(argv[1], _option(argv, "--grounding", "full"))
        atoms = list(pp.base.atoms) if pp.base is not None else []
        base = HerbrandBase(atoms)
        index = {str(a): i for i, a in enumerate(base.atoms)}
        masses: dict[int, Fraction] = {}
        for entry in entries:
            mask = 0
            for name in entry["world"]:
                if name not in index:
                    return f"witness names unknown atom {name}", None
                mask |= 1 << index[name]
            masses[mask] = masses.get(mask, Fraction(0)) + _frac(entry["p"])
        try:
            dist = WorldDistribution(base, masses)
        except ValueError as exc:
            return f"witness is not a distribution: {exc}", None
        if not ki_satisfies(pp, dist):
            return "witness is not a model of the program", None
        return None, dist

    @staticmethod
    def _entropy(dist: WorldDistribution) -> float:
        return -sum(float(p) * math.log(float(p)) for _, p in dist.items() if p > 0)

    def check(self, query, outcome) -> str | None:
        if outcome.error is not None:
            return outcome.error
        return getattr(self, "_check_" + query.check)(query, outcome)

    # -- per-kind checks --

    def _check_fixture(self, query, outcome) -> str | None:
        exp = query.expect
        if outcome.exit != exp["exit"]:
            return f"exit {outcome.exit}, expected {exp['exit']}"
        text = outcome.payload
        if "payload" in exp and text != exp["payload"]:
            return f"payload {text[:80]!r}"
        if "startswith" in exp and not text.startswith(exp["startswith"]):
            return f"payload {text[:80]!r}"
        if "line1_startswith" in exp:
            lines = text.splitlines()
            if len(lines) < 2 or not lines[1].startswith(exp["line1_startswith"]):
                return "unexpected unfolding"
        for needle in exp.get("contains", []):
            if needle not in text:
                return f"missing {needle}"
        for needle in exp.get("lacks", []):
            if needle in text:
                return f"unexpected {needle}"
        keys = {"verdict", "intervals", "per_time_bounds", "all_inside", "entropy", "witness"}
        if not keys & exp.keys():
            return None
        body = json.loads(text)
        if "verdict" in exp and body.get("verdict") != exp["verdict"]:
            return f"verdict {body.get('verdict')}"
        if "intervals" in exp and body["intervals"] != exp["intervals"]:
            return f"intervals {body['intervals']}"
        if "per_time_bounds" in exp:
            if [v["bounds"] for v in body["per_time"]] != exp["per_time_bounds"]:
                return "entailment bounds differ"
        if "all_inside" in exp and body["all_inside"] is not exp["all_inside"]:
            return f"all_inside {body['all_inside']}"
        if "entropy" in exp and abs(body["entropy"] - exp["entropy"]) > ENTROPY_TOL:
            return f"entropy {body['entropy']}"
        if exp.get("witness"):
            reason, dist = self._witness(query.argv, body["witness"])
            if reason:
                return reason
            if "witness_worlds" in exp and dist.support_size() != exp["witness_worlds"]:
                return f"witness has {dist.support_size()} worlds"
            if exp.get("entropy_matches_witness"):
                if abs(self._entropy(dist) - body["entropy"]) > ENTROPY_TOL:
                    return "reported entropy is not the witness entropy"
        return None

    def _check_validate(self, query, outcome) -> str | None:
        if outcome.exit != 0 or outcome.payload != "ok (0 warning(s))":
            return f"exit {outcome.exit}, payload {outcome.payload[:80]!r}"
        return None

    def _check_ground(self, query, outcome) -> str | None:
        if outcome.exit != 0:
            return f"exit {outcome.exit}"
        lines = outcome.payload.splitlines()
        clauses = sum(1 for line in lines[1:] if line.endswith("."))
        if clauses != query.expect["ground_clauses"]:
            return f"{clauses} ground clauses, expected {query.expect['ground_clauses']}"
        return None

    def _check_witness(self, query, outcome) -> str | None:
        if outcome.exit != 0:
            return f"exit {outcome.exit}"
        body = json.loads(outcome.payload)
        if body["verdict"] != "CONSISTENT":
            return f"verdict {body['verdict']}"
        reason, _ = self._witness(query.argv, body["witness"])
        return reason

    def _check_oracle(self, query, outcome) -> str | None:
        argv = query.argv
        pp = self._unfolded(argv[1], "full")
        consistent = self._oracle.get(argv[1])
        if consistent is None:
            consistent = self._oracle[argv[1]] = BruteForce(pp).consistent()
        body = json.loads(outcome.payload)
        if argv[0] == "consistent":
            verdict = body["verdict"]
            if consistent and verdict != "CONSISTENT":
                return f"verdict {verdict}, oracle finds a model"
            if not consistent and verdict == "CONSISTENT":
                return "verdict CONSISTENT, oracle finds none"
            if (outcome.exit == 0) != (verdict == "CONSISTENT"):
                return f"exit {outcome.exit} for {verdict}"
            if verdict == "CONSISTENT":
                reason, _ = self._witness(argv, body["witness"])
                return reason
            return None
        # tighten
        if not consistent:
            ok = outcome.exit == 1 and body.get("verdict") == "INCONSISTENT_PROGRAM"
            return None if ok else f"exit {outcome.exit} on an inconsistent program"
        if outcome.exit != 0:
            return f"exit {outcome.exit}"
        key = (argv[1], argv[2])
        if key not in self._oracle:
            formula = parse_query(Path(argv[2]).read_text()).query.formula
            instance = substitute_time(formula, 1)
            self._oracle[key] = BruteForce(pp, extra_formulas=[instance]).tighten(instance)
        lo, hi = self._oracle[key]
        (got_lo, got_hi), = body["intervals"].values()
        if abs(float(_frac(got_lo)) - lo) > ORACLE_TOL or abs(float(_frac(got_hi)) - hi) > ORACLE_TOL:
            return f"interval [{got_lo}, {got_hi}], oracle [{lo:.7f}, {hi:.7f}]"
        return None

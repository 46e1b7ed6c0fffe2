import collections
import gc
import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tplp
import tplp.cli
import tplp.grounder
import tplp.model
import tplp.psat
from conftest import FIXTURE_PROGRAMS, golden_file
from tplp import errors
from tplp.cli import run
from tplp.grounder import HerbrandBase
from tplp.model import TAtom
from tplp.parser import parse_program, render_program
from tplp.worlds import WorldDistribution


def invoke(*argv):
    return run(list(argv))


def jpayload(result):
    return json.loads(result.payload)


class TestValidate:
    def test_empty_program_ok(self, fixtures):
        res = invoke("validate", str(fixtures / "empty.tpl"))
        assert res.exit_code == 0
        assert "0 warning(s)" in res.payload

    def test_json_shape(self, fixtures):
        res = invoke("validate", str(fixtures / "shipping.tpl"), "--json")
        body = jpayload(res)
        assert body["verdict"] == "ok" and body["errors"] == []

    def test_invalid_program(self, tmp_path):
        bad = tmp_path / "bad.tpl"
        bad.write_text("calendar 1..8. a@Y : <Y:3~5, [0.5,0.5], #>.")
        res = invoke("validate", str(bad))
        assert res.exit_code == 2

    def test_missing_file(self):
        assert invoke("validate", "no-such-file.tpl").exit_code == 2

    @pytest.mark.parametrize(
        "text, stderr",
        [
            # a bad constants statement, then recovery at the next clause
            (
                "calendar 1..1.\nconstants 1.\na@Y : <Y = 1, [0.5] [0.5]>.\n",
                "2:11 error[Syntax]: expected a constant name, found '1'\n"
                "3:21 error[Syntax]: expected ',', found '['\n",
            ),
            (
                "calendar 1..2.\na@Y : <X = 1, [0.5], [0.5]>.\n",
                "2:8 error[Syntax]: X is an object variable; temporal variables start with Y\n",
            ),
            (
                "calendar 1..2.\na@Y : <Y = 1 and Y2 = 1, [0.5], [0.5]>.\n",
                "2:7 error[Syntax]: constraint must bind exactly one principal variable, "
                "got ['Y', 'Y2']\n",
            ),
            (
                "calendar 1..2.\na@Y : <Y = Y + 1, [0.5], [0.5]>.\n",
                "2:7 error[Syntax]: principal variable Y may not occur inside a temporal term\n",
            ),
            (
                "calendar 1..2.\n"
                "h@Y : <Y = 1, [0.5], [0.5]> :- a@Y1 and b@Y2 : <Y1 = 1, [0.5], [0.5]>.\n",
                "2:32 error[Syntax]: formula mixes temporal variables ['Y1', 'Y2']\n",
            ),
        ],
        ids=["constants", "object-variable", "two-principals", "principal-in-term", "formula"],
    )
    def test_syntax_errors(self, tmp_path, capsys, text, stderr):
        bad = tmp_path / "bad.tpl"
        bad.write_text(text)
        res = invoke("validate", str(bad))
        count = stderr.count("\n")
        assert (res.exit_code, res.payload) == (2, f"{count} error(s) (0 warning(s))")
        assert capsys.readouterr().err == stderr


class TestNonUtf8Input:
    """A file that is not UTF-8 is an input error that names the file."""

    DECODE = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"

    def check(self, capsys, argv, path, position):
        res = invoke(*argv)
        assert (res.exit_code, res.payload) == (2, "")
        message = self.DECODE.format(position)
        assert capsys.readouterr().err == f"error: cannot read {path}: {message}\n"

    def test_program(self, tmp_path, capsys):
        path = tmp_path / "latin.tpl"
        path.write_bytes(b"calendar 1..1.\n% \xff\n")
        self.check(capsys, ["validate", str(path)], path, 17)

    def test_query(self, fixtures, tmp_path, capsys):
        path = tmp_path / "latin.tpq"
        path.write_bytes(b"?tighten a@1. % \xff")
        argv = ["tighten", str(fixtures / "p0.tpl"), str(path)]
        self.check(capsys, argv, path, 16)

    def test_csv_profile(self, fixtures, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes((fixtures / "evolution_profile.csv").read_bytes() + b"\xff\n")
        argv = ["evolve", str(fixtures / "evolution_skeleton.tpl"), str(path)]
        self.check(capsys, argv, path, len((fixtures / "evolution_profile.csv").read_bytes()))


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is skipped: a file answers exactly as
    it does without one."""

    def assert_same(self, capsys, argv, position, source):
        bom = source.with_name("bom-" + source.name)
        bom.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        plain = invoke(*argv), capsys.readouterr()
        argv[position] = str(bom)
        assert (invoke(*argv), capsys.readouterr()) == plain

    def test_program(self, fixtures, tmp_path, capsys):
        source = tmp_path / "p0.tpl"
        source.write_bytes((fixtures / "p0.tpl").read_bytes())
        self.assert_same(capsys, ["consistent", str(source), "--json"], 1, source)

    def test_csv_profile(self, fixtures, tmp_path, capsys):
        source = tmp_path / "profile.csv"
        source.write_bytes((fixtures / "evolution_profile.csv").read_bytes())
        argv = ["evolve", str(fixtures / "evolution_skeleton.tpl"), str(source)]
        self.assert_same(capsys, argv, 2, source)


class TestConsistent:
    def test_consistent_exit_zero(self, fixtures):
        res = invoke("consistent", str(fixtures / "p0.tpl"))
        assert res.exit_code == 0 and res.payload.startswith("CONSISTENT")

    def test_inconsistent_exit_one(self, fixtures):
        res = invoke("consistent", str(fixtures / "p1.tpl"))
        assert res.exit_code == 1 and res.payload.startswith("INCONSISTENT")

    def test_unknown_eps_exit_one(self, fixtures):
        res = invoke("consistent", str(fixtures / "boundary.tpl"))
        assert res.exit_code == 1 and res.payload.startswith("UNKNOWN_EPS")

    def test_witness_in_json(self, fixtures):
        body = jpayload(invoke("consistent", str(fixtures / "p0.tpl"), "--json"))
        assert body["verdict"] == "CONSISTENT"
        assert body["eps"] == "1/1000000"
        total = sum(
            int(entry["p"].split("/")[0]) / int(entry["p"].split("/")[1])
            for entry in body["witness"]
        )
        assert abs(total - 1) < 1e-12

    def test_relevant_grounding_fits_cap(self, fixtures):
        res = invoke("consistent", str(fixtures / "shipping.tpl"), "--grounding", "relevant")
        assert res.exit_code == 0

    def test_full_grounding_hits_cap(self, fixtures):
        res = invoke("consistent", str(fixtures / "shipping.tpl"))
        assert res.exit_code == 3

    def test_program_with_validation_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.tpl"
        bad.write_text("calendar 1..8. a@Y : <Y:3~5, [0.5,0.5], #>.")
        res = invoke("consistent", str(bad))
        assert (res.exit_code, res.payload) == (2, "")
        assert capsys.readouterr().err == (
            "1:30 error[LengthMismatch]: lower weight list has 2 values but |sol| = 3\n"
            "1:41 error[SharpCardinality]: # requires a singleton solution set, but |sol| = 3\n"
            f"error: {bad}: 2 error(s)\n"
        )

    def test_env_cap_not_read(self, fixtures, monkeypatch):
        # --max-world-atoms alone sets the cap; a cap of 1 would exit 3 here
        monkeypatch.setenv("TPLP_MAX_WORLD_ATOMS", "1")
        res = invoke("consistent", str(fixtures / "p0.tpl"))
        assert res.exit_code == 0


class TestUnfoldGround:
    def test_unfold_first_rule_first(self, fixtures):
        res = invoke("unfold", str(fixtures / "shipping.tpl"))
        assert res.exit_code == 0
        lines = res.payload.splitlines()
        assert lines[0] == "calendar 1..8."
        assert lines[1].startswith("arrived(Item,Place)@3 : <Y = 3, [0.25], [0.4]>")
        assert "sent(Item,Place)@1 : <Y = 1, [0.9], [1]>" in lines[1]
        assert lines[2].startswith("arrived(Item,Place)@4 : <Y = 4, [0.15], [0.24]>")
        assert lines[3].startswith("arrived(Item,Place)@5 : <Y = 5, [0.1], [0.16]>")

    def test_unfold_output_reparses(self, fixtures):
        from tplp.parser import parse_program

        res = invoke("unfold", str(fixtures / "shipping.tpl"))
        assert parse_program(res.payload + "\n").ok

    def test_ground_relevant(self, fixtures):
        res = invoke("ground", str(fixtures / "shipping.tpl"), "--grounding", "relevant")
        assert res.exit_code == 0
        assert "arrived(shoes,rome)" in res.payload
        assert "arrived(shoes,paris)" not in res.payload

    def test_ground_full_includes_cross_pairs(self, fixtures):
        res = invoke("ground", str(fixtures / "shipping.tpl"))
        assert "arrived(shoes,paris)" in res.payload


class TestEntail:
    def test_entailed(self, fixtures):
        res = invoke(
            "entail",
            str(fixtures / "shipping.tpl"),
            str(fixtures / "arrival_entail.tpq"),
            "--grounding",
            "relevant",
        )
        assert res.exit_code == 0 and res.payload.startswith("ENTAILED")

    def test_not_entailed(self, fixtures):
        res = invoke(
            "entail",
            str(fixtures / "shipping.tpl"),
            str(fixtures / "arrival_entail_tight.tpq"),
            "--grounding",
            "relevant",
            "--json",
        )
        assert res.exit_code == 1
        body = jpayload(res)
        assert body["verdict"] == "NOT_ENTAILED"
        assert body["per_time"][0]["bounds"] == ["3/10", "2/5"]

    def test_inconsistent_program_reported(self, fixtures, tmp_path):
        q = tmp_path / "q.tpq"
        q.write_text("?entail a@Y : <Y=1, [0], [1]>.\n")
        res = invoke("entail", str(fixtures / "p1.tpl"), str(q))
        assert res.exit_code == 1 and "INCONSISTENT_PROGRAM" in res.payload

    def test_wrong_query_kind(self, fixtures):
        res = invoke(
            "entail", str(fixtures / "shipping.tpl"), str(fixtures / "arrival_tighten.tpq")
        )
        assert res.exit_code == 2

    def test_companion_variables_in_the_query_rejected(self, fixtures, tmp_path, capsys):
        q = tmp_path / "q.tpq"
        q.write_text("?entail a@Y : <Y = Y2, [0.1], [0.9]>.\n")
        res = invoke("entail", str(fixtures / "p0.tpl"), str(q))
        assert (res.exit_code, res.payload) == (2, "")
        assert capsys.readouterr().err == (
            "1:15 error[Syntax]: query constraints cannot use companion temporal variables, "
            f"found Y2\nerror: {q}: invalid query\n"
        )

    def test_every_point_under_the_cap(self, fixtures, tmp_path):
        # Together the 8 instances add 2 atoms to the 15-atom base, each in
        # a component of its own, so the query answers.
        q = tmp_path / "q.tpq"
        q.write_text(
            "?entail arrived(letter,paris)@Y : "
            "<Y:1~8, [0,0,0,0,0,0,0,0], [1,1,1,1,1,1,1,1]>.\n"
        )
        res = invoke("entail", str(fixtures / "shipping.tpl"), str(q), "--grounding", "relevant")
        assert res.exit_code == 0 and res.payload.startswith("ENTAILED")
        assert "t=4: tightened [0.2, 0.24] target [0, 1] -> True" in res.payload


class TestTighten:
    def test_point_query(self, fixtures):
        res = invoke(
            "tighten",
            str(fixtures / "shipping.tpl"),
            str(fixtures / "arrival_tighten.tpq"),
            "--grounding",
            "relevant",
            "--json",
        )
        assert res.exit_code == 0
        body = jpayload(res)
        assert body["intervals"] == {"arrived(letter,paris)@3": ["3/10", "2/5"]}
        assert body["boundary_sensitive"] is False

    def test_all_times_query(self, fixtures):
        res = invoke(
            "tighten", str(fixtures / "p0.tpl"), str(fixtures / "p0_tighten_all.tpq"), "--json"
        )
        assert res.exit_code == 0
        body = jpayload(res)
        assert body["intervals"]["b@1"] == ["2/5", "3/5"]
        assert body["intervals"]["b@2"] == ["0/1", "1/1"]

    def test_inconsistent_program(self, fixtures, tmp_path):
        q = tmp_path / "q.tpq"
        q.write_text("?tighten a@1.\n")
        res = invoke("tighten", str(fixtures / "p1.tpl"), str(q))
        assert res.exit_code == 1 and "INCONSISTENT_PROGRAM" in res.payload

    def test_time_outside_calendar_rejected(self, fixtures, tmp_path):
        q = tmp_path / "q.tpq"
        q.write_text("?tighten b@9.\n")
        res = invoke("tighten", str(fixtures / "p0.tpl"), str(q))
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "?tighten a@1 and b@2.",
                "tighten atoms must share a single time point (or all use '*')",
            ),
            ("?tighten a@1 and b@*.", "tighten atoms must all carry '@<time>' or all carry '@*'"),
        ],
        ids=["two-points", "point-and-star"],
    )
    def test_atoms_at_different_times_rejected(self, fixtures, tmp_path, capsys, text, message):
        q = tmp_path / "q.tpq"
        q.write_text(text)
        res = invoke("tighten", str(fixtures / "p0.tpl"), str(q))
        assert (res.exit_code, res.payload) == (2, "")
        err = capsys.readouterr().err
        assert err == f"1:10 error[Syntax]: {message}\nerror: {q}: invalid query\n"

    def test_paris_subprogram_same_bounds(self, fixtures):
        res = invoke(
            "tighten",
            str(fixtures / "shipping_paris.tpl"),
            str(fixtures / "arrival_tighten.tpq"),
            "--grounding",
            "relevant",
            "--json",
        )
        assert res.exit_code == 0
        assert jpayload(res)["intervals"] == {"arrived(letter,paris)@3": ["3/10", "2/5"]}

    def test_every_point_in_one_engine(self, fixtures, monkeypatch):
        engines = []
        init = tplp.psat._Engine.__init__

        def counted(self, *args, **kwargs):
            engines.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(tplp.psat._Engine, "__init__", counted)
        res = invoke("tighten", str(fixtures / "p0.tpl"), str(fixtures / "p0_tighten_all.tpq"))
        assert res.exit_code == 0 and len(engines) == 1

    def test_every_point_under_the_cap(self, fixtures, tmp_path):
        # 15 atoms at relevant grounding; @1 and @2 are not among them, so
        # all instances together make 17 atoms but no component exceeds 1.
        q = tmp_path / "q.tpq"
        q.write_text("?tighten arrived(letter,paris)@*.\n")
        res = invoke(
            "tighten", str(fixtures / "shipping.tpl"), str(q), "--grounding", "relevant", "--json"
        )
        assert res.exit_code == 0
        body = jpayload(res)
        assert body["intervals"] == {
            "arrived(letter,paris)@1": ["0/1", "1/1"],
            "arrived(letter,paris)@2": ["0/1", "1/1"],
            "arrived(letter,paris)@3": ["3/10", "2/5"],
            "arrived(letter,paris)@4": ["1/5", "6/25"],
            "arrived(letter,paris)@5": ["1/10", "4/25"],
            "arrived(letter,paris)@6": ["3/20", "3/10"],
            "arrived(letter,paris)@7": ["0/1", "0/1"],
            "arrived(letter,paris)@8": ["1/20", "1/10"],
        }
        assert body["branch_count"] == 1 and body["boundary_sensitive"] is False

    @pytest.mark.parametrize(
        "formula, interval", [("a@1 and b@1", ["0/1", "3/5"]), ("a@1 or b@1", ["1/2", "1/1"])]
    )
    def test_formula_over_two_components(self, fixtures, tmp_path, formula, interval):
        # a@1 and b@1 are separate components of p0, with ranges [1/2, 7/10]
        # and [2/5, 3/5]: and_ig and or_ig of them
        q = tmp_path / "q.tpq"
        q.write_text(f"?tighten {formula}.\n")
        res = invoke("tighten", str(fixtures / "p0.tpl"), str(q), "--json")
        assert res.exit_code == 0
        assert jpayload(res)["intervals"] == {formula: interval}

    def test_query_component_over_the_cap(self, fixtures, tmp_path):
        # 17 atoms outside p0's 2-atom base, one component each: the world
        # cap counts the base alone, and the parts fold by and_ig
        q = tmp_path / "q.tpq"
        q.write_text("?tighten " + " and ".join(f"a{i}@1" for i in range(1, 18)) + ".\n")
        res = invoke("tighten", str(fixtures / "p0.tpl"), str(q), "--json")
        assert res.exit_code == 0
        assert list(jpayload(res)["intervals"].values()) == [["0/1", "1/1"]]


class TestMaxent:
    def test_entropy_reported(self, fixtures):
        res = invoke("maxent", str(fixtures / "mx.tpl"), "--json")
        assert res.exit_code == 0
        body = jpayload(res)
        assert abs(body["entropy"] - 0.6931471805599453) < 1e-4

    def test_inconsistent(self, fixtures):
        res = invoke("maxent", str(fixtures / "p1.tpl"))
        assert res.exit_code == 1

    def test_shipping_witness_pinned(self, fixtures):
        # 1,024 worlds, too many for tests/golden/cli.json: the digest of its
        # stdout without the float entropy line, as test_golden_cli.py strips it
        res = invoke("maxent", str(fixtures / "shipping.tpl"), "--grounding", "relevant", "--json")
        assert res.exit_code == 0
        witness = jpayload(res)["witness"]
        assert len(witness) == 1024
        assert sum(Fraction(e["p"]) for e in witness) == 1
        stdout = "".join(
            line for line in (res.payload + "\n").splitlines(keepends=True)
            if not line.startswith('  "entropy": ')
        )
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "9c52f0de35f4a93d694f847e00b9e6ae2ab5d17c86f743d21578ed09e0a873f5"
        )


class TestSolvingGroundsWhileUnfolding:
    """The solving commands unfold the parsed program under their grounding
    mode and never build the ground program; only `ground` does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["consistent", "shipping.tpl", "--max-world-atoms", "200"],
            ["maxent", "p0.tpl"],
            ["tighten", "shipping.tpl", "arrival_tighten.tpq", "--grounding", "relevant"],
            ["entail", "shipping.tpl", "arrival_entail.tpq", "--grounding", "relevant"],
        ],
        ids=["consistent", "maxent", "tighten", "entail"],
    )
    def test_no_ground_program(self, fixtures, monkeypatch, argv):
        def fail(*args, **kwargs):
            raise AssertionError("built the ground program")

        argv = [str(fixtures / a) if a.endswith((".tpl", ".tpq")) else a for a in argv]
        expected = invoke(*argv)
        monkeypatch.setattr(tplp.cli, "ground_program", fail)
        assert invoke(*argv) == expected
        assert expected.exit_code in (0, 1) and expected.payload


class TestChecksBeforeGrounding:
    """A solving command checks its options, then its query, and grounds the
    program only after both pass."""

    @pytest.fixture
    def no_grounding(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("grounded the program")

        # the solving commands ground as they unfold
        monkeypatch.setattr(tplp.cli, "ground_program", fail)
        monkeypatch.setattr(tplp.cli, "unfold", fail)

    @pytest.fixture
    def bad_query(self, tmp_path):
        q = tmp_path / "q.tpq"
        q.write_text("?tighten a@1 and.\n")
        return str(q)

    @pytest.mark.parametrize(
        "argv",
        [
            ["consistent", "@shipping.tpl", "--epsilon", "0"],
            ["maxent", "@shipping.tpl", "--max-world-atoms", "0"],
            ["tighten", "@shipping.tpl", "@arrival_tighten.tpq", "--epsilon", "0"],
            ["entail", "@shipping.tpl", "@arrival_entail.tpq", "--max-world-atoms", "0"],
            ["tighten", "@shipping.tpl", "bad"],
            ["entail", "@shipping.tpl", "bad"],
        ],
        ids=["consistent", "maxent", "tighten-option", "entail-option", "tighten", "entail"],
    )
    def test_exits_before_grounding(self, fixtures, no_grounding, bad_query, capsys, argv):
        argv = [
            bad_query if a == "bad" else str(fixtures / a[1:]) if a.startswith("@") else a
            for a in argv
        ]
        res = invoke(*argv)
        assert (res.exit_code, res.payload) == (2, "")
        assert capsys.readouterr().err.startswith(("error: --", "1:"))

    def test_invalid_annotation_before_grounding(self, fixtures, no_grounding, tmp_path, capsys):
        q = tmp_path / "q.tpq"
        q.write_text("?entail arrived(letter,paris)@Y : <Y:1~2, [0.1], [0.9]>.\n")
        res = invoke("entail", str(fixtures / "shipping.tpl"), str(q))
        assert (res.exit_code, res.payload) == (2, "")
        err = capsys.readouterr().err
        assert "error[LengthMismatch]" in err and err.endswith("error: invalid query annotation\n")

    def test_time_outside_the_calendar_before_grounding(
        self, fixtures, no_grounding, tmp_path, capsys
    ):
        q = tmp_path / "q.tpq"
        q.write_text("?tighten arrived(letter,paris)@99.\n")
        res = invoke("tighten", str(fixtures / "shipping.tpl"), str(q))
        assert (res.exit_code, res.payload) == (2, "")
        assert capsys.readouterr().err == "error: time point 99 is outside the calendar\n"

    def test_bad_query_reported_before_bad_program(self, tmp_path, bad_query, capsys):
        program = tmp_path / "p.tpl"
        program.write_text("calendar 1..2.\na@1 : <Y=1, [0.5], [0.5]\n")
        res = invoke("tighten", str(program), bad_query)
        assert (res.exit_code, res.payload) == (2, "")
        err = capsys.readouterr().err
        assert err.endswith(f"error: {bad_query}: invalid query\n") and str(program) not in err


class TestEvolve:
    def test_build_only(self, fixtures):
        res = invoke(
            "evolve",
            str(fixtures / "evolution_skeleton.tpl"),
            str(fixtures / "evolution_profile.csv"),
        )
        assert res.exit_code == 0
        assert "a@Y : <Y: 1 ~ 2, [0.3,0.6], [0.3,0.6]>." in res.payload

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--epsilon", "0", "--epsilon must be a positive rational, not '0'"),
            ("--max-world-atoms", "0", "--max-world-atoms must be a positive integer, not '0'"),
        ],
    )
    @pytest.mark.parametrize("verify", [[], ["--verify", "literal"]], ids=["build", "verify"])
    def test_bad_solve_option_exits_2(self, fixtures, monkeypatch, capsys, option, value,
                                      message, verify):
        # checked before the skeleton or the profile is read
        def fail(*args, **kwargs):
            raise AssertionError("read the skeleton")

        monkeypatch.setattr(tplp.cli, "parse_skeleton", fail)
        res = invoke(
            "evolve",
            str(fixtures / "evolution_skeleton.tpl"),
            str(fixtures / "evolution_profile.csv"),
            option,
            value,
            *verify,
        )
        assert (res.exit_code, res.payload) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_verify_conditional_passes(self, fixtures):
        res = invoke(
            "evolve",
            str(fixtures / "evolution_skeleton.tpl"),
            str(fixtures / "evolution_profile.csv"),
            "--verify",
            "conditional",
        )
        assert res.exit_code == 0
        body = jpayload(res)
        assert body["all_inside"] is True
        assert [c["mass"] for c in body["checks"]] == ["3/10", "3/5"]

    def test_verify_literal_reports_dilution(self, fixtures):
        res = invoke(
            "evolve",
            str(fixtures / "evolution_skeleton.tpl"),
            str(fixtures / "evolution_profile.csv"),
            "--verify",
            "literal",
        )
        assert res.exit_code == 0
        body = jpayload(res)
        assert body["all_inside"] is False
        assert body["literal_model"] is False
        first = body["checks"][0]
        assert first["mass"] == "3/20" and first["inside"] is False

    def test_single_slice_is_legal(self, fixtures, tmp_path):
        csv_file = tmp_path / "one.csv"
        csv_file.write_text("formula_id,time,lo,hi\nc0.head,1,0.3,0.3\n")
        res = invoke("evolve", str(fixtures / "evolution_skeleton.tpl"), str(csv_file))
        assert res.exit_code == 0
        assert "a@Y : <Y = 1, [0.3], [0.3]>." in res.payload

    def test_missing_slice(self, tmp_path):
        skeleton = tmp_path / "rule.tpl"
        skeleton.write_text("calendar 1..2.\nh :- a.\n")
        csv_file = tmp_path / "gap.csv"
        csv_file.write_text(
            "formula_id,time,lo,hi\n"
            "c0.head,1,0.3,0.3\nc0.head,2,0.4,0.4\nc0.b0,1,0.5,0.5\n"
        )
        res = invoke("evolve", str(skeleton), str(csv_file))
        assert res.exit_code == 2

    def test_skeleton_arity_mismatch(self, tmp_path, capsys):
        skeleton = tmp_path / "arity.tpl"
        skeleton.write_text("calendar 1..1.\na(x) :- a.\n")
        csv_file = tmp_path / "p.csv"
        csv_file.write_text("c0.head,1,0.3,0.3\nc0.b0,1,0.1,0.2\n")
        res = invoke("evolve", str(skeleton), str(csv_file))
        assert res.exit_code == 2 and res.payload == ""
        assert "2:9 error[ArityMismatch]" in capsys.readouterr().err

    @pytest.mark.parametrize("verify", [[], ["--verify", "conditional"]])
    def test_unknown_slot(self, tmp_path, capsys, verify):
        skeleton = tmp_path / "rule.tpl"
        skeleton.write_text("calendar 1..1.\nh :- a.\n")
        csv_file = tmp_path / "p.csv"
        csv_file.write_text("c0.head,1,0.3,0.3\nc0.b0,1,0.1,0.2\nc9.head,1,0.1,0.2\n")
        res = invoke("evolve", str(skeleton), str(csv_file), *verify)
        assert res.exit_code == 2 and res.payload == ""
        assert "c9.head" in capsys.readouterr().err

    def test_malformed_csv(self, fixtures, tmp_path):
        csv_file = tmp_path / "bad.csv"
        csv_file.write_text("c0.head,notatime,0.3,0.3\n")
        res = invoke(
            "evolve", str(fixtures / "evolution_skeleton.tpl"), str(csv_file)
        )
        assert res.exit_code == 2

    def test_inverted_interval_in_csv(self, tmp_path, capsys):
        skeleton = tmp_path / "a.tpl"
        skeleton.write_text("calendar 1..2.\na.\n")
        csv_file = tmp_path / "inverted.csv"
        csv_file.write_text("formula_id,time,lo,hi\nc0.head,1,0.6,0.3\n")
        res = invoke("evolve", str(skeleton), str(csv_file))
        assert res.exit_code == 2 and res.payload == ""
        err = capsys.readouterr().err
        assert err == f"error: {csv_file}:2: lower bound 0.6 exceeds upper 0.3\n"

    def test_repeated_row_in_csv(self, tmp_path, capsys):
        skeleton = tmp_path / "a.tpl"
        skeleton.write_text("calendar 1..2.\na.\n")
        csv_file = tmp_path / "twice.csv"
        csv_file.write_text("formula_id,time,lo,hi\nc0.head,1,0.3,0.3\nc0.head,1,0.9,0.9\n")
        res = invoke("evolve", str(skeleton), str(csv_file))
        assert res.exit_code == 2 and res.payload == ""
        err = capsys.readouterr().err
        assert err == f"error: {csv_file}:3: c0.head at time 1 repeats line 2\n"

    def test_zero_denominator_in_csv(self, fixtures, tmp_path, capsys):
        csv_file = tmp_path / "zero.csv"
        csv_file.write_text("formula_id,time,lo,hi\nc0.head,1,1/0,1\n")
        res = invoke("evolve", str(fixtures / "evolution_skeleton.tpl"), str(csv_file))
        assert res.exit_code == 2 and res.payload == ""
        assert capsys.readouterr().err == f"error: {csv_file}:2: zero denominator in '1/0'\n"

    def test_time_not_an_integer_in_csv(self, fixtures, tmp_path, capsys):
        csv_file = tmp_path / "time.csv"
        csv_file.write_text("formula_id,time,lo,hi\nc0.head,x,0.3,0.3\n")
        res = invoke("evolve", str(fixtures / "evolution_skeleton.tpl"), str(csv_file))
        assert res.exit_code == 2 and res.payload == ""
        assert capsys.readouterr().err == f"error: {csv_file}:2: time 'x' is not an integer\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a quoted time spans lines 2 and 3, so the bad row is on line 4
            ('"c0.\nhead",1,0.3,0.3\nc0.head,x,0.3,0.3\n', "4: time 'x' is not an integer"),
            ('c0.head,1,"0.3\n",0.3\nc0.head,1,0.9,0.9\n', "4: c0.head at time 1 repeats line 2"),
        ],
    )
    def test_csv_messages_name_physical_lines(self, fixtures, tmp_path, capsys, rows, message):
        csv_file = tmp_path / "ml.csv"
        csv_file.write_text("formula_id,time,lo,hi\n" + rows)
        res = invoke("evolve", str(fixtures / "evolution_skeleton.tpl"), str(csv_file))
        assert res.exit_code == 2 and res.payload == ""
        assert capsys.readouterr().err == f"error: {csv_file}:{message}\n"

    @pytest.mark.parametrize("time", ["1_0", "+1", "\u0661"])
    def test_time_is_ascii_digits_in_csv(self, fixtures, tmp_path, capsys, time):
        csv_file = tmp_path / "time.csv"
        csv_file.write_text(f"formula_id,time,lo,hi\nc0.head,{time},0.3,0.3\n", encoding="utf-8")
        res = invoke("evolve", str(fixtures / "evolution_skeleton.tpl"), str(csv_file))
        assert res.exit_code == 2 and res.payload == ""
        err = capsys.readouterr().err
        assert err == f"error: {csv_file}:2: time {time!r} is not an integer\n"

    def test_malformed_bound_in_csv(self, fixtures, tmp_path, capsys):
        csv_file = tmp_path / "bound.csv"
        csv_file.write_text("formula_id,time,lo,hi\nc0.head,1,abc,0.3\n")
        res = invoke("evolve", str(fixtures / "evolution_skeleton.tpl"), str(csv_file))
        assert res.exit_code == 2 and res.payload == ""
        assert capsys.readouterr().err == f"error: {csv_file}:2: malformed rational 'abc'\n"

    def test_csv_with_only_a_comment(self, fixtures, tmp_path, capsys):
        csv_file = tmp_path / "comment.csv"
        csv_file.write_text("# no rows yet\n")
        res = invoke("evolve", str(fixtures / "evolution_skeleton.tpl"), str(csv_file))
        assert (res.exit_code, res.payload) == (2, "")
        assert capsys.readouterr().err == f"error: {csv_file}: no annotation slices found\n"

    def test_inconsistent_slice(self, tmp_path, capsys):
        # two facts pin a at time 1 to 0.2 and to 0.8
        skeleton = tmp_path / "twice.tpl"
        skeleton.write_text("calendar 1..1.\na.\na.\n")
        csv_file = tmp_path / "apart.csv"
        csv_file.write_text("c0.head,1,0.2,0.2\nc1.head,1,0.8,0.8\n")
        res = invoke("evolve", str(skeleton), str(csv_file), "--verify", "literal")
        assert res.exit_code == 1 and capsys.readouterr().err == ""
        assert jpayload(res) == {
            "detail": "time slice 1 is INCONSISTENT; no per-time model exists",
            "verdict": "INCONSISTENT_SLICE",
        }


class TestIalg:
    def test_interval_output(self):
        res = invoke("ialg", "join_k([0,0.3],[0.7,1])")
        assert res.exit_code == 0
        assert res.payload == "[0.7, 0.3] (inconsistent)"

    def test_bool_output(self):
        res = invoke("ialg", "leq_b([0,0],[1,1])")
        assert res.payload == "true"

    def test_json(self):
        body = jpayload(invoke("ialg", "join_k([0,0.3],[0.7,1])", "--json"))
        assert body == {"interval": ["7/10", "3/10"], "consistent": False}

    def test_bad_expression(self):
        assert invoke("ialg", "what(1,2)").exit_code == 2

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("join_k([0,1])", "join_k takes 2 arguments, got 1"),
            ("join_k(leq_b([0,1],[0,1]),[0,1])", "join_k expects interval arguments"),
        ],
        ids=["arity", "boolean-argument"],
    )
    def test_operator_misuse(self, capsys, expr, message):
        res = invoke("ialg", expr)
        assert (res.exit_code, res.payload) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_denominator(self, capsys):
        res = invoke("ialg", "[1/0, 1]")
        assert res.exit_code == 2 and res.payload == ""
        assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"

    @pytest.mark.parametrize(
        "expr, number", [("[1-2,1]", "1-2"), ("[1/2/3,1]", "1/2/3"), ("[-,1]", "-")]
    )
    def test_malformed_number(self, capsys, expr, number):
        res = invoke("ialg", expr)
        assert res.exit_code == 2 and res.payload == ""
        assert capsys.readouterr().err == f"error: malformed rational '{number}'\n"

    def test_unexpected_character(self, capsys):
        res = invoke("ialg", "join_k([0,1],[0,1])$")
        assert (res.exit_code, res.payload) == (2, "")
        assert capsys.readouterr().err == "error: unexpected character '$' at offset 19\n"


class TestMalformedNumbers:
    """Every number a user types is read as NUM by one reader, so a program
    weight, an ialg bound, --epsilon and an evolve CSV bound reject the same
    literals, each exiting 2 with stderr naming the literal."""

    # literal -> (validate's diagnostics for "[<literal>]" at line 2 column 16,
    #             the reason parse_rational gives)
    REJECTED = {
        "1_0/20": (
            "2:17 error[Syntax]: unexpected character '_'\n"
            "2:18 error[Syntax]: expected ']', found '0'\n",
            "malformed rational '1_0/20'",
        ),
        "+0.5": ("2:16 error[Syntax]: expected a number\n", "malformed rational '+0.5'"),
        ".5": (
            "2:16 error[Syntax]: expected a number\n"
            "2:17 error[Syntax]: expected a predicate name, found '5'\n",
            "malformed rational '.5'",
        ),
        "1/-2": (
            "2:18 error[Syntax]: expected a denominator, found '-'\n",
            "malformed rational '1/-2'",
        ),
        "-0.1": ("2:16 error[Syntax]: expected a number\n", "malformed rational '-0.1'"),
        # ARABIC-INDIC DIGIT FIVE
        "\u0665": (
            "2:16 error[Syntax]: unexpected character '\u0665'\n"
            "2:17 error[Syntax]: expected a number\n",
            "malformed rational '\u0665'",
        ),
        "0.1234567891": (
            "2:16 error[Syntax]: decimal literal '0.1234567891' has more than 9 fractional "
            "digits\n",
            "decimal literal '0.1234567891' has more than 9 fractional digits",
        ),
        "1/0": (
            "2:16 error[Syntax]: zero denominator in '1/0'\n",
            "zero denominator in '1/0'",
        ),
    }
    ACCEPTED = ["3/7", "0.25"]

    @pytest.fixture
    def inputs(self, tmp_path):
        """Write a program weight and a CSV bound holding the literal."""

        def write(literal):
            program = tmp_path / "w.tpl"
            program.write_text(
                f"calendar 1..1.\na@Y : <Y = 1, [{literal}], [1]>.\n", encoding="utf-8"
            )
            skeleton = tmp_path / "s.tpl"
            skeleton.write_text("calendar 1..1.\na.\n")
            profile = tmp_path / "p.csv"
            profile.write_text(
                f"formula_id,time,lo,hi\nc0.head,1,{literal},1\n", encoding="utf-8"
            )
            return str(program), str(skeleton), str(profile)

        return write

    @pytest.mark.parametrize("literal", REJECTED)
    def test_program_weight(self, inputs, capsys, literal):
        program, _, _ = inputs(literal)
        assert invoke("validate", program).exit_code == 2
        assert capsys.readouterr().err == self.REJECTED[literal][0]

    @pytest.mark.parametrize("literal", REJECTED)
    def test_ialg_bound(self, capsys, literal):
        res = invoke("ialg", f"[{literal},1]")
        assert res.exit_code == 2 and res.payload == ""
        assert capsys.readouterr().err == f"error: {self.REJECTED[literal][1]}\n"

    @pytest.mark.parametrize("literal", REJECTED)
    def test_epsilon(self, fixtures, capsys, literal):
        res = invoke("consistent", str(fixtures / "p0.tpl"), "--epsilon", literal)
        assert res.exit_code == 2 and res.payload == ""
        err = capsys.readouterr().err
        assert err == f"error: --epsilon must be a positive rational, not {literal!r}\n"

    @pytest.mark.parametrize("literal", REJECTED)
    def test_csv_bound(self, inputs, capsys, literal):
        _, skeleton, profile = inputs(literal)
        res = invoke("evolve", skeleton, profile)
        assert res.exit_code == 2 and res.payload == ""
        assert capsys.readouterr().err == f"error: {profile}:2: {self.REJECTED[literal][1]}\n"

    @pytest.mark.parametrize("literal", ACCEPTED)
    def test_accepted_everywhere(self, fixtures, inputs, capsys, literal):
        program, skeleton, profile = inputs(literal)
        assert invoke("validate", program).payload == "ok (0 warning(s))"
        assert invoke("ialg", f"[{literal},1]").payload == f"[{literal}, 1]"
        res = invoke("consistent", str(fixtures / "p0.tpl"), "--epsilon", literal)
        assert res.exit_code == 0
        res = invoke("evolve", skeleton, profile)
        assert res.payload == f"calendar 1..1.\na@Y : <Y = 1, [{literal}], [1]>."
        assert capsys.readouterr().err == ""


class TestOverlongLiterals:
    """int() refuses a literal of more than 4,300 digits; every reader turns
    that into an input error naming the literal, in program text at its place."""

    NINES = "9" * 5000
    RATIO = "1/" + "1" * 5000
    TOO_MANY = "has too many digits"

    @pytest.mark.parametrize(
        "text, at",
        [
            ("calendar 1..{n}.\n", "1:13"),
            ("calendar 1..3.\na@Y : <Y = {n}, [0.5], [1]>.\n", "2:12"),
            ("calendar 1..3.\na@{n} : <Y = 1, [0.5], [1]>.\n", "2:3"),
            ("calendar 1..3.\na@Y : <Y = 1, [{w}], [1]>.\n", "2:16"),
        ],
        ids=["calendar", "constraint", "time", "weight"],
    )
    def test_program_text(self, tmp_path, capsys, text, at):
        program = tmp_path / "long.tpl"
        program.write_text(text.format(n=self.NINES, w=self.RATIO))
        literal = self.RATIO if "{w}" in text else self.NINES
        res = invoke("validate", str(program))
        assert (res.exit_code, res.payload) == (2, "1 error(s) (0 warning(s))")
        err = capsys.readouterr().err
        assert err == f"{at} error[Syntax]: number {literal!r} {self.TOO_MANY}\n"

    def test_flags_csv_and_ialg(self, fixtures, tmp_path, capsys):
        p0 = str(fixtures / "p0.tpl")
        res = invoke("consistent", p0, "--epsilon", self.RATIO)
        assert res.exit_code == 2
        assert capsys.readouterr().err == (
            f"error: --epsilon must be a positive rational, not {self.RATIO!r}\n"
        )
        res = invoke("consistent", p0, "--max-world-atoms", self.NINES)
        assert res.exit_code == 2
        assert capsys.readouterr().err == (
            f"error: --max-world-atoms must be a positive integer, not {self.NINES!r}\n"
        )
        res = invoke("ialg", f"[{self.RATIO},1]")
        assert res.exit_code == 2
        assert capsys.readouterr().err == f"error: number {self.RATIO!r} {self.TOO_MANY}\n"
        skeleton = str(fixtures / "evolution_skeleton.tpl")
        csv_file = tmp_path / "long.csv"
        csv_file.write_text(f"formula_id,time,lo,hi\nc0.head,1,{self.RATIO},1\n")
        assert invoke("evolve", skeleton, str(csv_file)).exit_code == 2
        err = capsys.readouterr().err
        assert err == f"error: {csv_file}:2: number {self.RATIO!r} {self.TOO_MANY}\n"
        csv_file.write_text(f"formula_id,time,lo,hi\nc0.head,{self.NINES},0.5,1\n")
        assert invoke("evolve", skeleton, str(csv_file)).exit_code == 2
        err = capsys.readouterr().err
        assert err == f"error: {csv_file}:2: time {self.NINES!r} is not an integer\n"


class TestDeepNesting:
    """An annotation's constraint, its terms and an ialg expression nest at
    most parser.MAX_NESTING (100) levels; deeper input is a syntax error (exit
    2), not a RecursionError.  A flat chain counts one level per operator,
    since it builds a left-deep tree."""

    TOO_DEEP = "error[Syntax]: constraint nested deeper than 100 levels\n"

    @staticmethod
    def program(tmp_path, constraint: str):
        program = tmp_path / "deep.tpl"
        rule = constraint.replace("Y", "Y1")
        program.write_text(
            "calendar 1..3.\n"
            f"a@Y : <{constraint}, [0.5], [0.5]>.\n"
            f"b@Y : <Y=2, [0.1], [0.9]> :- a@Y1 : <{rule}, [0.2], [0.8]>.\n"
        )
        return str(program)

    @pytest.mark.parametrize(
        "constraint, at",
        [
            ("(" * 400 + "Y=1" + ")" * 400, "2:108"),
            ("Y=" + "(" * 400 + "1" + ")" * 400, "2:110"),
            ("not " * 1000 + "Y=1", "2:408"),
            ("Y=1" + " and Y=1" * 2000, "2:7"),
            ("Y=1" + " + 0" * 2000, "2:7"),
        ],
        ids=["constraint-parentheses", "term-parentheses", "not", "and-chain", "plus-chain"],
    )
    def test_too_deep_program(self, tmp_path, capsys, constraint, at):
        res = invoke("validate", self.program(tmp_path, constraint))
        assert (res.exit_code, res.payload) == (2, "2 error(s) (0 warning(s))")
        err = capsys.readouterr().err
        assert err.startswith(f"{at} {self.TOO_DEEP}") and err.count(self.TOO_DEEP) == 2

    @pytest.mark.parametrize(
        "constraint",
        [
            "(" * 100 + "Y=1" + ")" * 100,
            "Y=" + "(" * 100 + "1" + ")" * 100,
            "not " * 98 + "Y=1",
            "Y=1" + " and Y=1" * 98,
            "Y=1" + " + 0" * 98,
        ],
        ids=["constraint-parentheses", "term-parentheses", "not", "and-chain", "plus-chain"],
    )
    def test_program_at_the_cap(self, tmp_path, constraint):
        # 98 operators over a comparison and its term: a tree 100 deep
        program = self.program(tmp_path, constraint)
        assert invoke("consistent", program).exit_code == 0
        assert invoke("unfold", program).exit_code == 0

    def test_too_deep_ialg(self, capsys):
        expr = "meet_k(" * 1000 + "[0,1]" + ",[0,1])" * 1000
        res = invoke("ialg", expr)
        assert (res.exit_code, res.payload) == (2, "")
        err = capsys.readouterr().err
        assert err == "error: expression nested deeper than 100 levels at offset 706\n"
        expr = "meet_k(" * 100 + "[0,1]" + ",[0,1])" * 100
        assert invoke("ialg", expr).exit_code == 0


class TestTemporalArithmetic:
    """Temporal terms with +, * and parentheses, through every layer."""

    PROGRAM = (
        "calendar 1..4.\n"
        "a@Y : <Y = Y1 + 1, [0.5], [0.6]> :- b@Y1 : <Y1 = 2, #, #>.\n"
        "b@Y : <Y: 1 ~ 2 * 2 - (3 - 1), [0.5,1], [0.5,1]>.\n"
    )
    WARNING = (
        "2:7 warning[EmptySolutionSet]: constraint Y = 4 + 1 has no solution in the "
        "calendar; the annotated formula is vacuous\n"
    )
    UNFOLD_WARNING = "warning: clause head a@Y has an empty solution set; no clauses emitted\n"

    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "arith.tpl"
        path.write_text(self.PROGRAM)
        return str(path)

    def test_render_round_trip(self):
        parsed = parse_program(self.PROGRAM).program
        text = render_program(parsed)
        assert text == self.PROGRAM.replace("2 * 2 - (3 - 1)", "(2 * 2) - (3 - 1)")
        assert parse_program(text).program == parsed

    def test_ground(self, program, capsys):
        res = invoke("ground", program)
        assert res.exit_code == 0
        assert res.payload.splitlines()[1:5] == [
            f"a@Y : <Y = {k} + 1, [0.5], [0.6]> :- b@Y1 : <Y1 = 2, #, #>." for k in range(1, 5)
        ]
        assert capsys.readouterr().err == self.WARNING

    def test_unfold(self, program, capsys):
        res = invoke("unfold", program)
        assert res.payload == (
            "calendar 1..4.\n"
            "a@2 : <Y = 2, [0.5], [0.6]> :- b@2 : <Y = 2, [1], [1]>.\n"
            "a@3 : <Y = 3, [0.5], [0.6]> :- b@2 : <Y = 2, [1], [1]>.\n"
            "a@4 : <Y = 4, [0.5], [0.6]> :- b@2 : <Y = 2, [1], [1]>.\n"
            "b@1 : <Y = 1, [0.5], [0.5]>.\n"
            "b@2 : <Y = 2, [1], [1]>."
        )
        assert capsys.readouterr().err == self.WARNING + self.UNFOLD_WARNING

    def test_consistent_witness(self, program, capsys):
        res = invoke("consistent", program)
        assert res.exit_code == 0
        assert res.payload == (
            "CONSISTENT\n  {b@2}: 1/2\n  {a@2, a@3, a@4, b@1, b@2}: 1/2"
        )
        assert capsys.readouterr().err == self.WARNING + self.UNFOLD_WARNING


class TestCompoundQueries:
    def test_disjunction_tighten(self, fixtures, tmp_path):
        q = tmp_path / "q.tpq"
        q.write_text("?tighten a@1 or b@1.\n")
        res = invoke("tighten", str(fixtures / "p0.tpl"), str(q), "--json")
        assert res.exit_code == 0
        lo, hi = jpayload(res)["intervals"]["a@1 or b@1"]
        # Pr(a) in [1/2,7/10], Pr(b) in [2/5,3/5]; the union can reach their
        # max overlap-free sum but never drops below the larger lower bound
        assert lo == "1/2" and hi == "1/1"

    def test_conjunction_tighten(self, fixtures, tmp_path):
        q = tmp_path / "q.tpq"
        q.write_text("?tighten a@1 and b@1.\n")
        res = invoke("tighten", str(fixtures / "p0.tpl"), str(q), "--json")
        assert res.exit_code == 0
        lo, hi = jpayload(res)["intervals"]["a@1 and b@1"]
        # Frechet bounds: max(0, 1/2 + 2/5 - 1) = 0 is attainable, min(7/10, 3/5) caps
        assert lo == "0/1" and hi == "3/5"


class TestFixtureCoverage:
    def test_every_fixture_is_exercised(self, fixtures):
        import pathlib

        source = pathlib.Path(__file__).read_text()
        missing = [
            p.name
            for p in sorted(fixtures.iterdir())
            if p.is_file() and p.name not in source
        ]
        assert not missing, f"fixtures without a CLI-level test: {missing}"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("consistent", "p0.tpl", "--json"),
            ("maxent", "mx.tpl", "--json"),
            ("unfold", "shipping.tpl", "--json"),
        ],
    )
    def test_byte_identical_payloads(self, fixtures, argv):
        cmd = [argv[0], str(fixtures / argv[1]), *argv[2:]]
        first = invoke(*cmd)
        second = invoke(*cmd)
        assert first.payload == second.payload
        assert first.exit_code == second.exit_code


# Strings with every kind of character json escapes: quotes, backslashes,
# control characters, non-ASCII ones (escaped as \uXXXX, astral ones as
# surrogate pairs) and lone surrogates.
_JSON_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600')
)
_JSON_LEAF = (
    _JSON_TEXT
    | st.sampled_from([True, False, None])
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324])
)
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(_JSON_TEXT)
    | st.dictionaries(_JSON_TEXT, inner),
    max_leaves=15,
)


class TestJsonWriter:
    """tplp's writer gives the bytes of json.dumps(v, sort_keys=True, indent=2)."""

    @settings(max_examples=150, deadline=None)
    @given(_JSON_VALUE)
    @example({"b": [], "a": {}, "c": ("x", 1), "\u00e9\ud800": [-0.0, 1e16, 5e-324, 2**65]})
    @example([float("nan"), float("inf"), float("-inf"), True, False, None, -(2**70)])
    def test_same_bytes_as_json(self, value):
        assert tplp.cli._dump(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
            tplp.cli._dump({"a": [1, {2}]})


def _witness_base(n: int) -> HerbrandBase:
    """n atoms whose names json escapes (a quote, a non-ASCII letter)."""
    return HerbrandBase(TAtom(("a", 'q"', "b\u00e9")[i % 3], (f"c{i}",), i % 4) for i in range(n))


@st.composite
def _witness_distributions(draw) -> WorldDistribution:
    """Distributions over bases of 0-20 atoms, so that worlds cross the byte
    boundaries of the writer's bit expansion (8/9 and 16/17 atoms), with the
    empty world among the draws and masses that worlds share."""
    n = draw(st.integers(0, 20))
    masks = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    if draw(st.booleans()):
        masks.add(0)
    weights = {m: draw(st.integers(1, 3)) for m in sorted(masks)}
    return WorldDistribution(_witness_base(n), weights, denominator=sum(weights.values()))


def _reference_witness(dist: WorldDistribution) -> list[dict]:
    """The witness payload as a list of {"world": [...], "p": "n/d"} per world
    of the support, by ascending mask."""
    return [
        {"world": [str(a) for a in w.atoms()], "p": f"{p.numerator}/{p.denominator}"}
        for w, p in dist.items()
    ]


class TestWitnessWriter:
    """A witness is written from the distribution's masks in one pass: the
    same bytes as json.dumps of the list of world objects, at top level and
    nested in a payload, and the same text lines."""

    @settings(max_examples=150, deadline=None)
    @given(_witness_distributions())
    @example(
        WorldDistribution(_witness_base(17), {0: 1, 1 << 16: 1, (1 << 17) - 1: 2}, denominator=4)
    )
    @example(WorldDistribution(_witness_base(0), {0: 1}, denominator=1))
    def test_same_as_reference(self, dist):
        reference = _reference_witness(dist)
        witness = tplp.cli._Witness(dist)
        assert tplp.cli._dump(witness) == json.dumps(reference, sort_keys=True, indent=2)
        nested = {"verdict": "OK", "witness": witness}
        expected = json.dumps({"verdict": "OK", "witness": reference}, sort_keys=True, indent=2)
        assert tplp.cli._dump(nested) == expected
        assert witness.lines() == [
            "  {" + ", ".join(e["world"]) + "}: " + e["p"] for e in reference
        ]


class TestReadme:
    def test_json_example_is_the_payload(self, fixtures):
        readme = (fixtures.parent / "README.md").read_text()
        section = readme.split("\n## JSON output\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        res = invoke(
            "tighten",
            str(fixtures / "shipping.tpl"),
            str(fixtures / "arrival_tighten.tpq"),
            "--grounding",
            "relevant",
            "--json",
        )
        assert (res.exit_code, res.payload + "\n") == (0, block)

    def test_witness_examples_are_the_payloads(self, fixtures):
        readme = (fixtures.parent / "README.md").read_text()
        section = readme.split("\n## JSON output\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```json\n")[2].split("```", 1)[0]
        text = section.split("```text\n", 1)[1].split("```", 1)[0]
        program = str(fixtures / "p0.tpl")
        assert (invoke("consistent", program, "--json").payload + "\n") == block
        assert (invoke("consistent", program).payload + "\n") == text

    def test_library_example_runs(self, fixtures, monkeypatch, capsys):
        readme = (fixtures.parent / "README.md").read_text()
        section = readme.split("\n## Library use\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(fixtures.parent)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out == "Verdict.CONSISTENT\nTrue\n"


class TestConsoleScript:
    def test_installed_entry_point(self, fixtures):
        proc = subprocess.run(
            [sys.executable, "-m", "tplp.cli"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2  # no subcommand is a usage error

    def test_module_invocation_end_to_end(self, fixtures):
        proc = subprocess.run(
            [sys.executable, "-m", "tplp.cli", "consistent", str(fixtures / "p1.tpl")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout.strip() == "INCONSISTENT"

    def test_reader_closing_early_is_quiet(self, fixtures):
        proc = subprocess.Popen(
            [sys.executable, "-m", "tplp.cli", "maxent", str(fixtures / "mx.tpl"), "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in stderr


class TestCalendarCap:
    def test_validate_refuses_an_oversized_calendar(self, tmp_path):
        program = tmp_path / "big.tpl"
        program.write_text("calendar 1..100001.\na@Y : <Y = 1, #, #>.\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tplp.cli", "validate", str(program)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: calendar 1..100001 has 100001 points, above the cap of 100000\n"
        )


class TestCompanionCap:
    """Validation and grounding solve the groundings of an annotation's or a
    clause's companion temporal variables over the calendar, at most
    1,000,000 evaluations, |calendar| ** (companions + 1); more exit 3 before
    the first grounding is made."""

    @staticmethod
    def groundings(monkeypatch):
        calls = []
        substitute = tplp.model.substitute_annotation

        def counting(a, env):
            calls.append(env)
            return substitute(a, env)

        monkeypatch.setattr(tplp.model, "substitute_annotation", counting)
        return calls

    def test_validate(self, tmp_path, monkeypatch, capsys):
        calls = self.groundings(monkeypatch)
        program = tmp_path / "window.tpl"
        fact = "a@Y : <Y >= Y1 and Y <= Y2, uniform, uniform>.\n"
        program.write_text("calendar 1..100.\n" + fact)
        res = invoke("validate", str(program))
        # 4,950 groundings have an empty window: one warning for them all
        assert (res.exit_code, res.payload) == (0, "ok (1 warning(s))")
        assert len(calls) == 100**2
        assert capsys.readouterr().err.count("EmptySolutionSet") == 1
        calls.clear()
        program.write_text("calendar 1..101.\n" + fact)
        res = invoke("validate", str(program))
        assert (res.exit_code, res.payload, calls) == (3, "", [])
        assert capsys.readouterr().err == (
            "error: companion temporal variables Y1, Y2 have 101^2 groundings over the "
            "calendar, each solved at its 101 points: 101^3 evaluations, above the cap "
            "of 1000000\n"
        )
        program.write_text("calendar 1..1001.\na@Y : <Y >= Y1, uniform, uniform>.\n")
        res = invoke("validate", str(program))
        assert (res.exit_code, res.payload, calls) == (3, "", [])
        assert capsys.readouterr().err == (
            "error: companion temporal variables Y1 have 1001^1 groundings over the "
            "calendar, each solved at its 1001 points: 1001^2 evaluations, above the cap "
            "of 1000000\n"
        )

    def test_ground(self, tmp_path, capsys):
        # each annotation has one companion, the clause two
        program = tmp_path / "pair.tpl"
        program.write_text(
            "calendar 1..101.\n"
            "a@Y : <Y = 1, [0.5], [1]> :- b@Y1 : <Y1 >= Y3, uniform, uniform>"
            " and c@Y2 : <Y2 >= Y4, uniform, uniform>.\n"
        )
        assert invoke("validate", str(program)).exit_code == 0
        res = invoke("ground", str(program))
        assert (res.exit_code, res.payload) == (3, "")
        assert capsys.readouterr().err.endswith(
            "error: companion temporal variables Y3, Y4 have 101^2 groundings over the "
            "calendar, each solved at its 101 points: 101^3 evaluations, above the cap "
            "of 1000000\n"
        )
        assert issubclass(tplp.GroundingTooLarge, tplp.TplpError)


class TestGroundInstanceCap:
    """Grounding counts its clause instances, |constants| ** (object
    variables) times the companion groundings of each clause, and exits 3
    above 100,000 before making any."""

    PROGRAM = (
        "calendar 1..1.\n"
        "constants " + ", ".join(f"c{i}" for i in range(30)) + ".\n"
        "p(A,B,C,D,E)@Y : <Y=1, [0], [1]>.\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [["ground"], ["ground", "--grounding", "relevant"], ["consistent"]],
        ids=["ground", "relevant", "consistent"],
    )
    def test_refused_before_grounding(self, tmp_path, capsys, argv):
        program = tmp_path / "wide.tpl"
        program.write_text(self.PROGRAM)
        start = time.perf_counter()
        res = invoke(argv[0], str(program), *argv[1:])
        assert time.perf_counter() - start < 1
        assert (res.exit_code, res.payload) == (3, "")
        assert capsys.readouterr().err == (
            "error: grounding would make 24300000 clause instances, above the cap of 100000\n"
        )

    @pytest.mark.parametrize("cap, code", [(30**2, 0), (30**2 - 1, 3)])
    def test_at_the_cap(self, monkeypatch, tmp_path, cap, code):
        monkeypatch.setattr(tplp.grounder, "MAX_GROUND_INSTANCES", cap)
        program = tmp_path / "wide.tpl"
        program.write_text(self.PROGRAM.replace("A,B,C,D,E", "A,B"))
        assert invoke("ground", str(program)).exit_code == code


class TestUnfoldInstanceCap:
    """unfold counts its companion groundings against the same cap, and exits
    3 with ground's message before it makes any clause."""

    PROGRAM = "calendar 1..3.\na@Y : <Y >= Y1, uniform, uniform>.\n"  # 3 instances

    def test_at_the_cap(self, monkeypatch, tmp_path):
        program = tmp_path / "companions.tpl"
        program.write_text(self.PROGRAM)
        uncapped = invoke("unfold", str(program))
        monkeypatch.setattr(tplp.grounder, "MAX_GROUND_INSTANCES", 3)
        assert invoke("unfold", str(program)) == uncapped and uncapped.exit_code == 0

    def test_above_the_cap(self, monkeypatch, tmp_path, capsys):
        program = tmp_path / "companions.tpl"
        program.write_text(self.PROGRAM)

        def fail(*args):
            raise AssertionError("a clause instance was made")

        monkeypatch.setattr(tplp.grounder, "MAX_GROUND_INSTANCES", 2)
        monkeypatch.setattr(tplp.grounder, "_substitute_clause", fail)
        for command in ("unfold", "ground"):
            assert (invoke(command, str(program)).exit_code, capsys.readouterr().err) == (
                3,
                "error: grounding would make 3 clause instances, above the cap of 2\n",
            )


class TestErrorExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (errors.BaseTooLarge(20, 16), 3),
            (errors.NonConvergence("sweep cap"), 3),
            (errors.NonNormalConstraint("x"), 2),
            (errors.UniverseEmpty("x"), 2),
            (errors.AtomNotInBase("x"), 2),
            (errors.TimePointOutsideCalendar("x"), 2),
            (errors.LPNumericalFailure("x"), 2),
            (errors.MissingTimeSlice("x"), 2),
            (errors.TplpError("x"), 2),
            (ValueError("x"), 2),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_error_maps_to_exit_code(self, fixtures, monkeypatch, capsys, error, code):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(tplp.cli, "check_consistency", fail)
        res = invoke("consistent", str(fixtures / "p0.tpl"), "--json")
        assert (res.exit_code, res.payload) == (code, "")
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_inconsistent_program_is_a_verdict(self, fixtures, monkeypatch):
        def fail(*args, **kwargs):
            raise errors.InconsistentProgram("x")

        monkeypatch.setattr(tplp.cli, "check_consistency", fail)
        res = invoke("consistent", str(fixtures / "p0.tpl"))
        assert (res.exit_code, res.payload) == (1, "INCONSISTENT_PROGRAM")


class TestOneParser:
    def test_run_builds_one_parser_per_process(self, fixtures, monkeypatch, capsys):
        build, builds = tplp.cli._build_parser, []

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(tplp.cli, "_parser", None)
        monkeypatch.setattr(tplp.cli, "_build_parser", counting)
        program = str(fixtures / "shipping.tpl")
        assert invoke("validate", program).exit_code == 0
        assert invoke("frobnicate").exit_code == 2
        assert invoke("ground", program, "--grounding", "relevant").exit_code == 0
        assert invoke("consistent", str(fixtures / "p0.tpl")).exit_code == 0
        assert len(builds) == 1


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert invoke("frobnicate").exit_code == 2

    def test_lp_option_removed(self, fixtures):
        res = invoke("consistent", str(fixtures / "p0.tpl"), "--lp", "float")
        assert res.exit_code == 2 and res.payload == ""

    def test_bad_epsilon(self, fixtures):
        res = invoke("consistent", str(fixtures / "p0.tpl"), "--epsilon", "abc")
        assert res.exit_code == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1/0"])
    def test_bad_epsilon_names_the_flag(self, fixtures, capsys, value):
        res = invoke("consistent", str(fixtures / "p0.tpl"), "--epsilon", value)
        assert res.exit_code == 2 and res.payload == ""
        err = capsys.readouterr().err
        assert err == f"error: --epsilon must be a positive rational, not {value!r}\n"

    @pytest.mark.parametrize("value", ["0", "-2", "\u0661\u0666", "1_0", "+1", "abc", ""])
    def test_bad_cap_names_the_flag(self, fixtures, capsys, value):
        res = invoke("consistent", str(fixtures / "p0.tpl"), "--max-world-atoms", value)
        assert res.exit_code == 2 and res.payload == ""
        err = capsys.readouterr().err
        assert err == f"error: --max-world-atoms must be a positive integer, not {value!r}\n"


class TestOptionMatrix:
    """Each subcommand takes --json and the options its handler reads; any
    other option is a usage error with an empty payload."""

    OPTIONS = {
        "--epsilon": "1/2",
        "--max-world-atoms": "16",
        "--grounding": "relevant",
        "--verify": "literal",
    }
    SOLVING = ("--epsilon", "--max-world-atoms", "--grounding")
    READS = {
        "validate": (),
        "ground": ("--grounding",),
        "unfold": (),
        "consistent": SOLVING,
        "entail": SOLVING,
        "tighten": SOLVING,
        "maxent": SOLVING,
        "evolve": ("--epsilon", "--max-world-atoms", "--verify"),
        "ialg": (),
    }
    # invocations whose answers the values in OPTIONS leave as they are
    ARGV = {
        "validate": ["p0.tpl"],
        "ground": ["p0.tpl"],
        "unfold": ["p0.tpl"],
        "consistent": ["p0.tpl"],
        "entail": ["shipping.tpl", "arrival_entail.tpq", "--grounding", "relevant"],
        "tighten": ["p0.tpl", "p0_tighten_all.tpq"],
        "maxent": ["p0.tpl"],
        "evolve": ["evolution_skeleton.tpl", "evolution_profile.csv", "--verify", "literal"],
        "ialg": ["[0,1]"],
    }

    def argv(self, fixtures, command):
        return [command] + [
            str(fixtures / a) if (fixtures / a).is_file() else a for a in self.ARGV[command]
        ]

    @pytest.mark.parametrize("option", OPTIONS)
    @pytest.mark.parametrize("command", READS)
    def test_option(self, fixtures, capsys, command, option):
        argv = self.argv(fixtures, command)
        plain = invoke(*argv)
        assert plain.exit_code == 0
        res = invoke(*argv, option, self.OPTIONS[option])
        if option in self.READS[command]:
            assert (res.exit_code, res.payload) == (0, plain.payload)
        else:
            assert (res.exit_code, res.payload) == (2, "")
            assert capsys.readouterr().err.endswith(
                f"error: unrecognized arguments: {option} {self.OPTIONS[option]}\n"
            )

    @pytest.mark.parametrize("command", READS)
    def test_json(self, fixtures, command):
        res = invoke(*self.argv(fixtures, command), "--json")
        assert res.exit_code == 0 and json.loads(res.payload)

    @pytest.mark.parametrize(
        "argv",
        [["ialg", "[0,1]", "--epsilon", "-1"], ["validate", "p0.tpl", "--max-world-atoms", "0"]],
        ids=["ialg-epsilon", "validate-cap"],
    )
    def test_unread_option_with_an_invalid_value(self, fixtures, argv):
        argv = [str(fixtures / a) if a.endswith(".tpl") else a for a in argv]
        assert (invoke(*argv[:2]).exit_code, invoke(*argv).exit_code) == (0, 2)


class TestInstantDiagnostics:
    """Exact stderr and exit codes of the diagnostics read off an annotation's instant."""

    VACUOUS = "constraint Y > 5 has no solution in the calendar; the annotated formula is vacuous"

    def test_lower_exceeds_upper_at_one_point(self, tmp_path, capsys):
        program = tmp_path / "p.tpl"
        program.write_text("calendar 1..3.\na@Y : <Y: 1 ~ 3, [0.1,0.9,0.2], [0.5,0.5,0.5]>.\n")
        res = invoke("validate", str(program))
        assert (res.exit_code, res.payload) == (2, "1 error(s) (0 warning(s))")
        assert capsys.readouterr().err == (
            "2:7 error[LowerExceedsUpper]: lower weight 0.9 exceeds upper 0.5 at t = 2\n"
        )

    def test_empty_head_window_warns_twice(self, tmp_path, capsys):
        program = tmp_path / "p.tpl"
        program.write_text("calendar 1..3.\na@Y : <Y > 5, uniform, uniform>.\nb@Y : <Y = 1, #, #>.\n")
        res = invoke("unfold", str(program))
        assert (res.exit_code, res.payload) == (0, "calendar 1..3.\nb@1 : <Y = 1, [1], [1]>.")
        assert capsys.readouterr().err == (
            f"2:7 warning[EmptySolutionSet]: {self.VACUOUS}\n"
            "warning: clause head a@Y has an empty solution set; no clauses emitted\n"
        )

    def test_vacuous_uniform_entailment(self, tmp_path, capsys):
        program = tmp_path / "p.tpl"
        program.write_text("calendar 1..3.\nb@Y : <Y = 1, #, #>.\n")
        query = tmp_path / "q.tpq"
        query.write_text("?entail b@Y : <Y > 5, uniform, uniform>.\n")
        res = invoke("entail", str(program), str(query))
        assert (res.exit_code, res.payload) == (0, "ENTAILED")
        assert capsys.readouterr().err == (
            f"1:15 warning[EmptySolutionSet]: {self.VACUOUS}\n"
            "warning: the query constraint has an empty solution set\n"
        )

    # Weight lists on an annotation without solution points: validate accepts
    # them with the warning, and every later command treats the annotation as
    # vacuous instead of pairing the weights with no points.
    LIST_HEAD = "calendar 1..3.\na@Y : <Y = 9, [0.5], [0.5]>.\nb@Y : <Y = 1, [0.5], [0.5]>.\n"
    LIST_BODY = (
        "calendar 1..3.\nb@Y : <Y = 1, [0.5], [0.5]>.\n"
        "a@Y : <Y = 2, [0.5], [0.5]> :- b@Y1 : <Y1 = 9, [0.1], [0.2]>.\n"
    )
    HEAD_WARNINGS = (
        "2:7 warning[EmptySolutionSet]: constraint Y = 9 has no solution in the calendar; "
        "the annotated formula is vacuous\n"
        "warning: clause head a@Y has an empty solution set; no clauses emitted\n"
    )
    BODY_WARNING = (
        "3:39 warning[EmptySolutionSet]: constraint Y1 = 9 has no solution in the calendar; "
        "the annotated formula is vacuous\n"
    )

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("unfold", "calendar 1..3.\nb@1 : <Y = 1, [0.5], [0.5]>."),
            ("consistent", "CONSISTENT\n  {}: 1/2\n  {b@1}: 1/2"),
            ("maxent", "entropy 0.693147 nats\n  {}: 1/2\n  {b@1}: 1/2"),
        ],
        ids=["unfold", "consistent", "maxent"],
    )
    def test_vacuous_list_weighted_head(self, tmp_path, capsys, command, payload):
        program = tmp_path / "p.tpl"
        program.write_text(self.LIST_HEAD)
        res = invoke(command, str(program))
        assert (res.exit_code, res.payload) == (0, payload)
        assert capsys.readouterr().err == self.HEAD_WARNINGS

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("unfold", "calendar 1..3.\nb@1 : <Y = 1, [0.5], [0.5]>.\na@2 : <Y = 2, [0.5], [0.5]>."),
            ("consistent", "CONSISTENT\n  {}: 1/2\n  {a@2, b@1}: 1/2"),
            (
                "maxent",
                "entropy 1.386294 nats\n  {}: 1/4\n  {a@2}: 1/4\n  {b@1}: 1/4\n  {a@2, b@1}: 1/4",
            ),
        ],
        ids=["unfold", "consistent", "maxent"],
    )
    def test_vacuous_list_weighted_body_conjunct(self, tmp_path, capsys, command, payload):
        program = tmp_path / "p.tpl"
        program.write_text(self.LIST_BODY)
        res = invoke(command, str(program))
        assert (res.exit_code, res.payload) == (0, payload)
        assert capsys.readouterr().err == self.BODY_WARNING

    def test_vacuous_list_weighted_entailment(self, tmp_path, capsys):
        program = tmp_path / "p.tpl"
        program.write_text("calendar 1..3.\nb@Y : <Y = 1, [0.5], [0.5]>.\n")
        query = tmp_path / "q.tpq"
        query.write_text("?entail b@Y : <Y = 9, [0.2], [0.3]>.\n")
        res = invoke("entail", str(program), str(query), "--json")
        assert res.exit_code == 0
        assert jpayload(res) == {
            "branch_count": 1, "eps": "1/1000000", "per_time": [], "vacuous": True,
            "verdict": "ENTAILED",
        }
        assert capsys.readouterr().err == (
            "1:15 warning[EmptySolutionSet]: constraint Y = 9 has no solution in the calendar; "
            "the annotated formula is vacuous\n"
            "warning: the query constraint has an empty solution set\n"
        )


def cyclic_garbage() -> collections.Counter:
    """Type name -> count of the unreachable objects that only the cyclic
    garbage collector frees, which it then frees."""
    debug = gc.get_debug()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    gc.collect()
    return found


class _Stop(BaseException):
    """Escapes run() the way a signal handler's exception would."""


# Every fixture program and query under every command that reads it
_EVOLVE = ("evolve", "evolution_skeleton.tpl", "evolution_profile.csv")
_ANSWERS = [
    *(
        (command, name, *json)
        for name in FIXTURE_PROGRAMS
        for command in ("validate", "ground", "unfold", "consistent", "maxent")
        for json in ((), ("--json",))
    ),
    ("tighten", "p0.tpl", "p0_tighten_all.tpq"),
    *(
        (command, "shipping.tpl", query, *grounding)
        for command, query in (
            ("tighten", "arrival_tighten.tpq"),
            ("entail", "arrival_entail.tpq"),
            ("entail", "arrival_entail_tight.tpq"),
        )
        for grounding in ((), ("--grounding", "relevant"))
    ),
    _EVOLVE,
    *(_EVOLVE + ("--verify", mode) for mode in ("literal", "conditional")),
]
_IALG = [
    "join_k([0,0.3],[0.7,1])",
    "leq_b([0,0],[1,1])",
    # errors: an arity, a truncated expression, a malformed bound, an unknown name
    "meet_k([0.1,0.2])",
    "[0.1,",
    "[1/2/3,1]",
    "what(1,2)",
]


class TestCollectorPause:
    """run() pauses the cyclic garbage collector for one command and leaves it
    as it found it; no answer leaves garbage that only the collector frees."""

    @pytest.fixture(autouse=True)
    def restore(self):
        # The first run() in a process builds the argument parser, and argparse
        # leaves a HelpFormatter cycle for each argument it adds: build it here.
        run(["ialg", "[0,1]"])
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_paused_inside_the_handler(self, fixtures, monkeypatch):
        seen, check = [], tplp.cli.check_consistency

        def probe(*args, **kwargs):
            seen.append(gc.isenabled())
            return check(*args, **kwargs)

        monkeypatch.setattr(tplp.cli, "check_consistency", probe)
        gc.enable()
        assert invoke("consistent", str(fixtures / "p0.tpl")).exit_code == 0
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("consistent", "p0.tpl"), 0),
            # shipping's full grounding is over the default world-atom cap
            (("consistent", "shipping.tpl"), 3),
            # argparse's usage error leaves a 6-object HelpFormatter/_Section
            # cycle, inside the standard library: only the state is checked
            (("bogus",), 2),
        ],
        ids=["answer", "base-too-large", "usage-error"],
    )
    def test_state_restored(self, fixtures, enabled, argv, code):
        (gc.enable if enabled else gc.disable)()
        command, *rest = argv
        assert invoke(command, *(str(fixtures / a) for a in rest)).exit_code == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored_when_a_base_exception_escapes(self, fixtures, monkeypatch, enabled):
        def stop(*args, **kwargs):
            raise _Stop

        monkeypatch.setattr(tplp.cli, "check_consistency", stop)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(_Stop):
            invoke("consistent", str(fixtures / "p0.tpl"))
        assert gc.isenabled() is enabled

    def assert_acyclic(self, *argv):
        cyclic_garbage()
        res = invoke(*argv)
        assert cyclic_garbage() == {}, argv
        return res

    @pytest.mark.parametrize("argv", _ANSWERS, ids=" ".join)
    def test_answers_leave_no_cyclic_garbage(self, fixtures, capsys, argv):
        command, *rest = argv
        res = self.assert_acyclic(command, *(str(fixtures / a) if "." in a else a for a in rest))
        assert res.exit_code != 2, capsys.readouterr().err

    @pytest.mark.parametrize("expr", _IALG)
    def test_ialg_leaves_no_cyclic_garbage(self, expr):
        self.assert_acyclic("ialg", expr)

    def test_wide_program_leaves_no_cyclic_garbage(self, tmp_path):
        program = tmp_path / "shipping8.tpl"
        program.write_text(golden_file("shipping8.tpl"))
        for command in ("validate", "ground", "unfold"):
            assert self.assert_acyclic(command, str(program)).exit_code == 0
        res = self.assert_acyclic("consistent", str(program), "--max-world-atoms", "100000")
        assert res.exit_code == 0

    def test_verdicts_and_caps_leave_no_cyclic_garbage(self, fixtures):
        res = self.assert_acyclic("consistent", str(fixtures / "boundary.tpl"))
        assert (res.exit_code, res.payload) == (1, "UNKNOWN_EPS")
        assert self.assert_acyclic("consistent", str(fixtures / "shipping.tpl")).exit_code == 3

    def test_input_errors_leave_no_cyclic_garbage(self, fixtures, tmp_path):
        latin = tmp_path / "latin.tpl"
        latin.write_bytes(b"calendar 1..1.\n% \xff\n")
        for argv in (
            ("validate", str(tmp_path / "missing.tpl")),
            ("validate", str(latin)),
            ("consistent", str(fixtures / "p0.tpl"), "--epsilon", "abc"),
            ("consistent", str(fixtures / "p0.tpl"), "--epsilon", "0"),
        ):
            assert self.assert_acyclic(*argv).exit_code == 2

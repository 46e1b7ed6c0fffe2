import dataclasses
import importlib.util
import pathlib
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import rand_program_ast, rand_tp_program
from test_fuzz import PROGRAMS, SEEDS, mutate
from tplp.diagnostics import DiagnosticKind, SourceSpan
from tplp.model import (
    BasicFormula,
    CAtom,
    Calendar,
    Cmp,
    Connective,
    TAtom,
    TimeRange,
    TPAnnotation,
    TPClause,
    TVar,
    WeightFunction,
    WeightKind,
)
from tplp.parser import (
    QueryKind,
    _lex,
    parse_program,
    parse_query,
    parse_skeleton,
    render_program,
)


class TestParsePrograms:
    def test_single_fact(self):
        res = parse_program("calendar 1..8. sent(shoes,rome)@Y : <Y=1, #, #>.")
        assert res.ok and len(res.program.clauses) == 1
        cl = res.program.clauses[0]
        assert cl.is_fact
        assert cl.head.predicate == "sent"
        assert cl.head.args == ("shoes", "rome")
        assert cl.head_annot.lower.kind is WeightKind.SHARP

    def test_empty_program(self):
        res = parse_program("calendar 1..8.")
        assert res.ok and res.program.clauses == ()

    def test_rule_with_body(self):
        res = parse_program(
            "calendar 1..2.\n"
            "b@Y : <Y=1, [0.4], [0.6]> :- a@Y1 : <Y1=1, [0.5], [0.7]>.\n"
        )
        assert res.ok
        cl = res.program.clauses[0]
        assert len(cl.body) == 1
        assert cl.body[0][0].atoms[0].time == TVar("Y1")

    def test_compound_body_formula_and_conjuncts(self):
        res = parse_program(
            "calendar 1..3.\n"
            "h@Y : <Y=1, #, #> :- a@Y1 and b@Y1 : <Y1=2, [0.1], [0.2]> "
            "and c@Y2 : <Y2=3, [0.3], [0.4]>.\n"
        )
        assert res.ok
        cl = res.program.clauses[0]
        assert len(cl.body) == 2
        assert cl.body[0][0].connective is Connective.AND
        assert len(cl.body[0][0].atoms) == 2
        assert cl.body[1][0].connective is Connective.SINGLE

    def test_validation_errors_aggregate(self):
        res = parse_program("calendar 1..8. a@Y : <Y:3~5, [0.5,0.5], #>.")
        assert not res.ok
        kinds = {d.kind for d in res.errors}
        assert kinds == {DiagnosticKind.LENGTH_MISMATCH, DiagnosticKind.SHARP_CARDINALITY}

    def test_many_errors_reported_together(self):
        res = parse_program(
            "calendar 1..2.\n"
            "a@@Y : <Y=1, #, #>.\n"
            "b@Y : <Y=1, [2], #>.\n"
            "c(X,Y2)@1 : <Y=1, #, #>.\n"
        )
        assert not res.ok
        assert len(res.errors) >= 2

    def test_missing_calendar(self):
        res = parse_program("a@Y : <Y=1, #, #>.")
        assert not res.ok and res.errors

    def test_arity_mismatch_detected(self):
        res = parse_program("calendar 1..2. a(x)@Y : <Y=1, #, #>. a@Y : <Y=1, #, #>.")
        assert any(d.kind is DiagnosticKind.ARITY_MISMATCH for d in res.errors)

    def test_time_outside_calendar_detected(self):
        res = parse_program("calendar 1..2. a@5 : <Y=1, #, #>.")
        assert any(d.kind is DiagnosticKind.TIME_OUT_OF_CALENDAR for d in res.errors)

    def test_constants_declaration(self):
        res = parse_program("calendar 1..2. constants widget, gadget. a@Y : <Y=1, #, #>.")
        assert res.ok
        assert {"widget", "gadget"} <= res.program.constants

    def test_rational_literals(self):
        res = parse_program("calendar 1..3. a@Y : <Y:1~3, uniform, [1/3, 1/3, 1/3]>.")
        assert res.ok
        upper = res.program.clauses[0].head_annot.upper
        assert upper.values == (F(1, 3),) * 3

    def test_malformed_number_is_one_diagnostic_and_the_clause_parses_on(self):
        res = parse_program("calendar 1..2. a@Y : <Y=1, [1/0], [1 1]>.")
        assert [(d.message, d.span.start, d.span.end) for d in res.errors] == [
            ("zero denominator in '1/0'", 28, 31),
            ("expected ']', found '1'", 37, 38),
        ]
        # the clause is left out, so the 0 read in place of 1/0 adds no
        # LowerExceedsUpper against the lower 0.5
        res = parse_program("calendar 1..2. a@Y : <Y=1, [0.5], [1/0]>.")
        assert [d.message for d in res.diagnostics] == ["zero denominator in '1/0'"]

    def test_program_digits_are_ascii(self):
        res = parse_program("calendar \u0661..\u0662. a@Y : <Y=1, [\u0660.\u0665], #>.")
        assert not res.ok
        assert "unexpected character '\u0661'" in [d.message for d in res.errors]

    def test_probability_out_of_range(self):
        # the clause is left out, so no LowerExceedsUpper against a clamped
        # 1 that nobody wrote; the clauses after it are still validated
        res = parse_program("calendar 1..2.\na@Y : <Y=1, [1.5], [0.7]>.\nb@Y : <Y=9, #, #>.")
        assert [str(d) for d in res.diagnostics] == [
            "2:14 error[ValueRange]: probability 1.5 outside [0,1]",
            "3:7 warning[EmptySolutionSet]: constraint Y = 9 has no solution in the calendar; "
            "the annotated formula is vacuous",
        ]

    def test_comments_ignored(self):
        res = parse_program("% intro\ncalendar 1..2. % trailing\na@Y : <Y=1, #, #>. % end\n")
        assert res.ok and len(res.program.clauses) == 1

    def test_spans_attached(self):
        res = parse_program("calendar 1..8.\nsent(shoes,rome)@Y : <Y=1, #, #>.")
        cl = res.program.clauses[0]
        assert cl.span.line == 2
        assert cl.head.span is not None
        assert cl.head_annot.span is not None


def spanned(node):
    """Every node at or under node that carries a span, parents first."""
    if isinstance(node, tuple):
        for item in node:
            yield from spanned(item)
    elif dataclasses.is_dataclass(node):
        if getattr(node, "span", None) is not None:
            yield node
        for f in dataclasses.fields(node):
            if f.name != "span":
                yield from spanned(getattr(node, f.name))


def squeeze(text: str) -> str:
    return "".join(text.split())


def check_span(text: str, node):
    """The node's line and column count from the text itself, and its span
    covers the node's own source."""
    span = node.span
    assert span.line == text.count("\n", 0, span.start) + 1
    assert span.column == span.start - text.rfind("\n", 0, span.start)
    source = text[span.start : span.end]
    if isinstance(node, TPClause):
        assert squeeze(source).startswith(squeeze(str(node.head))) and source.endswith(".")
    elif isinstance(node, (TAtom, BasicFormula)):
        assert squeeze(source) == squeeze(str(node))
    elif isinstance(node, TPAnnotation):
        assert source.startswith("<") and source.endswith(">")
    elif isinstance(node, WeightFunction) and node.kind is WeightKind.LIST:
        assert source.startswith("[") and source.endswith("]")
        assert source.count(",") == len(node.values) - 1
    elif isinstance(node, WeightFunction):
        assert source == str(node)
    else:
        assert isinstance(node, (Cmp, TimeRange)) and source == node.var.name


def bench_programs():
    """The program texts of the dense-lp and wide-ground bench workloads."""
    path = pathlib.Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    for seed in (1, 2, 3):
        for build in (workloads.dense_lp, workloads.wide_ground):
            yield from (t for k, t in build(seed).files.items() if k.endswith(".tpl"))


class TestSpans:
    """Each span-carrying node of a parsed program, checked against its text:
    clauses, atoms, formulas, annotations, weight functions and constraint
    leaves."""

    KINDS = {TPClause, TAtom, BasicFormula, TPAnnotation, WeightFunction, Cmp, TimeRange}

    def check_program(self, text: str) -> set:
        res = parse_program(text)
        assert res.ok, [str(d) for d in res.diagnostics]
        nodes = list(spanned(res.program.clauses))
        for node in nodes:
            check_span(text, node)
        return {type(n) for n in nodes}

    def test_fixtures(self, fixtures):
        kinds = set()
        for path in sorted(fixtures.glob("*.tpl")):
            if path.name != "evolution_skeleton.tpl":
                kinds |= self.check_program(path.read_text())
        assert kinds == self.KINDS

    def test_bench_programs(self):
        texts = list(bench_programs())
        assert len(texts) == 3 * (4 + 6)
        for text in texts:
            self.check_program(text)

    def test_validated_mutants(self):
        checked = 0
        for seed in SEEDS:
            rng = random.Random(seed)
            text = mutate(rng, PROGRAMS[rng.choice(sorted(PROGRAMS))])
            if parse_program(text).ok:
                self.check_program(text)
                checked += 1
        assert checked >= len(SEEDS) // 8

    def test_offsets_and_columns_count_characters(self):
        text = "% café\ncalendar 1..1. % é\n  a@Y : <Y=1, [0.5], [0.5]>."
        self.check_program(text)
        text = "calendar 1..1.\né a@Y : <Y=1, [0.5], [0.5]."
        res = parse_program(text)
        assert [str(d) for d in res.diagnostics] == [
            "2:1 error[Syntax]: unexpected character 'é'",
            "2:27 error[Syntax]: expected '>' closing the annotation, found '.'",
        ]
        assert res.diagnostics[1].span.start == len(text) - 1  # the final "."


class TestSourceSpan:
    """SourceSpan is a slotted class, not a frozen dataclass; these pin what
    it kept: value equality and hashing, immutability, its text form and its
    check of the offsets."""

    def test_equality_and_hashing(self):
        a, b = SourceSpan(2, 3, 10, 14), SourceSpan(2, 3, 10, 14)
        assert a == b and not a != b and hash(a) == hash(b)
        assert len({a, b, SourceSpan(2, 3, 10, 15)}) == 2
        for other in (SourceSpan(1, 3, 10, 14), SourceSpan(2, 4, 10, 14),
                      SourceSpan(2, 3, 9, 14), SourceSpan(2, 3, 10, 13)):
            assert a != other
        assert a != (2, 3, 10, 14) and a != "2:3"
        assert (a.line, a.column, a.start, a.end) == (2, 3, 10, 14)
        assert repr(a) == "SourceSpan(line=2, column=3, start=10, end=14)"

    def test_immutable(self):
        span = SourceSpan(1, 1, 0, 1)
        for name in ("line", "column", "start", "end"):
            with pytest.raises(AttributeError):
                setattr(span, name, 5)
            with pytest.raises(AttributeError):
                delattr(span, name)
        with pytest.raises(AttributeError):
            span.other = 1
        assert span == SourceSpan(1, 1, 0, 1)

    def test_text_and_bad_offsets(self):
        assert str(SourceSpan(7, 12, 40, 40)) == "7:12"
        for start, end in ((-1, 3), (5, 4)):
            with pytest.raises(ValueError, match=f"bad span: start={start} end={end}"):
                SourceSpan(1, 1, start, end)


class TestRoundTrip:
    def test_generated_corpus(self):
        rng = random.Random(202)
        checked = 0
        for _ in range(120):
            p = rand_program_ast(rng)
            text = render_program(p)
            first = parse_program(text)
            assert first.ok, (text, [str(d) for d in first.diagnostics])
            assert first.program == p
            again = parse_program(render_program(first.program))
            assert again.ok and again.program == first.program
            checked += 1
        assert checked == 120

    def test_shipping_round_trip(self, fixtures):
        text = (fixtures / "shipping.tpl").read_text()
        p = parse_program(text).program
        assert parse_program(render_program(p)).program == p

    def test_uniform_keyword_preserved(self):
        text = "calendar 1..4. a@Y : <Y:1~4, uniform, uniform>.\n"
        p = parse_program(text).program
        rendered = render_program(p)
        assert "uniform" in rendered
        assert parse_program(rendered).program == p

    def test_empty_program_renders_to_calendar_line(self):
        p = parse_program("calendar 2..5.").program
        assert render_program(p) == "calendar 2..5.\n"

    def test_generated_programs_round_trip(self):
        rng = random.Random(203)
        for _ in range(500):
            first = rng.randint(0, 2)
            cal = Calendar.from_range(first, first + rng.randint(0, 5))
            p = rand_tp_program(rng, cal, n_clauses=rng.randint(1, 4))
            text = render_program(p)
            res = parse_program(text)
            assert res.ok, (text, [str(d) for d in res.diagnostics])
            assert res.program == p, text
            assert render_program(res.program) == text

    @pytest.mark.parametrize("first", [-1, -3])
    def test_negative_calendar_has_no_text(self, first):
        # time points are unsigned in the grammar, so "calendar -1..2." would not parse
        p = rand_tp_program(random.Random(204), Calendar.from_range(first, 2))
        with pytest.raises(ValueError, match="starting at 0"):
            render_program(p)


class TestTotality:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text_never_crashes(self, text):
        res = parse_program(text)
        assert res.ok or res.errors

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(
            alphabet="calendr.~<>[]#@:?%uniform tighe\n01235YXabz(),*-+/",
            max_size=120,
        )
    )
    def test_grammarlike_soup_never_crashes(self, text):
        res = parse_program(text)
        assert res.ok or res.errors

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab Y1.,:-<=>!~%\n\t\r\x0b_é[]()#@*+/?0", max_size=60))
    def test_tokens_tile_the_text(self, text):
        # every character lies in one token, in whitespace or a comment, or
        # is reported on its own
        tokens, diags = _lex(text)
        bad = [d.span.start for d in diags]
        end, skipped = 0, []
        for tok in tokens:
            assert tok.start >= end and text[tok.start : tok.end] == tok.text
            gap = re.finditer(r"[ \t\r\n]+|%[^\n]*|(.)", text[end : tok.start], re.S)
            skipped += [end + m.start() for m in gap if m.group(1)]
            end = tok.end
        assert skipped == bad
        assert (tokens[-1].type, tokens[-1].start) == ("EOF", len(text))

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_query_parser_total(self, text):
        res = parse_query(text)
        assert res.ok or any(d.is_error for d in res.diagnostics)


class TestQueries:
    def test_entail_query(self):
        res = parse_query("?entail arrived(letter,paris)@Y : <Y=3, [0.3], [0.4]>.")
        assert res.ok
        q = res.query
        assert q.kind is QueryKind.ENTAIL
        assert q.annot is not None
        assert q.formula.atoms[0].predicate == "arrived"

    def test_tighten_at_point(self):
        res = parse_query("?tighten arrived(letter,paris)@3.")
        assert res.ok
        assert res.query.kind is QueryKind.TIGHTEN
        assert res.query.at == 3
        assert res.query.formula.atoms[0].time == TVar("Y")

    def test_tighten_all(self):
        res = parse_query("?tighten a@*.")
        assert res.ok and res.query.at is None

    def test_tighten_compound_shared_time(self):
        res = parse_query("?tighten a@2 and b@2.")
        assert res.ok and res.query.at == 2

    def test_tighten_mixed_times_rejected(self):
        assert not parse_query("?tighten a@1 and b@2.").ok

    def test_object_variables_rejected(self):
        assert not parse_query("?tighten a(X)@1.").ok
        assert not parse_query("?entail a(X)@Y : <Y=1, #, #>.").ok

    def test_unknown_form(self):
        assert not parse_query("?frobnicate a@1.").ok

    def test_companion_variables_rejected_at_the_annotation(self):
        res = parse_query("?entail a@Y : <Y >= Y3 and Y <= Y2, [0.1], [0.9]>.")
        assert not res.ok
        [diag] = res.diagnostics
        assert diag.kind is DiagnosticKind.SYNTAX and (diag.span.line, diag.span.column) == (1, 15)
        assert diag.message == (
            "query constraints cannot use companion temporal variables, found Y2, Y3"
        )

    @pytest.mark.parametrize("weight", ["1.5", "1/0", "0.1234567891"])
    def test_rejected_target_weight_rejects_the_query(self, weight):
        res = parse_query(f"?entail a@1 : <Y=1, [{weight}], [1]>.")
        assert not res.ok and len(res.diagnostics) == 1


class TestSkeletons:
    def test_fact_skeleton(self):
        sk, diags = parse_skeleton("calendar 1..2.\na.\n")
        assert sk is not None and not diags
        assert sk.formula_slots()[0][0] == "c0.head"

    def test_rule_skeleton_conjuncts(self):
        sk, _ = parse_skeleton("calendar 1..3.\nh :- a and b, c(k1).\n")
        slots = dict(sk.formula_slots())
        assert set(slots) == {"c0.head", "c0.b0", "c0.b1"}
        assert slots["c0.b0"].connective is Connective.AND
        assert slots["c0.b1"].atoms[0].args == ("k1",)

    def test_formulas_are_hashable_basic_formulas(self):
        sk, _ = parse_skeleton("calendar 1..3.\nh :- a or b.\n")
        slots = dict(sk.formula_slots())
        assert slots["c0.head"] == BasicFormula.single(CAtom("h"))
        assert slots["c0.b0"] == BasicFormula(Connective.OR, (CAtom("a"), CAtom("b")))
        assert len({slots["c0.b0"], BasicFormula(Connective.OR, (CAtom("a"), CAtom("b")))}) == 1

    def test_mixed_connectives_rejected(self):
        sk, diags = parse_skeleton("calendar 1..3.\nh :- a and b or c.\n")
        assert sk is None
        assert [(d.message, str(d.span)) for d in diags] == [
            ("a compound formula must use a single connective", "2:14")
        ]

    def test_bad_skeleton(self):
        sk, diags = parse_skeleton("calendar 1..2.\nh :- .\n")
        assert sk is None and diags

    def test_arity_mismatch_at_the_atom(self):
        sk, diags = parse_skeleton("calendar 1..1.\na(x) :- a.\n")
        assert sk is None
        assert [(d.kind, str(d.span)) for d in diags] == [(DiagnosticKind.ARITY_MISMATCH, "2:9")]
        assert diags[0].message == "predicate a used with arity 0 and 1"

    def test_atoms_carry_spans(self):
        sk, _ = parse_skeleton("calendar 1..1.\nh(k, m) :- a.\n")
        head = sk.clauses[0].head
        assert (head.span.column, head.span.start, head.span.end) == (1, 15, 22)

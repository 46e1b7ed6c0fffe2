import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

import tplp.cli
import tplp.grounder
import tplp.model
from conftest import FIXTURE_PROGRAMS, golden_file, load_program, load_unfolded
from generators import rand_distribution, rand_tp_program, recipe_a_program, recipe_b_program
from tplp.diagnostics import SourceSpan
from tplp.errors import AtomNotInBase, GroundingTooLarge, NonNormalConstraint, UniverseEmpty
from tplp.grounder import (
    GroundingMode,
    HerbrandBase,
    PClause,
    PProgram,
    ground_program,
    ground_temporal_variables,
    herbrand_base,
    pprogram_to_ptprogram,
    unfold,
)
from tplp.intervals import ProbInterval
from tplp.model import (
    BasicFormula,
    CAnd,
    CAtom,
    Calendar,
    Cmp,
    ObjVar,
    PTProgram,
    TAtom,
    TConst,
    TPAnnotation,
    TPClause,
    TRef,
    TVar,
    WeightFunction,
    companion_groundings,
    constraint_principal,
    solve_constraint,
    substitute_annotation,
)
from tplp.parser import parse_program, render_program
from tplp.psat import Verdict, check_consistency
from tplp.worlds import ki_satisfies, ki_satisfies_tp


def _clauses_for(p, predicate):
    return [cl for cl in p.clauses if cl.head.predicate == predicate]


class TestGroundProgram:
    def test_relevant_keeps_fact_supported_pairs(self):
        p = load_program("shipping.tpl")
        g = ground_program(p, GroundingMode.RELEVANT)
        arrived = [cl for cl in g.clauses if cl.head.predicate == "arrived"]
        pairs = {cl.head.args for cl in arrived}
        assert pairs == {("shoes", "rome"), ("letter", "paris")}
        # the express rule fires only for the letter
        express = [cl for cl in arrived if len(cl.body) == 2]
        assert {cl.head.args for cl in express} == {("letter", "paris")}
        assert len(g.clauses) == 8

    def test_relevant_seeded_by_a_fact_with_object_variables(self):
        # the fact holds sent(I, paris) for every I, so only P = paris is relevant
        p = parse_program(
            "calendar 1..2.\n"
            "constants a, b.\n"
            "sent(I,paris)@Y : <Y = 1, #, #>.\n"
            "got(I,P)@Y : <Y = 2, [0.5], [1]> :- sent(I,P)@Y1 : <Y1 = 1, #, #>.\n"
        ).program
        relevant = _clauses_for(ground_program(p, GroundingMode.RELEVANT), "got")
        full = _clauses_for(ground_program(p, GroundingMode.FULL), "got")
        assert sorted(cl.head.args for cl in relevant) == [
            ("a", "paris"), ("b", "paris"), ("paris", "paris")
        ]
        assert len(full) == 9

    def test_full_expands_over_all_constants(self):
        p = load_program("shipping.tpl")
        g = ground_program(p, GroundingMode.FULL)
        express = [
            cl
            for cl in g.clauses
            if cl.head.predicate == "arrived" and len(cl.body) == 2
        ]
        # Place is pinned to paris, Item ranges over all four constants
        assert {cl.head.args for cl in express} == {
            (c, "paris") for c in ("letter", "paris", "rome", "shoes")
        }
        plain = [
            cl
            for cl in g.clauses
            if cl.head.predicate == "arrived" and len(cl.body) == 1
        ]
        assert len(plain) == 2 * 16

    def test_variable_free_program_is_identity(self):
        text = "calendar 1..2.\na@Y : <Y=1, [0.5], [0.6]>.\nb@1 : <Y=2, [0.1], [0.2]> :- a@Y1 : <Y1=1, #, #>.\n"
        p = parse_program(text).program
        for mode in GroundingMode:
            assert ground_program(p, mode).clauses == p.clauses

    def test_universe_empty(self):
        cal = Calendar.from_range(1, 2)
        clause = TPClause(
            TAtom("p", (ObjVar("X"),), TVar("Y")),
            TPAnnotation(Cmp(TVar("Y"), "=", TConst(1)), WeightFunction.sharp(), WeightFunction.sharp()),
        )
        program = PTProgram(cal, (clause,))
        with pytest.raises(UniverseEmpty):
            ground_program(program, GroundingMode.FULL)

    def test_declared_constants_feed_the_universe(self):
        text = "calendar 1..1. constants k. p(X)@Y : <Y=1, #, #>.\n"
        p = parse_program(text).program
        g = ground_program(p, GroundingMode.FULL)
        assert g.clauses[0].head.args == ("k",)

    def test_independent_temporal_variables_grounded(self):
        text = (
            "calendar 1..3.\n"
            "a@Y : <Y=1, #, #> :- b@Y1 : <Y1 = Y2, uniform, uniform>.\n"
        )
        p = parse_program(text).program
        g = ground_temporal_variables(p)
        assert len(g.clauses) == 3
        bounds = sorted(
            solve_constraint(cl.body[0][1].constraint, p.calendar)[0] for cl in g.clauses
        )
        assert bounds == [1, 2, 3]

    def test_instances_share_source_annotations(self):
        # without companion variables, grounding substitutes object constants
        # only, so each instance carries its source clause's annotation objects
        p = parse_program(golden_file("shipping8.tpl")).program
        g = ground_program(p, GroundingMode.FULL)
        source = {cl.head_annot.span: cl for cl in p.clauses}
        for cl in g.clauses:
            src = source[cl.head_annot.span]
            assert cl.head_annot is src.head_annot
            assert all(a is b for (_, a), (_, b) in zip(cl.body, src.body, strict=True))
        # a substituted companion variable still makes a new annotation
        p = parse_program("calendar 1..2.\na@Y : <Y=1, #, #> :- b@Y1 : <Y1 = Y2, #, #>.\n").program
        g = ground_temporal_variables(p).clauses
        assert g[0].body[0][1] is not g[1].body[0][1]

    def test_grounding_keeps_the_constants_unscanned(self, monkeypatch):
        # every instance draws its constants from the source program's, so
        # the grounded program takes that set as it is
        text = golden_file("shipping8.tpl") + "constants unused.\n"
        p = parse_program(text).program
        scans = []
        scan = tplp.model.occurring_constants
        monkeypatch.setattr(
            tplp.model, "occurring_constants", lambda clauses: scans.append(1) or scan(clauses)
        )
        for mode in GroundingMode:
            g = ground_program(p, mode)
            assert g.constants == p.constants and "unused" in g.constants
            assert g.calendar == p.calendar and len(g.clauses) > len(p.clauses)
            assert ground_temporal_variables(g).constants == p.constants
        assert scans == []


class TestUnfold:
    def test_one_instant_per_annotation(self, monkeypatch):
        # every ground instance of a clause carries its source annotations, so
        # unfolding at full grounding solves no constraint that validation
        # has solved: validation solves each annotation's constraint once,
        # for its instant, and reads the weight checks off that window
        calls = []

        def counting(c, cal):
            calls.append(c)
            return solve_constraint(c, cal)

        monkeypatch.setattr(tplp.model, "solve_constraint", counting)
        p = parse_program(golden_file("shipping8.tpl")).program
        annotations = [a for cl in p.clauses for a in (cl.head_annot, *(b for _, b in cl.body))]
        assert len(calls) == len(annotations) == 17
        assert len(unfold(ground_program(p, GroundingMode.FULL)).clauses) == 410
        assert len(calls) == 17

    def test_shipping_first_rule(self):
        p = load_program("shipping.tpl")
        pp = unfold(ground_temporal_variables(p))
        first_three = pp.clauses[:3]
        ivs = [(cl.head_iv.lo, cl.head_iv.hi) for cl in first_three]
        assert ivs == [
            (F(1, 4), F(2, 5)),
            (F(3, 20), F(6, 25)),
            (F(1, 10), F(4, 25)),
        ]
        times = [cl.head.time for cl in first_three]
        assert times == [3, 4, 5]
        for cl in first_three:
            assert len(cl.body) == 1
            f, iv = cl.body[0]
            assert f.atoms[0].predicate == "sent"
            assert f.atoms[0].time == 1
            assert (iv.lo, iv.hi) == (F(9, 10), F(1))
            # object variables survive temporal unfolding
            assert f.atoms[0].args == (ObjVar("Item"), ObjVar("Place"))

    def test_fact_unfolds_to_point_interval(self):
        p = parse_program("calendar 1..8. sent(shoes,rome)@Y : <Y=1, #, #>.").program
        pp = unfold(p)
        assert len(pp.clauses) == 1
        cl = pp.clauses[0]
        assert cl.body == ()
        assert (cl.head_iv.lo, cl.head_iv.hi) == (F(1), F(1))
        assert cl.head.time == 1

    def test_body_expands_inside_every_head_instance(self):
        text = (
            "calendar 1..4.\n"
            "a@Y : <Y:1~2, [0.5,0.5], [1,1]> :- b@Y1 : <Y1:1~2, [0.3,0.3], [0.9,0.9]>.\n"
        )
        pp = unfold(parse_program(text).program)
        assert len(pp.clauses) == 2
        for cl in pp.clauses:
            assert len(cl.body) == 2
            assert [f.atoms[0].time for f, _ in cl.body] == [1, 2]

    def test_empty_head_solution_warns_and_drops(self):
        text = "calendar 1..2.\na@Y : <Y=1, #, #>.\n"
        p = parse_program(text).program
        vacuous = TPClause(
            TAtom("b", (), TVar("Y")),
            TPAnnotation(Cmp(TVar("Y"), ">", TConst(9)), WeightFunction.uniform(), WeightFunction.uniform()),
        )
        warnings = []
        pp = unfold(PTProgram(p.calendar, p.clauses + (vacuous,)), warn=warnings.append)
        assert len(pp.clauses) == 1
        assert warnings and "empty solution set" in warnings[0]

    def test_count_law(self):
        rng = random.Random(301)
        for _ in range(60):
            cal = Calendar.from_range(1, rng.randint(1, 6))
            p = rand_tp_program(rng, cal, n_clauses=rng.randint(1, 4))
            pp = unfold(p)
            expected_clauses = sum(
                len(solve_constraint(cl.head_annot.constraint, cal)) for cl in p.clauses
            )
            assert len(pp.clauses) == expected_clauses
            index = 0
            for cl in p.clauses:
                n_heads = len(solve_constraint(cl.head_annot.constraint, cal))
                body_size = sum(
                    len(solve_constraint(ann.constraint, cal)) for _, ann in cl.body
                )
                for _ in range(n_heads):
                    assert len(pp.clauses[index].body) == body_size
                    index += 1

    def test_non_normal_rejected(self):
        clause = TPClause(
            TAtom("a", (), TVar("Y")),
            TPAnnotation(
                Cmp(TVar("Y"), "<=", TRef(TVar("Y1"))),
                WeightFunction.uniform(),
                WeightFunction.uniform(),
            ),
        )
        program = PTProgram(Calendar.from_range(1, 3), (clause,))
        with pytest.raises(NonNormalConstraint):
            unfold(program)

    def test_unfolded_renders_and_reparses(self):
        p = load_program("shipping.tpl")
        pp = unfold(ground_temporal_variables(p))
        text = render_program(pprogram_to_ptprogram(pp, p.calendar))
        assert parse_program(text).ok


class TestCompanionConnectives:
    """A companion variable under not, and and or, through every layer."""

    PROGRAM = (
        "calendar 1..3.\n"
        "a@Y : <Y = 1, [0.5], [0.5]>.\n"
        "b@Y : <not (Y = Y2) and Y >= 2, uniform, uniform> "
        ":- a@Y1 : <Y1 = Y2 or Y1 = 1, uniform, {upper}>.\n"
    )

    def program(self):
        return parse_program(self.PROGRAM.format(upper="uniform")).program

    def test_ground_instances(self):
        text = render_program(ground_program(self.program()))
        assert text.splitlines()[2:] == [
            f"b@Y : <(not Y = {t}) and Y >= 2, uniform, uniform> "
            f":- a@Y1 : <Y1 = {t} or Y1 = 1, uniform, uniform>."
            for t in (1, 2, 3)
        ]

    def test_ground_text_reparses_to_an_equal_program(self):
        ground = ground_program(self.program())
        assert parse_program(render_program(ground)).program == ground

    def test_witness_is_an_exact_model(self):
        pp = unfold(ground_program(self.program()))
        assert [str(cl) for cl in pp.clauses][1:3] == [
            "b@2:[0.5, 0.5] <- a@1:[1, 1]",
            "b@3:[0.5, 0.5] <- a@1:[1, 1]",
        ]
        res = check_consistency(pp)
        assert res.verdict is Verdict.CONSISTENT
        assert ki_satisfies(pp, res.witness)

    def test_weight_list_wrong_under_some_groundings(self):
        # Y2 = 1 gives the body one solution point, Y2 = 2 and Y2 = 3 two
        result = parse_program(self.PROGRAM.format(upper="[1]"))
        assert [str(d) for d in result.diagnostics] == [
            "3:90 error[LengthMismatch]: upper weight list has 1 values but |sol| = 2"
        ]


class TestFormulaOverSeveralTimes:
    """A ground body formula whose atoms sit at different time points."""

    PROGRAM = (
        "calendar 2..4.\n"
        "a@Y : <Y = 2, [0.5], [0.5]>.\n"
        "b@Y : <Y = 3, [0.5], [0.5]>.\n"
        "c@Y : <Y = 4, [0.2], [0.9]> :- a@2 and b@3 : <Y1 = 3, [0.1], [0.6]>.\n"
    )

    def test_unfolded_clause_names_the_first_calendar_point(self):
        p = parse_program(self.PROGRAM).program
        text = render_program(pprogram_to_ptprogram(unfold(p), p.calendar))
        assert text.splitlines()[3] == (
            "c@4 : <Y = 4, [0.2], [0.9]> :- a@2 and b@3 : <Y = 2, [0.1], [0.6]>."
        )

    def test_unfolded_text_unfolds_to_the_same_clauses(self):
        p = parse_program(self.PROGRAM).program
        pp = unfold(p)
        text = render_program(pprogram_to_ptprogram(pp, p.calendar))
        assert unfold(parse_program(text).program).clauses == pp.clauses


class TestNormalityAtTheInstant:
    """unfold reads normality off each annotation's instant, clause by clause."""

    def clause(self, head, body):
        def annot(c):
            return TPAnnotation(c, WeightFunction.uniform(), WeightFunction.uniform())

        formula = BasicFormula.single(TAtom("b", (), TVar("Y1")))
        return TPClause(TAtom("a", (), TVar("Y")), annot(head), ((formula, annot(body)),))

    def test_non_normal_says_ground_them_first(self):
        body = Cmp(TVar("Y1"), "=", TRef(TVar("Y2")))
        head = Cmp(TVar("Y"), "=", TConst(1))
        program = PTProgram(Calendar.from_range(1, 3), (self.clause(head, body),))
        with pytest.raises(NonNormalConstraint, match=r"\['Y2'\]; ground them first$"):
            unfold(program)

    def test_empty_head_window_skips_a_non_normal_body(self):
        head = Cmp(TVar("Y"), ">", TConst(9))
        body = Cmp(TVar("Y1"), "=", TRef(TVar("Y2")))
        program = PTProgram(Calendar.from_range(1, 3), (self.clause(head, body),))
        warnings = []
        assert unfold(program, warn=warnings.append).clauses == ()
        assert warnings == ["clause head a@Y has an empty solution set; no clauses emitted"]


class TestHerbrandBase:
    def test_p0_base(self):
        pp = load_unfolded("p0.tpl")
        assert [str(a) for a in pp.base] == ["a@1", "b@1"]

    def test_empty_program_base(self):
        assert len(herbrand_base([])) == 0

    def test_shipping_relevant_base_is_15(self):
        pp = load_unfolded("shipping.tpl")
        assert len(pp.base) == 15

    def test_deterministic_order_and_dedup(self):
        a1 = TAtom("b", (), 2)
        a2 = TAtom("a", ("x",), 1)
        base = HerbrandBase([a1, a2, a1])
        assert [str(a) for a in base] == ["a(x)@1", "b@2"]
        assert base.index_of(a1) == 1

    def test_rejects_non_ground(self):
        with pytest.raises(ValueError):
            HerbrandBase([TAtom("a", (ObjVar("X"),), 1)])

    def test_timeless_atoms(self):
        base = HerbrandBase([CAtom("b"), CAtom("a", ("x",)), CAtom("b")])
        assert [str(a) for a in base] == ["a(x)", "b"]
        assert base.index_of(CAtom("b")) == 1
        with pytest.raises(AtomNotInBase):
            base.index_of(CAtom("c"))
        with pytest.raises(AtomNotInBase):
            base.index_of(TAtom("b", (), 1))

    def test_ground_program_gets_its_base(self):
        clauses = load_unfolded("shipping.tpl").clauses
        assert PProgram(clauses).base == herbrand_base(clauses)
        given = HerbrandBase([*herbrand_base(clauses), TAtom("zz", (), 1)])
        assert PProgram(clauses, given).base is given

    def test_non_ground_program_has_no_base(self):
        x = TAtom("a", (ObjVar("X"),), 1)
        pp = PProgram((PClause(x, ProbInterval(F(1, 2), 1)),))
        assert pp.base is None
        assert unfold(load_program("shipping.tpl")).base is None
        with pytest.raises(ValueError, match="ground it first"):
            check_consistency(pp)

    def test_spans_take_no_part(self):
        span = SourceSpan(1, 1, 0, 1)
        base = HerbrandBase([TAtom("a", (), 1, span)])
        assert base.index_of(TAtom("a", (), 1)) == 0
        assert base == HerbrandBase([TAtom("a", (), 1)])


class TestModelPreservation:
    def test_clause_form_agrees_with_unfolding(self):
        rng = random.Random(302)
        agreements = 0
        for _ in range(80):
            cal = Calendar.from_range(1, rng.randint(1, 3))
            p = rand_tp_program(rng, cal, n_clauses=rng.randint(1, 3))
            pp = unfold(p)
            if pp.base is None or len(pp.base) == 0 or len(pp.base) > 10:
                continue
            ki = rand_distribution(rng, pp.base)
            assert ki_satisfies_tp(p, ki) == ki_satisfies(pp, ki)
            agreements += 1
        assert agreements >= 40


class TestRelevantSoundness:
    def _random_datalog_program(self, rng):
        """Fact-supported rules over two constants, small enough for FULL."""
        cal = Calendar.from_range(1, 2)
        constants = ["k1", "k2"]
        sharp = lambda: TPAnnotation(
            Cmp(TVar("Y"), "=", TConst(1)),
            WeightFunction.list_of([F(rng.randint(0, 10), 10)]),
            WeightFunction.list_of([F(1)]),
        )
        clauses = []
        facts = [("p", rng.choice(constants)), ("q", rng.choice(constants))]
        for pred, const in facts:
            clauses.append(TPClause(TAtom(pred, (const,), TVar("Y")), sharp()))
        for _ in range(rng.randint(1, 2)):
            head = TAtom("r", (ObjVar("X"),), TVar("Y"))
            body_pred = rng.choice(["p", "q"])
            body = (
                (
                    BasicFormula.single(TAtom(body_pred, (ObjVar("X"),), TVar("Y1"))),
                    TPAnnotation(
                        Cmp(TVar("Y1"), "=", TConst(1)),
                        WeightFunction.list_of([F(rng.randint(1, 9), 10)]),
                        WeightFunction.list_of([F(1)]),
                    ),
                ),
            )
            clauses.append(TPClause(head, sharp(), body))
        return PTProgram(cal, tuple(clauses))

    def test_relevant_instances_subset_of_full(self):
        rng = random.Random(303)
        for _ in range(40):
            p = self._random_datalog_program(rng)
            full = ground_program(p, GroundingMode.FULL)
            relevant = ground_program(p, GroundingMode.RELEVANT)
            assert set(relevant.clauses) <= set(full.clauses)

    def test_verdicts_agree_on_fact_supported_programs(self):
        from tplp.psat import check_consistency

        rng = random.Random(304)
        for _ in range(25):
            p = self._random_datalog_program(rng)
            full = unfold(ground_program(p, GroundingMode.FULL))
            relevant = unfold(ground_program(p, GroundingMode.RELEVANT))
            v_full = check_consistency(full).verdict
            v_rel = check_consistency(relevant).verdict
            assert v_full == v_rel


# --- grounding while unfolding ------------------------------------------------------
#
# unfold(p, warn, grounding=mode) grounds as it unfolds; each check below holds
# it to unfold(ground_program(p, mode), warn), the two-pass form.

def shipping_program(k: int) -> PTProgram:
    """Shipping's rules over k constants, item i sent to i * i modulo k, every
    third item sent express."""
    return parse_program("\n".join([
        "calendar 1..8.",
        "arrived(Item,Place)@Y : <Y:3~5, [0.04,0.25,0.08], [0.23,0.28,0.12]>"
        " :- sent(Item,Place)@Y1 : <Y1=1, [0.88], #>.",
        "arrived(Item,Place)@Y : <Y:6~8, [0.07,0.07,0.03], [0.22,0.2,0.07]>"
        " :- sent(Item,Place)@Y1 : <Y1=1, [0.5], #>.",
        "arrived(Item,c0)@Y : <Y:3~4, [0.19,0.25], [0.29,0.34]>"
        " :- sent(Item,c0)@Y1 : <Y1=1, [0.94], #> and express_mail(Item)@Y2 : <Y2=1, #, #>.",
        *(f"sent(c{i},c{i * i % k})@Y : <Y=1, #, #>." for i in range(k)),
        *(f"express_mail(c{i})@Y : <Y=1, #, #>." for i in range(0, k, 3)),
    ])).program


def lifted_program(rng: random.Random) -> PTProgram:
    """A rand_tp_program draw with object arguments on its atoms (the variables
    X and Z, the constants k and m) and, in about a third of its annotations, a
    companion temporal variable Y8 or Y9 under uniform weights, so that some
    groundings leave a window empty.  Some draws declare constants, some have
    none, some repeat a clause."""
    cal = Calendar.from_range(1, rng.randint(1, 4))
    p = rand_tp_program(rng, cal, n_clauses=rng.randint(1, 4))
    arity = {pred: rng.randint(0, 2) for pred in "abcde"}
    terms = [ObjVar("X"), ObjVar("Z"), "k", "m"]

    def atom(a):
        return TAtom(a.predicate, tuple(rng.choice(terms) for _ in range(arity[a.predicate])), a.time)

    def annotation(ann):
        if rng.random() < 0.6:
            return ann
        companion = Cmp(constraint_principal(ann.constraint), rng.choice([">=", "<", "!="]),
                        TRef(TVar(rng.choice(["Y8", "Y9"]))))
        uniform = WeightFunction.uniform()
        return TPAnnotation(CAnd(ann.constraint, companion), uniform, uniform)

    clauses = [
        TPClause(
            atom(cl.head),
            annotation(cl.head_annot),
            tuple((BasicFormula(f.connective, tuple(map(atom, f.atoms))), annotation(ann))
                  for f, ann in cl.body),
        )
        for cl in p.clauses
    ]
    if rng.random() < 0.2:
        clauses.append(clauses[-1])
    return PTProgram(cal, tuple(clauses), frozenset(rng.choice([(), ("k",), ("k", "n")])))


def _unfolding(f):
    """f(warn)'s program, or the class and message of its error; and its warnings."""
    warnings = []
    try:
        return f(warnings.append), warnings
    except Exception as exc:  # compared, by class and message, with the other path's
        return (type(exc), str(exc)), warnings


def _interned(pp: PProgram) -> dict:
    """pp's atoms by (predicate, args, time), in order of first occurrence,
    checking that each identity is one object."""
    seen = {}
    for cl in pp.clauses:
        for a in (cl.head, *(a for f, _ in cl.body for a in f.atoms)):
            assert seen.setdefault((a.predicate, a.args, a.time), a) is a
    return seen


def assert_fused_is_layered(p: PTProgram, mode: GroundingMode) -> None:
    fused, fused_warnings = _unfolding(lambda warn: unfold(p, warn, grounding=mode))
    layered, layered_warnings = _unfolding(lambda warn: unfold(ground_program(p, mode), warn))
    assert fused_warnings == layered_warnings
    if not isinstance(layered, PProgram):
        assert fused == layered
        return
    assert fused.clauses == layered.clauses
    assert [str(cl) for cl in fused.clauses] == [str(cl) for cl in layered.clauses]
    atoms = _interned(fused)
    assert [(k, a.span) for k, a in atoms.items()] == [
        (k, a.span) for k, a in _interned(layered).items()
    ]
    if layered.base is None:
        assert fused.base is None
        return
    # the base is sorted, not in the order of some dict or set
    assert fused.base.atoms == layered.base.atoms == herbrand_base(layered).atoms
    assert fused.base._index == layered.base._index
    assert all(atoms[k] is a for k, a in zip(fused.base._index, fused.base.atoms))


class TestGroundWhileUnfolding:
    PROGRAMS = {
        "fixtures": lambda: [load_program(name) for name in FIXTURE_PROGRAMS],
        "recipe_a": lambda: [recipe_a_program(seed) for seed in range(1000, 1020)],
        "recipe_b": lambda: [recipe_b_program(seed) for seed in range(400, 420)],
        "shipping": lambda: [shipping_program(8), shipping_program(20)],
        "lifted": lambda: [lifted_program(random.Random(seed)) for seed in range(200)],
    }

    @pytest.mark.parametrize("mode", list(GroundingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("programs", list(PROGRAMS))
    def test_equals_ground_then_unfold(self, programs, mode):
        for p in self.PROGRAMS[programs]():
            assert_fused_is_layered(p, mode)

    def test_lifted_draws_cover_every_path(self):
        draws = [lifted_program(random.Random(seed)) for seed in range(200)]
        assert sum(any(cl.object_vars for cl in p.clauses) for p in draws) >= 120
        assert sum(any(cl.companion_tvars for cl in p.clauses) for p in draws) >= 120
        outcomes = [
            _unfolding(lambda warn: unfold(p, warn, grounding=GroundingMode.FULL)) for p in draws
        ]
        assert sum(bool(warnings) for _, warnings in outcomes) >= 40
        programs = [pp for pp, _ in outcomes if isinstance(pp, PProgram)]
        assert sum(pp.base is not None and len(pp.base) > 0 for pp in programs) >= 150
        assert {err[0] for err, _ in outcomes if not isinstance(err, PProgram)} == {UniverseEmpty}

    PROGRAM = (
        "calendar 1..3.\n"
        "constants a, b.\n"
        "p(X)@Y : <Y > Y9, uniform, uniform>.\n"
        "q(X,Z)@Y : <Y < Y9, uniform, uniform> :- p(Z)@Y1 : <Y1 = Y9, #, #>.\n"
    )

    def test_empty_heads_warn_once_per_instance(self, monkeypatch, tmp_path, capsys):
        p = parse_program(self.PROGRAM).program
        solved = []

        def counting(c, cal):
            solved.append(c)
            return solve_constraint(c, cal)

        monkeypatch.setattr(tplp.model, "solve_constraint", counting)
        warnings = []
        pp = unfold(p, warnings.append, grounding=GroundingMode.FULL)
        heads = ["p(a)@Y", "p(b)@Y", "q(a,a)@Y", "q(a,b)@Y", "q(b,a)@Y", "q(b,b)@Y"]
        assert warnings == [
            f"clause head {h} has an empty solution set; no clauses emitted" for h in heads
        ]
        # p's head at Y9 = 1, 2, 3, then q's head, and its body at Y9 = 2, 3
        # (Y9 = 1 leaves q's head empty): each companion grounding is solved once
        assert len(solved) == 3 + 3 + 2
        solved.clear()
        assert unfold(ground_program(p), warnings.append) == pp
        # the two-pass form solves them once per instance
        assert warnings[6:] == warnings[:6] and len(solved) == 2 * 3 + 4 * 3 + 4 * 2
        path = tmp_path / "empty.tpl"
        path.write_text(self.PROGRAM)
        capsys.readouterr()
        # the uniform weights of overlapping windows conflict
        assert tplp.cli.run(["consistent", str(path)]).payload == "INCONSISTENT"
        # after validation's own warnings
        assert capsys.readouterr().err.endswith("".join(f"warning: {w}\n" for w in warnings[:6]))


def substituted_by_hand(p: PTProgram) -> list[TPClause] | None:
    """p's FULL ground instances, built here rather than by the grounder: per
    clause, each assignment of the sorted constants to its sorted object
    variables in product order, then each companion grounding.  None when a
    clause has object variables and the program no constants."""
    constants = sorted(p.constants)

    def atom(a: TAtom, env: dict) -> TAtom:
        args = tuple(env[x.name] if isinstance(x, ObjVar) else x for x in a.args)
        return TAtom(a.predicate, args, a.time, a.span)

    out = []
    for cl in p.clauses:
        atoms = [cl.head, *(a for f, _ in cl.body for a in f.atoms)]
        names = sorted({x.name for a in atoms for x in a.args if isinstance(x, ObjVar)})
        if names and not constants:
            return None
        for combo in itertools.product(constants, repeat=len(names)):
            env = dict(zip(names, combo))
            for t_env in companion_groundings(cl.companion_tvars, p.calendar):
                body = tuple(
                    (
                        BasicFormula(f.connective, tuple(atom(a, env) for a in f.atoms), f.span),
                        substitute_annotation(ann, t_env),
                    )
                    for f, ann in cl.body
                )
                head_annot = substitute_annotation(cl.head_annot, t_env)
                out.append(TPClause(atom(cl.head, env), head_annot, body, cl.span))
    return out


class TestObjectSubstitution:
    """ground_program at FULL against substituted_by_hand, which shares no code
    with the grounder's object substitution."""

    @staticmethod
    def atoms(clauses):
        """Each atom of the clauses, head first, with its span."""
        atoms = (a for cl in clauses for a in (cl.head, *(b for f, _ in cl.body for b in f.atoms)))
        return [(a, a.span) for a in atoms]

    def assert_substituted(self, p: PTProgram) -> bool:
        expected = substituted_by_hand(p)
        if expected is None:
            with pytest.raises(UniverseEmpty):
                ground_program(p, GroundingMode.FULL)
            return False
        clauses = ground_program(p, GroundingMode.FULL).clauses
        assert list(clauses) == expected
        assert [str(cl) for cl in clauses] == [str(cl) for cl in expected]
        assert self.atoms(clauses) == self.atoms(expected)
        assert all(cl.span is e.span for cl, e in zip(clauses, expected))
        return any(cl.object_vars for cl in p.clauses)

    def test_fixtures(self):
        assert sum(self.assert_substituted(load_program(name)) for name in FIXTURE_PROGRAMS) >= 2

    def test_lifted_draws(self):
        draws = [lifted_program(random.Random(seed)) for seed in range(200)]
        assert sum(self.assert_substituted(p) for p in draws) >= 120


class TestGroundWhileUnfoldingErrors:
    """The errors grounding raises, each raised by unfold(p, grounding=mode)
    as by ground_program(p, mode), before any clause or warning, and exiting
    the solving commands as the error's class does."""

    FIVE_VARIABLES = (
        "calendar 1..1.\n"
        "constants " + ", ".join(f"c{i}" for i in range(30)) + ".\n"
        "p(A,B,C,D,E)@Y : <Y=1, [0], [1]>.\n"
    )
    COMPANIONS = (
        "calendar 1..101.\n"
        "a@Y : <Y = 1, [0.5], [1]> :- b@Y1 : <Y1 >= Y3, uniform, uniform>"
        " and c@Y2 : <Y2 >= Y4, uniform, uniform>.\n"
    )
    # an empty head first, then a clause that cannot ground: no warning
    NO_CONSTANTS = "calendar 1..2.\nb@Y : <Y > 5, #, #>.\np(X)@Y : <Y = 1, #, #>.\n"
    # RELEVANT reaches the fact's Z first, FULL the rule's X
    RULE_THEN_FACT = (
        "calendar 1..2.\n"
        "r(X)@Y : <Y = 2, [0.5], [1]> :- s@Y1 : <Y1 = 1, #, #>.\n"
        "q(Z)@Y : <Y = 1, #, #>.\n"
    )

    @pytest.mark.parametrize(
        "text, error",
        [
            (FIVE_VARIABLES, GroundingTooLarge),
            (COMPANIONS, GroundingTooLarge),
            (NO_CONSTANTS, UniverseEmpty),
            (RULE_THEN_FACT, UniverseEmpty),
        ],
        ids=["instance-cap", "companion-cap", "no-constants", "rule-then-fact"],
    )
    @pytest.mark.parametrize("mode", list(GroundingMode), ids=lambda m: m.value)
    def test_same_error(self, monkeypatch, tmp_path, capsys, text, error, mode):
        p = parse_program(text).program
        with pytest.raises(error) as layered:
            ground_program(p, mode)

        def fail(*args):
            raise AssertionError("built a clause")

        monkeypatch.setattr(tplp.grounder, "PClause", fail)
        monkeypatch.setattr(tplp.grounder, "_substitute_clause", fail)
        warnings = []
        with pytest.raises(error) as fused:
            unfold(p, warnings.append, grounding=mode)
        assert (type(fused.value), str(fused.value), warnings) == (error, str(layered.value), [])
        path = tmp_path / "p.tpl"
        path.write_text(text)
        capsys.readouterr()
        res = tplp.cli.run(["consistent", str(path), "--grounding", mode.value])
        assert (res.exit_code, res.payload) == (error.exit_code, "")
        err = capsys.readouterr().err
        assert err.endswith(f"error: {layered.value}\n") and "warning: clause" not in err


class TestPClause:
    """PClause is a NamedTuple; it compares, hashes and prints as the frozen
    dataclass it replaces."""

    @staticmethod
    def dataclass_str(self):
        head = f"{self.head}:{self.head_iv}"
        if not self.body:
            return head
        return head + " <- " + " and ".join(f"{f}:{iv}" for f, iv in self.body)

    def clauses(self):
        a, b, c = (TAtom(x, (), 1) for x in "abc")
        single = BasicFormula.single
        yield PClause(b, ProbInterval(F(3, 4), F(1, 4)), ((single(a), ProbInterval(0, 1)),))
        yield PClause(a, ProbInterval(0, F(3, 4)), ())
        yield PClause(a, ProbInterval(0, F(3, 4)))
        yield PClause(c, ProbInterval(F(1, 2), 1), ((single(a), ProbInterval(F(1, 2), 1)),))
        joined = BasicFormula.of(tplp.model.Connective.AND, (a, b))
        yield PClause(c, ProbInterval(F(1, 2), F(7, 10)), ((joined, ProbInterval(F(1, 10), 1)),))
        yield from load_unfolded("shipping.tpl").clauses[:12]

    def test_matches_the_dataclass(self):
        Old = dataclasses.make_dataclass(
            "PClause",
            [("head", TAtom), ("head_iv", ProbInterval), ("body", tuple, dataclasses.field(default=()))],
            frozen=True,
            namespace={"__str__": self.dataclass_str},
        )
        new = list(self.clauses())
        old = [Old(*cl) for cl in new]
        for n, o in zip(new, old):
            assert (hash(n), repr(n), str(n)) == (hash(o), repr(o), str(o))
        assert [[m == n for m in new] for n in new] == [[m == o for m in old] for o in old]
        assert PClause(new[1].head, new[1].head_iv) == new[1] and new[1].body == ()

    def test_is_immutable(self):
        cl = next(self.clauses())
        for name in PClause._fields:
            with pytest.raises(AttributeError):
                setattr(cl, name, None)
        with pytest.raises(AttributeError):
            cl.extra = 1

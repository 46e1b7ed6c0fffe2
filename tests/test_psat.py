import functools
import itertools
import json
import math
import pathlib
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tplp.psat
from conftest import load_program, load_unfolded
from generators import (
    facts_last_pprogram,
    head_formulas,
    rand_ground_formula,
    rand_pprogram,
    rand_tp_program,
    recipe_a,
    recipe_b,
    small_base,
)
from oracles import (
    grid_distributions,
    grid_keys,
    on_grid,
    reference_couple,
    reference_entails,
    reference_leaf_rows,
    reference_leaves,
    reference_spread_product,
    reference_tighten,
    row_boxes,
)
from tplp.cli import run
from tplp.diagnostics import DiagnosticKind
from tplp.errors import BaseTooLarge, InconsistentProgram, InvalidAnnotation, NonConvergence
from tplp.grounder import GroundingMode, HerbrandBase, PClause, PProgram, ground_program, unfold
from tplp.intervals import ProbInterval, and_ig, or_ig
from tplp.model import (
    BasicFormula,
    Calendar,
    Connective,
    TAtom,
    TPAnnotation,
    TVar,
    substitute_time,
)
from tplp.parser import Query, QueryKind, parse_program, parse_query
from tplp.psat import (
    SolveOptions,
    _BoxSolve,
    _Engine,
    _limit_denominator,
    _Walk,
    Verdict,
    check_consistency,
    entails,
    max_entropy_model,
    tighten,
)
from tplp.simplex import solve_lp
from tplp.worlds import WorldDistribution, atom_mass, ki_satisfies


GOLDEN = pathlib.Path(__file__).parent / "golden"


def single(pred, t=1, args=()):
    return BasicFormula.single(TAtom(pred, args, t))


class TestCheckConsistency:
    def test_p0_consistent_with_exact_witness(self):
        pp = load_unfolded("p0.tpl")
        res = check_consistency(pp)
        assert res.verdict is Verdict.CONSISTENT
        assert ki_satisfies(pp, res.witness)

    def test_p1_inconsistent(self):
        pp = load_unfolded("p1.tpl")
        assert check_consistency(pp).verdict is Verdict.INCONSISTENT

    def test_empty_program_consistent(self):
        pp = PProgram((), HerbrandBase([]))
        res = check_consistency(pp)
        assert res.verdict is Verdict.CONSISTENT
        assert res.witness.total == 1

    def test_boundary_case_reported_unknown(self):
        pp = load_unfolded("boundary.tpl")
        assert check_consistency(pp).verdict is Verdict.UNKNOWN_EPS

    def test_boundary_becomes_consistent_with_tiny_epsilon(self):
        # shrinking epsilon does not help here: the conflict is pinned exactly
        pp = load_unfolded("boundary.tpl")
        res = check_consistency(pp, SolveOptions(epsilon=F(1, 10**9)))
        assert res.verdict is Verdict.UNKNOWN_EPS

    def test_base_cap(self):
        pp = load_unfolded("shipping.tpl")
        with pytest.raises(BaseTooLarge):
            check_consistency(pp, SolveOptions(max_world_atoms=8))

    def test_witness_deterministic(self):
        pp = load_unfolded("p0.tpl")
        w1 = check_consistency(pp).witness
        w2 = check_consistency(pp).witness
        assert list(w1.items()) == list(w2.items())

    def test_shipping_consistent_at_15_atoms(self):
        pp = load_unfolded("shipping.tpl")
        res = check_consistency(pp)
        assert res.verdict is Verdict.CONSISTENT
        assert ki_satisfies(pp, res.witness)

    def test_random_witnesses_are_exact_models(self):
        rng = random.Random(407)
        consistent_seen = 0
        for _ in range(60):
            pp = rand_pprogram(rng, small_base(rng.randint(2, 4)), n_clauses=rng.randint(1, 3))
            res = check_consistency(pp)
            if res.verdict is Verdict.CONSISTENT:
                assert ki_satisfies(pp, res.witness)
                consistent_seen += 1
        assert consistent_seen >= 20

    def test_program_deeper_than_the_recursion_limit(self):
        # One level of the clause-choice tree per unfolded clause.
        lines = ["calendar 1..1."]
        for i in range(620):
            lines.append(f"a{i}@Y : <Y=1, [0.5], [0.5]>.")
            lines.append(f"b{i}@Y : <Y=1, [0.6], [0.7]> :- a{i}@Y1 : <Y1=1, [0.4], [0.6]>.")
        pp = unfold(parse_program("\n".join(lines)).program)
        assert len(pp.clauses) > max(1200, sys.getrecursionlimit())
        res = check_consistency(pp, SolveOptions(max_world_atoms=2 * len(pp.clauses)))
        assert res.verdict is Verdict.CONSISTENT
        assert ki_satisfies(pp, res.witness)


class TestLeafWalk:
    # The rule keeps all three of its choices: head in [0.9, 1], or the body
    # atom below 0.4 or above 0.6, each compatible with the fact.
    TEXT = (
        "calendar 1..1.\n"
        "a@Y : <Y=1, [0.2], [0.8]>.\n"
        "b@Y : <Y=1, [0.9], [1]> :- a@Y1 : <Y1=1, [0.4], [0.6]>.\n"
    )
    # Each body violation of the rule fits the boxes, but the facts' masses
    # leave a AND b at most 0.5 and a OR b at least 0.5: the walk at epsilon
    # reaches two leaves that the LP rejects, the walk at zero feasible ones.
    UNKNOWN_EPS_TEXT = (
        "calendar 1..1.\n"
        "a@Y : <Y=1, [0.5], [0.5]>.\n"
        "b@Y : <Y=1, [0.5], [0.5]>.\n"
        "c@Y : <Y=1, [0.2], [0.2]>.\n"
        "c@Y : <Y=1, [0.9], [1]> :- a@Y1 and b@Y1 : <Y1=1, [0], [0.5]>"
        " and a@Y2 or b@Y2 : <Y2=1, [0.5], [1]>.\n"
    )

    def test_leaves_in_clause_then_choice_order(self):
        pp = unfold(parse_program(self.TEXT).program)
        eps = F(1, 10**6)
        engine = _Engine(pp, SolveOptions())
        walk = _Walk(engine, eps)
        walked = list(walk)
        assert walk.walked == len(walked)
        a = next(fid for fid, _, body in engine.clauses if not body)
        b = next(fid for fid, _, body in engine.clauses if body)

        def box(fid, lo, hi):
            return fid, on_grid(engine, lo), on_grid(engine, hi)

        assert [set().union(*keys.values()) for keys in walked] == [
            {box(a, F(1, 5), F(4, 5)), box(b, F(9, 10), F(1))},
            {box(a, F(1, 5), F(2, 5) - eps)},
            {box(a, F(3, 5) + eps, F(4, 5))},
        ]

    def test_branch_count_is_leaves_consumed(self):
        pp = unfold(parse_program(self.TEXT).program)
        assert check_consistency(pp).branch_count == 1
        assert tighten(pp, [single("b")]).branch_count == 3
        assert max_entropy_model(pp).branch_count == 3

    def test_unknown_eps_counts_the_walk_at_epsilon(self):
        pp = unfold(parse_program(self.UNKNOWN_EPS_TEXT).program)
        engine = _Engine(pp, SolveOptions())
        reference = list(reference_leaves(engine, SolveOptions().epsilon))
        assert len(reference) == 2 and not any(feasible for _, feasible in reference)
        assert next(iter(_Walk(engine, F(0))), None) is not None
        res = check_consistency(pp)
        assert res.verdict is Verdict.UNKNOWN_EPS
        assert res.branch_count == len(reference)

    def interleave_programs(self):
        yield unfold(parse_program(self.TEXT).program)
        yield unfold(parse_program(self.UNKNOWN_EPS_TEXT).program)
        rng = random.Random(409)
        for _ in range(40):
            base = small_base(rng.randint(2, 5))
            yield rand_pprogram(rng, base, n_clauses=rng.randint(1, 5))

    def test_walks_of_one_engine_interleave(self):
        """A walk at epsilon and a walk at 0 of one engine, advanced in turn
        one leaf at a time, each yield the feasible leaves of their own
        reference walk and count its leaves; settling one walk at its first
        leaf leaves the other's leaves as they were."""
        eps = SolveOptions().epsilon
        for pp in self.interleave_programs():
            engine = _Engine(pp, SolveOptions())
            expected = []
            for walk_eps in (eps, F(0)):
                reference = list(reference_leaves(engine, walk_eps))
                expected.append(([keys for keys, ok in reference if ok], len(reference)))
            for settle in (None, 0, 1):
                walks = [_Walk(engine, eps), _Walk(engine, F(0))]
                runs = [iter(walk) for walk in walks]
                yielded = [[], []]
                done = [False, False]
                while not all(done):
                    for i in (0, 1):
                        keys = None if done[i] else next(runs[i], None)
                        if keys is None:
                            done[i] = True
                            continue
                        yielded[i].append(keys)
                        walks[i].settled = i == settle
                for i, walk in enumerate(walks):
                    leaves, count = expected[i]
                    assert walk.walked == count
                    assert yielded[i] == (leaves[:1] if i == settle else leaves)

    def test_maxent_branch_count_is_the_reference_count(self):
        """max_entropy_model's branch_count is the reference walk's leaf count
        at epsilon, and it answers exactly when some leaf there is feasible.
        Body formulas have one atom each: with multi-atom ones, 25 of the 120
        default draws run past 2 s in the entropy ascent, which is ROADMAP
        item 3's open defect, not the count under test."""
        rng = random.Random(409)
        answered = 0
        for _ in range(120):
            base = small_base(rng.randint(2, 5))
            pp = rand_pprogram(rng, base, n_clauses=rng.randint(1, 5), formula_sizes=(1,))
            eps = SolveOptions().epsilon
            reference = list(reference_leaves(_Engine(pp, SolveOptions()), eps))
            if not any(feasible for _, feasible in reference):
                with pytest.raises(InconsistentProgram):
                    max_entropy_model(pp)
                continue
            assert max_entropy_model(pp).branch_count == len(reference)
            answered += 1
        assert answered == 108


@pytest.fixture
def narrowings(monkeypatch):
    """The number of box narrowings made so far: calls to psat._narrow."""
    calls = []
    narrow = tplp.psat._narrow

    def counting(boxes, rows):
        calls.append(None)
        return narrow(boxes, rows)

    monkeypatch.setattr(tplp.psat, "_narrow", counting)
    return calls


class TestLookAhead:
    """The walk's look-ahead prunes only subtrees without a box-consistent
    leaf: it reaches the leaves of the reference walk and yields the feasible
    ones, in the same order."""

    EPSILONS = (SolveOptions().epsilon, F(0))

    def assert_reference_leaves(self, pp):
        engine = _Engine(pp, SolveOptions())
        for eps in self.EPSILONS:
            reference = list(reference_leaves(engine, eps))
            walk = _Walk(engine, eps)
            assert list(walk) == [keys for keys, feasible in reference if feasible]
            assert walk.walked == len(reference)

    def test_random_programs(self):
        rng = random.Random(409)
        for _ in range(120):
            base = small_base(rng.randint(2, 5))
            self.assert_reference_leaves(rand_pprogram(rng, base, n_clauses=rng.randint(1, 5)))

    def test_facts_after_conflicting_rules(self):
        rng = random.Random(410)
        for _ in range(40):
            self.assert_reference_leaves(facts_last_pprogram(rng, rng.randint(2, 5)))

    def test_clause_without_a_choice_at_the_root(self):
        # With eps > 0 the middle clause has no choice: its head interval is
        # empty and neither body violation fits in [0, 1].
        a, b, c = (TAtom(p, (), 1) for p in "abc")
        dead = PClause(b, ProbInterval(F(3, 4), F(1, 4)), ((single("a"), ProbInterval(0, 1)),))
        pp = PProgram(
            (
                PClause(a, ProbInterval(0, F(3, 4)), ()),
                dead,
                PClause(c, ProbInterval(F(1, 2), 1), ((single("a"), ProbInterval(F(1, 2), 1)),)),
            ),
            HerbrandBase([a, b, c]),
        )
        engine = _Engine(pp, SolveOptions())
        walk = _Walk(engine, SolveOptions().epsilon)
        assert list(walk) == [] and walk.walked == 0
        assert list(_Walk(engine, F(0))) != []
        self.assert_reference_leaves(pp)

    def test_conflicting_facts_prune_at_the_rules(self, narrowings):
        # Every rule's body violations conflict with its fact; the reference
        # walk tries all 3**6 choice combinations of the rules before the
        # facts, the look-ahead drops each violation as soon as it is taken.
        n = 6
        base = small_base(2 * n)
        body_iv = ProbInterval(F(1, 4), F(3, 4))
        rules = [
            PClause(head, ProbInterval(F(1, 2), 1), ((BasicFormula.single(atom), body_iv),))
            for atom, head in zip(base.atoms[:n], base.atoms[n:])
        ]
        facts = [PClause(atom, ProbInterval.point(F(1, 2)), ()) for atom in base.atoms[:n]]
        engine = _Engine(PProgram(tuple(rules + facts), base), SolveOptions())
        eps = SolveOptions().epsilon
        walk = _Walk(engine, eps)
        walked = list(walk)
        assert len(walked) == walk.walked == 1
        assert len(narrowings) <= 4 * n
        assert list(reference_leaves(engine, eps)) == [(walked[0], True)]

    def test_shipping_tighten_narrowing_count(self, fixtures, narrowings):
        res = run(
            [
                "tighten",
                str(fixtures / "shipping.tpl"),
                str(fixtures / "arrival_tighten.tpq"),
                "--grounding",
                "relevant",
            ]
        )
        assert res.exit_code == 0
        assert 0 < len(narrowings) <= 200


class TestOffGridEpsilon:
    """An epsilon whose denominator shares no factor with the programs'
    intervals, and one of thirty digits, lies on the engine's grid with its
    half: the walks at epsilon, epsilon/2 and 0 reach the leaves of the
    Fraction reference and yield its feasible ones, and the verdicts, branch
    counts and tightened intervals are the reference's."""

    def programs(self):
        """The first programs of TestLookAhead's generators: the reference
        walk, which has no look-ahead, takes over a second on the seventh
        facts_last_pprogram at each epsilon."""
        rng = random.Random(409)
        for _ in range(40):
            base = small_base(rng.randint(2, 5))
            yield rand_pprogram(rng, base, n_clauses=rng.randint(1, 5))
        rng = random.Random(410)
        for _ in range(6):
            yield facts_last_pprogram(rng, rng.randint(2, 5))

    @pytest.mark.parametrize("eps", [F(1, 3), F(1, 7), F(1, 10**30)], ids=["1/3", "1/7", "1e-30"])
    def test_walks_verdicts_and_intervals(self, eps):
        from oracles import BruteForce

        opts = SolveOptions(epsilon=eps)
        verdicts = {v: 0 for v in Verdict}
        sensitive = 0
        for pp in self.programs():
            engine = _Engine(pp, opts)
            assert engine.denominator % (eps / 2).denominator == 0
            feasible = {}
            for walk_eps in (eps, eps / 2, F(0)):
                reference = list(reference_leaves(engine, walk_eps))
                leaves = [keys for keys, ok in reference if ok]
                walk = _Walk(engine, walk_eps)
                assert list(walk) == leaves, walk_eps
                assert walk.walked == len(reference)
                feasible[walk_eps] = bool(leaves)
            res = check_consistency(pp, opts)
            if feasible[eps]:
                assert res.verdict is Verdict.CONSISTENT and ki_satisfies(pp, res.witness)
            elif feasible[F(0)]:
                assert res.verdict is Verdict.UNKNOWN_EPS
            else:
                assert res.verdict is Verdict.INCONSISTENT
            verdicts[res.verdict] += 1
            if eps.denominator < 10:  # a float epsilon the oracle can use
                oracle = BruteForce(pp, eps=float(eps))
                assert (res.verdict is Verdict.CONSISTENT) == oracle.consistent()
            heads = [BasicFormula.single(h) for h in dict.fromkeys(c.head for c in pp.clauses)]
            expected = reference_tighten(pp, heads, opts)
            if expected is None:
                with pytest.raises(InconsistentProgram):
                    tighten(pp, heads, opts)
                continue
            got = tighten(pp, heads, opts)
            assert (got.intervals, got.branch_count, got.boundary_sensitive) == expected
            sensitive += got.boundary_sensitive
        assert verdicts[Verdict.CONSISTENT] >= 30 and verdicts[Verdict.INCONSISTENT] >= 5
        assert sensitive >= (3 if eps.denominator < 10 else 0)

    def test_engine_refuses_a_walk_off_its_grid(self):
        engine = _Engine(load_unfolded("p0.tpl"), SolveOptions())
        with pytest.raises(ValueError, match="not a multiple"):
            _Walk(engine, F(1, 3))


@pytest.fixture
def lp_systems(monkeypatch):
    """The row system of every solve_lp call made so far, in call order."""
    calls = []
    solve = tplp.psat.solve_lp

    def counting(num_vars, rows, *args, **kwargs):
        calls.append((num_vars, tuple((tuple(c), sense, rhs) for c, sense, rhs in rows)))
        return solve(num_vars, rows, *args, **kwargs)

    monkeypatch.setattr(tplp.psat, "solve_lp", counting)
    return calls


def dense_program(rng: random.Random) -> PProgram:
    """Six atoms in one component: two facts and a rule whose three body
    formulas chain through shared atoms, with intervals drawn from rng."""

    def annot(var: str) -> str:
        lo, hi = sorted(rng.sample(range(1, 20), 2))
        return f"<{var}=1, [{lo}/20], [{hi}/20]>"

    text = (
        "calendar 1..1.\n"
        f"p0@Y : {annot('Y')}.\n"
        f"p4@Y : {annot('Y')}.\n"
        f"p1@Y : {annot('Y')} :- p3@Y1 and p1@Y1 : {annot('Y1')}"
        f" and p5@Y2 and p2@Y2 and p3@Y2 : {annot('Y2')}"
        f" and p0@Y3 or p4@Y3 or p5@Y3 : {annot('Y3')}.\n"
    )
    result = parse_program(text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return unfold(ground_program(result.program, GroundingMode.FULL))


class TestWarmStarts:
    """A row system's phase one runs once: its least and greatest masses and
    every Frank-Wolfe direction start from its feasibility solve."""

    def test_tighten_solves_each_row_system_once(self, lp_systems):
        pp = dense_program(random.Random(501))
        target = single("p0")
        assert len(_Engine(pp, SolveOptions(), [target]).components) == 1
        res = tighten(pp, [target])
        assert res.intervals == [ProbInterval(F(1, 2), F(3, 5))]
        assert res.branch_count > 1 and len(lp_systems) > 1
        assert len(lp_systems) == len(set(lp_systems))

    def test_saturated_tighten_stops_solving(self, lp_systems):
        # the first leaf already gives p5 and p2 and p3 every mass in [0, 1]:
        # the walk counts the other leaves without solving them, and the
        # probe at epsilon/2 makes no walk
        pp = dense_program(random.Random(501))
        target = BasicFormula.of(Connective.AND, [TAtom(p, (), 1) for p in ("p5", "p2", "p3")])
        res = tighten(pp, [target])
        assert res.intervals == [ProbInterval(F(0), F(1))]
        assert (res.branch_count, res.boundary_sensitive) == (7, False)
        assert len(lp_systems) == 1

    def test_maxent_solves_each_row_system_once(self, lp_systems):
        # multicol18 (tests/golden/multicolumn.json) has multi-atom components
        # whose leaves repeat row systems: 7 distinct 3-column LPs
        text = json.loads((GOLDEN / "multicolumn.json").read_text())["files"]["multicol18.tpl"]
        pp = unfold(ground_program(parse_program(text).program, GroundingMode.RELEVANT))
        res = max_entropy_model(pp)
        assert res.branch_count > len(lp_systems)
        assert len(lp_systems) == len(set(lp_systems)) == 7
        assert {n for n, _ in lp_systems} == {3}

    def test_maxent_over_one_atom_makes_no_lp(self, lp_systems):
        res = max_entropy_model(load_unfolded("mx.tpl"))
        assert abs(res.entropy - math.log(2)) < 1e-4
        assert lp_systems == []


class TestBoxLeaves:
    """A leaf is its boxes: every row the walk's choices make bounds one
    formula's mass, so rows looser than a formula's box are redundant, and
    the boxes key every component LP."""

    def test_row_union_and_box_rows_agree(self):
        rng = random.Random(912)
        # per component row union of a leaf: those seen, those with a looser row
        programs = systems = looser = 0
        while programs < 120:
            base = small_base(rng.randint(3, 6))
            pp = rand_pprogram(
                rng, base, n_clauses=rng.randint(2, 4), formula_sizes=(1, 2, 2, 3)
            )
            engine = _Engine(pp, SolveOptions())
            multi = [comp for comp in engine.components if comp.k > 1]
            if not multi:
                continue
            programs += 1
            checked = set()
            for eps in (SolveOptions().epsilon, F(0)):
                for rows in reference_leaf_rows(engine, eps):
                    keys = grid_keys(engine, row_boxes(rows))
                    for comp in multi:
                        mine = sorted({r for r in rows if engine._fid_comp[r[0]] == comp.cid})
                        if not mine or (comp.cid, *mine) in checked:
                            continue
                        checked.add((comp.cid, *mine))
                        n = len(comp.classes)
                        union_rows = [([1] * n, "=", 1)] + [
                            (list(engine._coeffs[fid]), sense, rhs) for fid, sense, rhs in mine
                        ]
                        box_rows = engine._lp_rows(comp, keys.get(comp.cid, frozenset()))
                        systems += 1
                        if union_rows == box_rows:
                            continue
                        looser += 1
                        union, boxed = solve_lp(n, union_rows), solve_lp(n, box_rows)
                        assert union.status == boxed.status, (rows, box_rows)
                        if boxed.x is None:
                            continue
                        for _ in range(3):
                            objective = [rng.randint(-3, 3) for _ in range(n)]
                            for maximize in (False, True):
                                assert (
                                    union.optimum(objective, maximize).value
                                    == boxed.optimum(objective, maximize).value
                                ), (rows, objective, maximize)
        assert systems >= 2000 and looser >= 300

    def test_recipe_leaves_share_box_lps(self, lp_systems):
        # The 8-clause program of recipe B at seed 405: its 60 leaves carry 41
        # distinct per-component row unions but 29 box keys.
        pp, _ = recipe_b(405)
        res = tighten(pp, head_formulas(pp))
        assert res.branch_count == 60
        assert res.intervals == [
            ProbInterval(F(2, 5), F(19, 20)),
            ProbInterval(F(13, 20), F(3, 4)),
        ]
        assert len(lp_systems) == len(set(lp_systems)) == 29


class TestRecipeA:
    def test_verdicts_and_counts_pinned(self):
        """check_consistency's verdict and branch_count at every seed the
        golden file lists, and every CONSISTENT witness an exact model."""
        answers = json.loads((GOLDEN / "recipe_a.json").read_text())["answers"]
        got = {}
        for seed in answers:
            pp, _ = recipe_a(int(seed))
            res = check_consistency(pp)
            got[seed] = [res.verdict.value, res.branch_count]
            if res.verdict is Verdict.CONSISTENT:
                assert ki_satisfies(pp, res.witness), seed
        assert got == answers


class TestBoxDecided:
    """A one-atom component is decided by its box, with no LP, and the box
    gives exactly the status, the vertex and the optima the simplex would
    over the box's rows.  The walk never yields an empty box, nor [0, 1]."""

    SHAPES = ("<=", ">=", "both", "point")

    @staticmethod
    def box(rng: random.Random, shape: str) -> tuple:
        """A box (lo, hi) of the shape, neither empty nor [0, 1]."""
        def rhs():
            d = rng.choice([2, 3, 7, 10, 1000])
            return F(rng.randint(0, d), d)

        if shape == "point":
            lo = hi = rhs()
        elif shape == "<=":
            lo, hi = F(0), rhs()
        elif shape == ">=":
            lo, hi = rhs(), F(1)
        else:
            lo, hi = sorted([rhs(), rhs()])
        if (lo, hi) == (0, 1) or (shape == "both" and (lo == 0 or hi == 1)):
            return TestBoxDecided.box(rng, shape)
        return lo, hi

    @staticmethod
    def objective(rng: random.Random) -> tuple:
        """Two class costs, equal about a third of the time, ints or
        fractions of either sign."""
        def cost():
            return rng.choice([rng.randint(-3, 3), F(rng.randint(-50, 50), rng.randint(1, 9))])

        a = cost()
        return (a, a if rng.random() < 0.3 else cost())

    def test_vertex_and_optima_match_the_simplex(self):
        rng = random.Random(909)
        seen = {shape: 0 for shape in self.SHAPES}
        ties = 0
        for i in range(1500):
            shape = rng.choice(self.SHAPES)
            lo, hi = self.box(rng, shape)
            rows = [([1, 1], "=", 1)]
            rows += [([1, 0], "<=", hi)] if hi < 1 else []
            rows += [([1, 0], ">=", lo)] if lo > 0 else []
            lp = solve_lp(2, rows)
            # bounds as integers over a denominator, reduced or not
            d = math.lcm(lo.denominator, hi.denominator) * (1, 6)[i % 2]
            box = _BoxSolve(((0, int(lo * d), int(hi * d)),), d)
            assert (box.status, box.x) == (lp.status, lp.x), (shape, lo, hi)
            seen[shape] += 1
            assert box.lo == lp.optimum((1, 0), maximize=False).value, (lo, hi)
            assert box.hi == lp.optimum((1, 0), maximize=True).value, (lo, hi)
            for _ in range(4):
                objective, maximize = self.objective(rng), rng.random() < 0.5
                ties += objective[0] == objective[1]
                got, want = box.optimum(objective, maximize), lp.optimum(objective, maximize)
                assert (got.status, got.x, got.value) == (want.status, want.x, want.value), (
                    lo, hi, objective, maximize,
                )
        assert min(seen.values()) >= 300 and ties >= 600

    def test_no_lp_for_one_atom_components(self, lp_systems):
        from oracles import BruteForce

        rng = random.Random(910)
        consistent = 0
        for _ in range(40):
            pp = rand_pprogram(
                rng, small_base(rng.randint(2, 4)), n_clauses=rng.randint(1, 4), formula_sizes=(1,)
            )
            target = BasicFormula.single(pp.clauses[0].head)
            engine = _Engine(pp, SolveOptions(), [target])
            assert all(comp.k == 1 for comp in engine.components)
            assert all(engine.components[cid].box_decided for cid in engine._parts)
            oracle = BruteForce(pp, extra_formulas=[target])
            res = check_consistency(pp)
            assert (res.verdict is Verdict.CONSISTENT) == oracle.consistent()
            if res.verdict is not Verdict.CONSISTENT:
                continue
            consistent += 1
            assert ki_satisfies(pp, res.witness)
            bounds = tighten(pp, [target]).intervals[0]
            lo, hi = oracle.tighten(target)
            assert abs(float(bounds.lo) - lo) <= 1e-6
            assert abs(float(bounds.hi) - hi) <= 1e-6
        assert lp_systems == []
        assert consistent >= 15


class TestRowlessComponents:
    """A component with no rows in a leaf is bounded by the row summing its
    class masses to 1 alone, whose vertices put all mass on one class: the
    range of every query part in it is [0, 1], with no LP."""

    def test_no_lp_for_an_atom_outside_the_program(self, lp_systems):
        pp = unfold(parse_program("calendar 1..1.\na@Y : <Y=1, [0.2], [0.8]>.\n").program)
        assert tighten(pp, [single("z")]).intervals == [ProbInterval(F(0), F(1))]
        assert lp_systems == []

    def test_ranges_match_the_simplex(self):
        rng = random.Random(911)
        checked = joined = 0
        for _ in range(60):
            base = small_base(rng.randint(2, 4))
            pp = rand_pprogram(rng, base, n_clauses=rng.randint(1, 4))
            atoms = list(base.atoms) + [TAtom("z", (), 1), TAtom("w", (), 1)]
            formulas = []
            for _ in range(rng.randint(1, 3)):
                members = tuple(rng.sample(atoms, rng.randint(1, 3)))
                conn = rng.choice([Connective.AND, Connective.OR])
                formulas.append(BasicFormula.of(conn, members))
            engine = _Engine(pp, SolveOptions(), formulas)
            ranges = engine.mass_ranges({})
            for f, fid in zip(formulas, engine.extra_fids):
                idxs = {engine.base.index_of(a) for a in f.atoms}
                parts = [comp for comp in engine.components if idxs & set(comp.atoms)]
                fold = or_ig if f.connective is Connective.OR else and_ig
                want = None
                for comp in parts:
                    # the part: f's atoms in comp under f's connective
                    mask = comp.formula_mask(*comp.local(f.connective, idxs))
                    n = len(comp.classes)
                    start = solve_lp(n, [([1] * n, "=", 1)])
                    lp = (
                        start.optimum(comp.coefficients(mask, True)).value,
                        start.optimum(comp.coefficients(mask), maximize=True).value,
                    )
                    name = fid if len(parts) == 1 else (fid, comp.cid)
                    assert engine._ranges[comp.cid, ()][name] == lp
                    want = ProbInterval(*lp) if want is None else fold(want, ProbInterval(*lp))
                    checked += 1
                assert ranges[fid] == (want.lo, want.hi)
                joined += len(parts) > 1
        assert checked >= 100 and joined >= 40


class TestRangesByBound:
    """mass_ranges asks each solve for optimal values only (LPResult.bound,
    phase two over the distinct columns); the ranges are those optimum()
    gives over every column."""

    @staticmethod
    def ranges_by_optimum(engine, keys) -> dict:
        out = {}
        for cid, parts in engine._parts.items():
            key = keys.get(cid, ())
            for name, least, most in parts:
                if not key:
                    out[name] = (F(0), F(1))
                    continue
                start = engine._solved(engine.components[cid], key)
                out[name] = (start.optimum(least).value, start.optimum(most, True).value)
        for fid, fold, names in engine._folds:
            iv = functools.reduce(fold, (ProbInterval(*out.pop(name)) for name in names))
            out[fid] = (iv.lo, iv.hi)
        return out

    def test_multicolumn_programs(self):
        # each program's head formulas, and the conjunction and disjunction
        # of each two consecutive base atoms, whose least and greatest masses
        # may differ and whose parts may lie in two components
        files = json.loads((GOLDEN / "multicolumn.json").read_text())["files"]
        leaves = copies = boxes = spread = folded = 0
        for name, text in sorted(files.items()):
            if not name.endswith(".tpl"):
                continue
            pp = unfold(ground_program(parse_program(text).program, GroundingMode.FULL))
            atoms = list(pp.base.atoms)
            pairs = [
                BasicFormula.of(conn, pair)
                for conn in (Connective.AND, Connective.OR)
                for pair in zip(atoms, atoms[1:])
            ]
            engine = _Engine(pp, SolveOptions(), head_formulas(pp) + pairs)
            if all(comp.k == 1 for comp in engine.components):
                continue
            parts = [part for parts in engine._parts.values() for part in parts]
            spread += sum(least != most for _, least, most in parts)
            folded += len(engine._folds)
            for keys in _Walk(engine, SolveOptions().epsilon):
                leaves += 1
                assert engine.mass_ranges(keys) == self.ranges_by_optimum(engine, keys), name
                for cid, parts in engine._parts.items():
                    if cid not in keys:
                        continue
                    start = engine._solved(engine.components[cid], keys[cid])
                    if isinstance(start, _BoxSolve):
                        boxes += 1
                        for _, least, most in parts:
                            assert start.bound(least) == start.optimum(least).value
                            assert start.bound(most, True) == start.optimum(most, True).value
                    else:
                        copies += len(start._start.col_of) > start._start.num_vars
        counts = (leaves, copies, boxes, spread, folded)
        assert all(n >= least for n, least in zip(counts, (50, 50, 90, 15, 28))), counts


class TestGridOracle:
    """One-sided soundness: whenever a grid distribution is a model, the
    solver must report CONSISTENT."""

    def _random_small_pprogram(self, rng, n_atoms):
        base = small_base(n_atoms)
        return rand_pprogram(rng, base, n_clauses=rng.randint(1, 3))

    def test_two_atom_exhaustive(self):
        rng = random.Random(401)
        exercised = 0
        for _ in range(30):
            pp = self._random_small_pprogram(rng, 2)
            grid_model = None
            for masses in grid_distributions(4, 20):
                ki = WorldDistribution(pp.base, dict(enumerate(masses)))
                if ki_satisfies(pp, ki):
                    grid_model = ki
                    break
            if grid_model is None:
                continue
            assert check_consistency(pp).verdict is Verdict.CONSISTENT
            exercised += 1
        assert exercised >= 10

    def test_three_atom_sampled(self):
        rng = random.Random(402)
        exercised = 0
        for _ in range(8):
            pp = self._random_small_pprogram(rng, 3)
            grid_model = None
            for _ in range(4000):
                cuts = sorted(rng.randint(0, 20) for _ in range(7))
                masses = [F(b - a, 20) for a, b in zip([0] + cuts, cuts + [20])]
                ki = WorldDistribution(pp.base, dict(enumerate(masses)))
                if ki_satisfies(pp, ki):
                    grid_model = ki
                    break
            if grid_model is None:
                continue
            assert check_consistency(pp).verdict is Verdict.CONSISTENT
            exercised += 1
        assert exercised >= 3


class TestAgainstBruteForce:
    """Differential check: the factored engine vs the explicit-world oracle."""

    def test_random_programs_agree(self):
        from oracles import BruteForce

        rng = random.Random(408)
        consistent_cases = 0
        for _ in range(40):
            base = small_base(rng.randint(2, 4))
            pp = rand_pprogram(rng, base, n_clauses=rng.randint(1, 3))
            target = single(base.atoms[0].predicate, base.atoms[0].time)
            oracle = BruteForce(pp, extra_formulas=[target])
            engine_verdict = check_consistency(pp).verdict
            assert (engine_verdict is Verdict.CONSISTENT) == oracle.consistent()
            if engine_verdict is not Verdict.CONSISTENT:
                continue
            consistent_cases += 1
            bounds = tighten(pp, [target]).intervals[0]
            lo, hi = oracle.tighten(target)
            assert abs(float(bounds.lo) - lo) <= 1e-6
            assert abs(float(bounds.hi) - hi) <= 1e-6
        assert consistent_cases >= 10


class TestQueryParts:
    """A query formula is answered per component it touches: its part there
    is its atoms in that component, and the parts' ranges fold by and_ig
    (AND) or or_ig (OR), since masses in different components couple freely.
    The world cap counts the program's base alone."""

    def test_formulas_over_components_match_brute_force(self):
        from oracles import BruteForce

        rng = random.Random(913)
        outside = [TAtom("z", (), 1), TAtom("w", (), 1)]
        programs = formulas_checked = over_old_cap = 0
        while programs < 40:
            base = small_base(rng.randint(3, 5))
            pp = rand_pprogram(rng, base, n_clauses=rng.randint(1, 3))
            components = _Engine(pp, SolveOptions()).components
            if len(components) < 2:
                continue
            formulas = []
            for _ in range(rng.randint(1, 3)):
                touched = rng.sample(components, min(len(components), rng.randint(2, 3)))
                extra = rng.sample(outside, rng.randint(0, 2))
                members = [base.atoms[rng.choice(c.atoms)] for c in touched] + extra
                conn = rng.choice([Connective.AND, Connective.OR])
                formulas.append(BasicFormula.of(conn, tuple(members)))
                # its components and outside atoms hold more atoms than the cap
                over_old_cap += sum(c.k for c in touched) + len(extra) > len(base)
            oracle = BruteForce(pp, extra_formulas=formulas)
            opts = SolveOptions(max_world_atoms=len(base))
            verdict = check_consistency(pp, opts).verdict
            assert (verdict is Verdict.CONSISTENT) == oracle.consistent()
            if verdict is not Verdict.CONSISTENT:
                continue
            programs += 1
            for f, iv in zip(formulas, tighten(pp, formulas, opts).intervals):
                lo, hi = oracle.tighten(f)
                assert abs(float(iv.lo) - lo) <= 1e-6, (f, iv, lo)
                assert abs(float(iv.hi) - hi) <= 1e-6, (f, iv, hi)
                formulas_checked += 1
        assert formulas_checked >= 60 and over_old_cap >= 15


class TestTighten:
    def test_p0_body_branch_infeasible(self):
        pp = load_unfolded("p0.tpl")
        res = tighten(pp, [single("b")])
        assert (res.intervals[0].lo, res.intervals[0].hi) == (F(2, 5), F(3, 5))

    def test_single_fact_returns_interval_verbatim(self):
        pp = load_unfolded("mx.tpl")
        res = tighten(pp, [single("a")])
        assert (res.intervals[0].lo, res.intervals[0].hi) == (F(1, 5), F(4, 5))

    def test_fact_atom_exact_for_random_programs(self):
        rng = random.Random(403)
        for _ in range(40):
            lo, hi = sorted([F(rng.randint(0, 20), 20), F(rng.randint(0, 20), 20)])
            atom = TAtom("a", (), 1)
            pp = PProgram(
                (PClause(atom, ProbInterval(lo, hi)),), HerbrandBase([atom])
            )
            res = tighten(pp, [single("a")])
            assert (res.intervals[0].lo, res.intervals[0].hi) == (lo, hi)

    def test_inconsistent_program_raises(self):
        pp = load_unfolded("p1.tpl")
        with pytest.raises(InconsistentProgram):
            tighten(pp, [single("a")])

    def test_monotone_under_added_clauses(self):
        rng = random.Random(404)
        trials = 0
        while trials < 30:
            base = small_base(3)
            pp = rand_pprogram(rng, base, n_clauses=2)
            extra = rand_pprogram(rng, base, n_clauses=1).clauses
            stronger = PProgram(pp.clauses + extra, base)
            target = single(base.atoms[0].predicate, base.atoms[0].time)
            try:
                wide = tighten(pp, [target])
                narrow = tighten(stronger, [target])
            except InconsistentProgram:
                continue
            assert wide.intervals[0].lo <= narrow.intervals[0].lo
            assert narrow.intervals[0].hi <= wide.intervals[0].hi
            trials += 1

    def test_unconstrained_atom_is_full_interval(self):
        pp = load_unfolded("p0.tpl")
        res = tighten(pp, [single("zz", 2)])
        assert (res.intervals[0].lo, res.intervals[0].hi) == (F(0), F(1))

    def test_tighten_stays_in_unit_interval(self):
        rng = random.Random(405)
        for _ in range(20):
            pp = rand_pprogram(rng, small_base(3), n_clauses=2)
            try:
                res = tighten(pp, [single("a")])
            except InconsistentProgram:
                continue
            assert 0 <= res.intervals[0].lo <= res.intervals[0].hi <= 1

    def test_every_point_in_one_walk(self):
        """Every instance of query formulas at once, as `?tighten f@*.` asks,
        gives each instance's interval alone and the brute-force oracle's."""
        from oracles import BruteForce

        rng = random.Random(409)
        answered = 0
        for _ in range(20):
            # Each clause unfolds once per point, so fewer clauses on 3 points.
            points = rng.randint(2, 3)
            cal = Calendar.from_range(1, points)
            preds = ["a", "b", "c"][: rng.randint(2, 3)]
            pp = unfold(rand_tp_program(rng, cal, n_clauses=4 - points, preds=preds))
            # A random formula, and one that joins two predicates' components.
            joining = BasicFormula.of(
                rng.choice([Connective.AND, Connective.OR]),
                tuple(TAtom(p, (), TVar("Y")) for p in rng.sample(preds, 2)),
            )
            instances = [
                substitute_time(f, t)
                for f in (rand_ground_formula(rng, preds), joining)
                for t in cal.points
            ]
            try:
                joint = tighten(pp, instances)
            except InconsistentProgram:
                continue
            if joint.branch_count > 200:  # the oracle's LPs would take seconds
                continue
            answered += 1
            oracle = BruteForce(pp, extra_formulas=instances)
            alone = [tighten(pp, [g]) for g in instances]
            assert joint.intervals == [res.intervals[0] for res in alone]
            assert {res.branch_count for res in alone} == {joint.branch_count}
            assert joint.boundary_sensitive == any(res.boundary_sensitive for res in alone)
            for g, iv in zip(instances, joint.intervals):
                lo, hi = oracle.tighten(g)
                assert abs(float(iv.lo) - lo) <= 1e-6 and abs(float(iv.hi) - hi) <= 1e-6
        assert answered >= 10

    def test_each_formula_capped_alone(self):
        """The cap counts the program's base alone, never the query atoms
        outside it, and the formulas leave the program's classes unsplit:
        a@1 and a@2 share a component, and each instance adds one atom of
        its own."""
        a1, a2, z1, z2 = (TAtom(p, (), t) for p, t in (("a", 1), ("a", 2), ("z", 1), ("z", 2)))
        joined = BasicFormula.of(Connective.AND, (a1, a2))
        pp = PProgram(
            (
                PClause(a1, ProbInterval(F(1, 2), F(7, 10)), ((joined, ProbInterval(F(1, 10), 1)),)),
                PClause(a2, ProbInterval(F(1, 5), F(2, 5))),
            ),
            HerbrandBase([a1, a2]),
        )
        opts = SolveOptions(max_world_atoms=3)
        instances = [BasicFormula.of(Connective.AND, pair) for pair in ((a1, z1), (a2, z2))]
        joint = tighten(pp, instances, opts)
        assert joint.intervals == [tighten(pp, [g], opts).intervals[0] for g in instances]
        assert joint.intervals[1] == ProbInterval(0, F(2, 5))
        engine = _Engine(pp, opts, instances)
        assert engine.components[0].classes == _Engine(pp, opts).components[0].classes
        # over the cap with its two atoms outside the base: or_ig of a@1's
        # range and two [0, 1]
        wide = tighten(pp, [BasicFormula.of(Connective.OR, (a1, z1, z2))], opts)
        least = tighten(pp, [BasicFormula.single(a1)], opts).intervals[0].lo
        assert wide.intervals == [ProbInterval(least, 1)]

    def test_no_formula(self):
        res = tighten(load_unfolded("p0.tpl"), [])
        assert res.intervals == [] and res.branch_count == 1


class TestEntails:
    def _shipping(self):
        p = load_program("shipping.tpl")
        return p, unfold(ground_program(p, GroundingMode.RELEVANT))

    def test_exact_interval_entailed(self):
        p, pp = self._shipping()
        q = parse_query("?entail arrived(letter,paris)@Y : <Y=3, [0.3], [0.4]>.").query
        res = entails(pp, q, p.calendar)
        assert res.entailed and not res.vacuous
        assert len(res.per_time) == 1
        assert (res.per_time[0].bounds.lo, res.per_time[0].bounds.hi) == (F(3, 10), F(2, 5))

    def test_tighter_target_not_entailed(self):
        p, pp = self._shipping()
        q = parse_query("?entail arrived(letter,paris)@Y : <Y=3, [0.35], [0.4]>.").query
        assert not entails(pp, q, p.calendar).entailed

    def test_empty_solution_set_vacuous(self):
        p = load_program("p0.tpl")
        pp = load_unfolded("p0.tpl")
        q = parse_query("?entail a@Y : <Y>9, uniform, uniform>.").query
        res = entails(pp, q, p.calendar)
        assert res.entailed and res.vacuous

    def test_inconsistent_program_raises_even_for_vacuous(self):
        p = load_program("p1.tpl")
        pp = load_unfolded("p1.tpl")
        q = parse_query("?entail a@Y : <Y>9, uniform, uniform>.").query
        with pytest.raises(InconsistentProgram):
            entails(pp, q, p.calendar)

    def test_weight_list_of_the_wrong_length(self, fixtures, tmp_path, capsys):
        """A library caller gets the error the command line reports, not a
        bare ValueError from the weight list's length."""
        text = "?entail a@Y and b@Y : <Y:1~2, [0.9], [1.0]>."
        q = parse_query(text).query
        with pytest.raises(InvalidAnnotation) as caught:
            entails(load_unfolded("p0.tpl"), q, Calendar.from_range(1, 2))
        assert caught.value.exit_code == 2
        kinds = [d.kind for d in caught.value.diagnostics]
        assert kinds == [DiagnosticKind.LENGTH_MISMATCH] * 2
        query = tmp_path / "q.tpq"
        query.write_text(text)
        assert run(["entail", str(fixtures / "p0.tpl"), str(query)]).exit_code == 2
        assert capsys.readouterr().err.splitlines()[0] == str(caught.value)

    def test_antitone_in_program_strength(self):
        p = load_program("p0.tpl")
        pp = load_unfolded("p0.tpl")
        stronger_text = (
            "calendar 1..2.\n"
            "a@Y : <Y=1, [0.5], [0.7]>.\n"
            "b@Y : <Y=1, [0.4], [0.6]> :- a@Y1 : <Y1=1, [0.5], [0.7]>.\n"
            "b@Y : <Y=1, [0.45], [0.8]>.\n"
        )
        sp = parse_program(stronger_text).program
        spp = unfold(sp)
        queries = [
            "?entail b@Y : <Y=1, [0.4], [0.6]>.",
            "?entail a@Y : <Y=1, [0.5], [0.7]>.",
            "?entail a@Y and b@Y : <Y=1, [0], [0.7]>.",
        ]
        for text in queries:
            q = parse_query(text).query
            if entails(pp, q, p.calendar).entailed:
                assert entails(spp, q, sp.calendar).entailed


class TestSettledFold:
    """A fold whose every bound is [0, 1] stops deciding leaves and only
    counts them, and the epsilon/2 probe stops at the first leaf that moves a
    bound: intervals, branch_count, boundary_sensitive and per-time verdicts
    are those of the whole folds in tests/oracles.py."""

    OPTS = SolveOptions()

    def assert_tighten_matches(self, pp, formulas):
        expected = reference_tighten(pp, formulas, self.OPTS)
        if expected is None:
            with pytest.raises(InconsistentProgram):
                tighten(pp, formulas, self.OPTS)
            return None
        res = tighten(pp, formulas, self.OPTS)
        assert (res.intervals, res.branch_count, res.boundary_sensitive) == expected
        return res

    def assert_entails_matches(self, pp, query, cal):
        per_time, count = reference_entails(pp, query, cal, self.OPTS)
        res = entails(pp, query, cal, self.OPTS)
        assert [(v.time, v.bounds, v.target, v.holds) for v in res.per_time] == per_time
        assert res.entailed == all(holds for *_, holds in per_time)
        assert res.branch_count == count
        return res.entailed

    def test_random_programs(self):
        rng = random.Random(920)
        answered = []
        for i in range(200):
            if i % 2:
                base = small_base(rng.randint(2, 6))
                pp = rand_pprogram(
                    rng, base, n_clauses=rng.randint(1, 5), formula_sizes=(1, 1, 2, 3)
                )
            else:
                pp = facts_last_pprogram(rng, rng.randint(1, 4))
            formulas = [
                BasicFormula.of(
                    rng.choice([Connective.AND, Connective.OR]),
                    rng.sample(pp.base.atoms, rng.randint(1, min(3, len(pp.base)))),
                )
                for _ in range(rng.randint(1, 3))
            ]
            res = self.assert_tighten_matches(pp, formulas)
            if res is not None:
                answered.append(res)
        settled = [
            r for r in answered
            if r.branch_count > 1 and all(iv == ProbInterval(0, 1) for iv in r.intervals)
        ]
        assert len(answered) >= 180 and len(settled) >= 20
        assert sum(r.boundary_sensitive for r in answered) >= 2

    def test_recipe_b(self):
        """Every head atom of the seeded programs at once, and entailment of
        each program's first head formula against its own tightened
        intervals (entailed) and against them narrowed at one point (not)."""
        sensitive = entailed = refuted = 0
        for seed in range(400, 431):
            if seed in (402, 409, 414, 421, 428):  # each takes over 0.3 s
                continue
            pp, cal = recipe_b(seed)
            heads = head_formulas(pp)
            res = self.assert_tighten_matches(pp, heads)
            if res is None:
                continue
            sensitive += res.boundary_sensitive
            formula = BasicFormula.single(TAtom(heads[0].atoms[0].predicate, (), TVar("Y")))
            bounds = tighten(pp, [substitute_time(formula, t) for t in cal.points]).intervals
            window = list(zip(cal.points, bounds))
            query = Query(QueryKind.ENTAIL, formula, TPAnnotation.of_instant(window))
            entailed += self.assert_entails_matches(pp, query, cal)
            t, iv = next((t, iv) for t, iv in window if iv.lo < iv.hi)
            window[t - 1] = (t, ProbInterval(iv.lo, (iv.lo + iv.hi) / 2))
            query = Query(QueryKind.ENTAIL, formula, TPAnnotation.of_instant(window))
            refuted += not self.assert_entails_matches(pp, query, cal)
        assert sensitive >= 2 and entailed == refuted >= 20

    def test_boundary_sensitive_cli(self, tmp_path):
        """q@1 above one half voids the rule's head [0.5], which the fact
        holds at 0.2: q@1 is at most 1/2 - epsilon, and halving epsilon
        moves that bound."""
        program = tmp_path / "b.tpl"
        program.write_text(
            "calendar 1..1.\n"
            "p@Y : <Y=1, [0.2], [0.2]>.\n"
            "p@Y : <Y=1, [0.5], [0.5]> :- q@Y1 : <Y1=1, [0.5], [1]>.\n"
        )
        query = tmp_path / "b.tpq"
        query.write_text("?tighten q@1.\n")
        res = run(["tighten", str(program), str(query), "--json"])
        payload = json.loads(res.payload)
        assert res.exit_code == 0
        assert payload["intervals"] == {"q@1": ["0/1", "499999/1000000"]}
        assert payload["boundary_sensitive"] is True and payload["branch_count"] == 1


class TestMaxEnt:
    def test_wide_fact_maximum_at_half(self):
        pp = load_unfolded("mx.tpl")
        res = max_entropy_model(pp)
        pr = atom_mass(res.distribution, TAtom("a", (), 1))
        assert abs(float(pr) - 0.5) < 1e-4
        assert abs(res.entropy - math.log(2)) < 1e-4
        assert ki_satisfies(pp, res.distribution)

    def test_point_fact_forced(self):
        text = "calendar 1..1. a@Y : <Y=1, [0.9], [0.9]>.\n"
        pp = unfold(parse_program(text).program)
        res = max_entropy_model(pp)
        pr = atom_mass(res.distribution, TAtom("a", (), 1))
        assert pr == F(9, 10)
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert abs(res.entropy - expected) < 1e-9

    def test_empty_program_over_one_atom_is_uniform(self):
        base = HerbrandBase([TAtom("a", (), 1)])
        pp = PProgram((), base)
        res = max_entropy_model(pp)
        assert res.distribution.mass(0) == F(1, 2)
        assert res.distribution.mass(1) == F(1, 2)
        assert abs(res.entropy - math.log(2)) < 1e-12

    def test_dominates_rejection_samples(self):
        pp = load_unfolded("mx.tpl")
        res = max_entropy_model(pp)
        rng = random.Random(406)
        accepted = 0
        while accepted < 100:
            p = F(rng.randint(0, 2**12), 2**12)
            ki = WorldDistribution(pp.base, {0: 1 - p, 1: p})
            if not ki_satisfies(pp, ki):
                continue
            accepted += 1
            h = 0.0
            for _, mass in ki.items():
                h -= float(mass) * math.log(float(mass))
            assert res.entropy + 1e-9 >= h

    def test_inconsistent_raises(self):
        pp = load_unfolded("p1.tpl")
        with pytest.raises(InconsistentProgram):
            max_entropy_model(pp)

    def test_iteration_cap_raises(self, monkeypatch):
        pp = load_unfolded("mx.tpl")
        monkeypatch.setattr(tplp.psat, "MAXENT_MAX_SWEEPS", 0)
        with pytest.raises(NonConvergence, match="0-sweep cap"):
            max_entropy_model(pp)

    def test_entropy_pushes_to_nearest_boundary(self):
        # binary entropy is increasing below one half, so [0, 0.2] lands at 0.2
        text = "calendar 1..1.\na@Y : <Y=1, [0], [0.2]>.\n"
        pp = unfold(parse_program(text).program)
        res = max_entropy_model(pp)
        pr = atom_mass(res.distribution, TAtom("a", (), 1))
        assert abs(float(pr) - 0.2) < 1e-6


LIMITS = [1, 7, 10**9, 10**12]


class TestLimitDenominator:
    """The ascent's integer rounding equals Fraction.limit_denominator."""

    @pytest.mark.parametrize("limit", LIMITS)
    @pytest.mark.parametrize(
        "x",
        [0.5, 2.5, 1.5, -0.5, -2.5, 0.0, -0.0, 3.0, -7.0, 2.0**60, 0.1, -0.3, 1 / 3,
         math.pi, -math.e, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-12, 1 - 2**-53],
    )
    def test_listed_values(self, x, limit):
        got = _limit_denominator(x, limit)
        assert type(got) is F and got == F(x).limit_denominator(limit)

    def test_ties_go_to_the_convergent(self):
        assert _limit_denominator(0.5, 1) == 0 and _limit_denominator(2.5, 1) == 2

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(LIMITS))
    def test_any_float(self, x, limit):
        assert _limit_denominator(x, limit) == F(x).limit_denominator(limit)


class TestWitnessAssembly:
    """couple and spread_product, which sum integer numerators over one
    denominator, build the distributions of the Fraction reference: the same
    worlds with the same exact masses.  Class masses come from each leaf's
    vertex (zero-mass classes included) or from the entropy ascent."""

    def assert_reference_assembly(self, pp, ascent=False):
        engine = _Engine(pp, SolveOptions())
        for keys in _Walk(engine, SolveOptions().epsilon):
            assert engine.couple(keys) == reference_couple(engine, keys)
            qs = {}
            for comp in engine.components:
                key = keys.get(comp.cid, ())
                if ascent:
                    qs[comp.cid] = engine.maxent_component(comp.cid, key)[0]
                elif key:
                    qs[comp.cid] = engine._solved(comp, key).x
                else:
                    qs[comp.cid] = [F(size, comp.space) for _, size, _ in comp.classes]
            assert engine.spread_product(qs) == reference_spread_product(engine, qs)

    def test_random_programs(self):
        rng = random.Random(409)
        for _ in range(120):
            base = small_base(rng.randint(2, 5))
            self.assert_reference_assembly(rand_pprogram(rng, base, n_clauses=rng.randint(1, 5)))

    def test_facts_after_conflicting_rules(self):
        rng = random.Random(410)
        for _ in range(40):
            self.assert_reference_assembly(facts_last_pprogram(rng, rng.randint(2, 5)))

    def test_multicolumn_programs(self):
        files = json.loads((GOLDEN / "multicolumn.json").read_text())["files"]
        sizes = set()
        for name, text in sorted(files.items()):
            if name.endswith(".tpl"):
                pp = unfold(ground_program(parse_program(text).program, GroundingMode.FULL))
                self.assert_reference_assembly(pp)
                self.assert_reference_assembly(pp, ascent=True)
                sizes.update(size for c in _Engine(pp, SolveOptions()).components
                             for _, size, _ in c.classes)
        assert max(sizes) > 1  # some class spreads its mass over several worlds

    def test_shipping(self):
        pp = load_unfolded("shipping.tpl")
        self.assert_reference_assembly(pp)
        self.assert_reference_assembly(pp, ascent=True)

    def test_components_in_one_state_share_an_ascent(self, monkeypatch):
        # shipping's 15 one-atom components are in 9 states; an ascent per
        # component gives the same model
        pp = load_unfolded("shipping.tpl")
        engine = _Engine(pp, SolveOptions())
        keys = next(iter(_Walk(engine, SolveOptions().epsilon)))
        for comp in engine.components:
            engine.maxent_component(comp.cid, keys.get(comp.cid, ()))
        assert (len(engine.components), len(engine._maxent_cache)) == (15, 9)
        shared = max_entropy_model(pp)
        ascent = _Engine.maxent_component

        def alone(engine, cid, key):
            engine._maxent_cache.clear()
            return ascent(engine, cid, key)

        monkeypatch.setattr(_Engine, "maxent_component", alone)
        fresh = max_entropy_model(pp)
        assert fresh.distribution == shared.distribution
        assert (fresh.entropy, fresh.branch_count) == (shared.entropy, shared.branch_count)


class TestCoupleFromBoxes:
    """couple reads a one-atom component's vertex straight off its box, as
    an integer over the engine's denominator, and folds the atoms of all
    components that flip at one point; only multi-atom vertices go through
    the lcm.  It builds the coupling of reference_couple, on Fractions from
    the reference simplex, and that is an exact model."""

    @staticmethod
    def with_singles(pp: PProgram, rng: random.Random) -> PProgram:
        """pp and one-atom components beside it: masses 0 and 1, boxes open
        at either end, three on one point, one never narrowed, and a rule
        whose leaves give s2 different boxes."""
        lo, hi = sorted(rng.sample(range(1, 20), 2))
        a, b = sorted(rng.sample(range(1, 20), 2))
        s = [TAtom(f"s{i}", (), 1) for i in range(8)]

        def iv(x, y):
            return ProbInterval(F(x, 20), F(y, 20))

        singles = (
            PClause(s[0], iv(0, 0), ()),
            PClause(s[1], iv(20, 20), ()),
            PClause(s[2], iv(0, hi), ()),
            PClause(s[3], iv(lo, 20), ()),
            PClause(s[4], iv(lo, hi), ()),
            PClause(s[5], iv(lo, hi), ()),
            PClause(s[6], iv(0, 20), ()),
            PClause(s[7], iv(20, 20), ((BasicFormula.single(s[2]), iv(a, b)),)),
        )
        return PProgram(pp.clauses + singles, HerbrandBase([*pp.base, *s]))

    def programs(self):
        for seed in range(930, 945):
            rng = random.Random(seed)
            yield self.with_singles(dense_program(rng), rng)
        # Seeds whose multi-atom vertices have denominators of 3,000,000,
        # beyond the engine's 2,000,000 (about 1 in 1,000 such programs).
        for seed in (931, 2062):
            rng = random.Random(seed)
            base = small_base(rng.randint(3, 6))
            pp = rand_pprogram(rng, base, n_clauses=rng.randint(3, 6), formula_sizes=(1, 2, 2, 3))
            yield self.with_singles(pp, rng)

    def test_mixed_components(self):
        eps = SolveOptions().epsilon
        leaves = scaled = 0  # scaled: leaves whose vertices need more than the engine's grid
        points = set()  # per one-atom vertex: "0", "1" or "inside"
        for pp in self.programs():
            engine = _Engine(pp, SolveOptions())
            assert any(c.k > 1 for c in engine.components)
            for keys in itertools.islice(_Walk(engine, eps), 70):
                coupled = engine.couple(keys)
                assert coupled == reference_couple(engine, keys)
                assert ki_satisfies(pp, coupled)
                leaves += 1
                denominators = []
                for cid, key in keys.items():
                    comp = engine.components[cid]
                    if comp.box_decided:
                        ((_, lo, hi),) = key
                        p = lo or hi
                        points.add("0" if p == 0 else "1" if p == engine.denominator else "inside")
                    else:
                        denominators += [v.denominator for v in engine._solved(comp, key).x]
                scaled += engine.denominator % math.lcm(*denominators) != 0
        assert points == {"0", "1", "inside"}
        assert leaves >= 300 and scaled >= 4, (leaves, scaled)


class TestSolveOptions:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            SolveOptions(epsilon=0)

    def test_cap_positive(self):
        with pytest.raises(ValueError):
            SolveOptions(max_world_atoms=0)

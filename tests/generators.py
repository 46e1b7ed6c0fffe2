"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from tplp.grounder import HerbrandBase, PClause, PProgram, unfold
from tplp.intervals import ProbInterval
from tplp.model import (
    BasicFormula,
    CAtom,
    Calendar,
    CAnd,
    Cmp,
    CNot,
    Connective,
    COr,
    ObjVar,
    PTProgram,
    TAtom,
    TConst,
    TimeRange,
    TPAnnotation,
    TPClause,
    TVar,
    WeightFunction,
    solve_constraint,
)
from tplp.worlds import World, WorldDistribution

_OPS = ["<=", "<", "=", "!=", ">", ">="]
_PREDS = ["a", "b", "c", "d", "e"]


def rand_fraction(rng: random.Random, denominator: int = 20) -> Fraction:
    return Fraction(rng.randint(0, denominator), denominator)


def rand_interval(rng: random.Random) -> ProbInterval:
    lo, hi = sorted([rng.randint(0, 20), rng.randint(0, 20)])
    return ProbInterval(Fraction(lo, 20), Fraction(hi, 20))


def rand_constraint(rng: random.Random, depth: int, var: str = "Y"):
    y = TVar(var)
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.3:
            lo = rng.randint(-2, 10)
            return TimeRange(y, TConst(lo), TConst(lo + rng.randint(0, 6)))
        return Cmp(y, rng.choice(_OPS), TConst(rng.randint(-2, 12)))
    pick = rng.random()
    if pick < 0.4:
        return CAnd(rand_constraint(rng, depth - 1, var), rand_constraint(rng, depth - 1, var))
    if pick < 0.8:
        return COr(rand_constraint(rng, depth - 1, var), rand_constraint(rng, depth - 1, var))
    return CNot(rand_constraint(rng, depth - 1, var))


def rand_weight_lists(rng: random.Random, size: int) -> tuple[WeightFunction, WeightFunction]:
    """Lower/upper weight functions that validate for a solution set of `size`."""
    if size == 1 and rng.random() < 0.3:
        return WeightFunction.sharp(), WeightFunction.sharp()
    if rng.random() < 0.15:
        lower = WeightFunction.uniform()
        upper_vals = [max(Fraction(1, size), rand_fraction(rng)) for _ in range(size)]
        return lower, WeightFunction.list_of(upper_vals)
    lowers, uppers = [], []
    for _ in range(size):
        lo = rand_fraction(rng)
        hi = lo + Fraction(rng.randint(0, 20), 20)
        lowers.append(lo)
        uppers.append(min(hi, Fraction(1)))
    return WeightFunction.list_of(lowers), WeightFunction.list_of(uppers)


def rand_annotation(rng: random.Random, cal: Calendar, var: str = "Y") -> TPAnnotation:
    """A validating annotation whose constraint has a non-empty solution set."""
    for _ in range(100):
        constraint = rand_constraint(rng, rng.randint(0, 2), var)
        sol = solve_constraint(constraint, cal)
        if sol:
            lower, upper = rand_weight_lists(rng, len(sol))
            return TPAnnotation(constraint, lower, upper)
    point = rng.choice(cal.points)
    return TPAnnotation(
        Cmp(TVar(var), "=", TConst(point)), WeightFunction.sharp(), WeightFunction.sharp()
    )


def rand_ground_formula(rng: random.Random, preds: list[str], var: str = "Y") -> BasicFormula:
    count = rng.choice([1, 1, 1, 2, 3])
    atoms = tuple(TAtom(rng.choice(preds), (), TVar(var)) for _ in range(count))
    conn = Connective.AND if rng.random() < 0.5 else Connective.OR
    return BasicFormula.of(conn, atoms)


def rand_tp_program(
    rng: random.Random,
    cal: Calendar,
    n_clauses: int = 3,
    preds: list[str] | None = None,
) -> PTProgram:
    """Object-ground clause program with normal constraints (0-ary predicates)."""
    preds = preds or _PREDS[: rng.randint(2, 4)]
    clauses = []
    for _ in range(n_clauses):
        head = TAtom(rng.choice(preds), (), TVar("Y"))
        head_annot = rand_annotation(rng, cal, "Y")
        body = []
        for k in range(rng.choice([0, 0, 1, 1, 2])):
            var = f"Y{k + 1}"
            body.append((rand_ground_formula(rng, preds, var), rand_annotation(rng, cal, var)))
        clauses.append(TPClause(head, head_annot, tuple(body)))
    return PTProgram(cal, tuple(clauses))


def recipe_a_program(seed: int) -> PTProgram:
    """ROADMAP's recipe A at seed, before unfolding: 3 to 5 clauses over a, b,
    c on the calendar 1..3."""
    rng = random.Random(seed)
    cal = Calendar.from_range(1, 3)
    return rand_tp_program(rng, cal, n_clauses=rng.randint(3, 5), preds=["a", "b", "c"])


def recipe_a(seed: int) -> tuple[PProgram, Calendar]:
    """ROADMAP's recipe A at seed, unfolded, and its calendar."""
    p = recipe_a_program(seed)
    return unfold(p), p.calendar


def recipe_b_program(seed: int) -> PTProgram:
    """ROADMAP's recipe B at seed, before unfolding: 1 to 3 clauses over two
    or three of a, b, c on the calendar 1..2 or 1..3."""
    rng = random.Random(seed)
    cal = Calendar.from_range(1, rng.randint(2, 3))
    preds = ["a", "b", "c"][: rng.randint(2, 3)]
    return rand_tp_program(rng, cal, n_clauses=rng.randint(1, 3), preds=preds)


def recipe_b(seed: int) -> tuple[PProgram, Calendar]:
    """ROADMAP's recipe B at seed, unfolded, and its calendar."""
    p = recipe_b_program(seed)
    return unfold(p), p.calendar


def head_formulas(pp: PProgram) -> list[BasicFormula]:
    """The recipes' tighten query: every head atom of pp once, in clause order."""
    return [BasicFormula.single(h) for h in dict.fromkeys(c.head for c in pp.clauses)]


def rand_pclause(
    rng: random.Random, atoms: list[TAtom], formula_sizes: tuple[int, ...] = (1, 1, 2)
) -> PClause:
    head = rng.choice(atoms)
    head_iv = rand_interval(rng)
    body = []
    for _ in range(rng.choice([0, 0, 1, 2])):
        count = rng.choice(formula_sizes)
        members = tuple(rng.choice(atoms) for _ in range(count))
        conn = Connective.AND if rng.random() < 0.5 else Connective.OR
        body.append((BasicFormula.of(conn, members), rand_interval(rng)))
    return PClause(head, head_iv, tuple(body))


def rand_pprogram(
    rng: random.Random,
    base: HerbrandBase,
    n_clauses: int = 3,
    formula_sizes: tuple[int, ...] = (1, 1, 2),
) -> PProgram:
    """Random clauses over base; each body formula draws its atom count from
    formula_sizes, so (1,) leaves every component with one atom."""
    atoms = list(base.atoms)
    clauses = tuple(rand_pclause(rng, atoms, formula_sizes) for _ in range(n_clauses))
    return PProgram(clauses, base)


def facts_last_pprogram(rng: random.Random, n_rules: int) -> PProgram:
    """n_rules rules, each on its own body atom, then one fact per body atom,
    the order shipping.tpl unfolds in.  Most facts pin their atom inside the
    rule's body interval, so both of that conjunct's violations conflict with
    a clause the walk reaches only after every rule."""
    base = small_base(2 * n_rules)
    body_atoms, head_atoms = base.atoms[:n_rules], base.atoms[n_rules:]
    rules, facts = [], []
    for atom, head in zip(body_atoms, head_atoms):
        iv = rand_interval(rng)
        body = [(BasicFormula.single(atom), iv)]
        if rng.random() < 0.3:
            conn = Connective.AND if rng.random() < 0.5 else Connective.OR
            other = BasicFormula.of(conn, (atom, rng.choice(body_atoms)))
            body.append((other, rand_interval(rng)))
        rules.append(PClause(head, rand_interval(rng), tuple(body)))
        if rng.random() < 0.8:
            value = iv.lo + (iv.hi - iv.lo) * Fraction(rng.randint(0, 4), 4)
            facts.append(PClause(atom, ProbInterval.point(value), ()))
        else:
            facts.append(PClause(atom, rand_interval(rng), ()))
    return PProgram(tuple(rules + facts), base)


def small_base(n_atoms: int, cal: Calendar | None = None) -> HerbrandBase:
    cal = cal or Calendar.from_range(1, max(1, (n_atoms + len(_PREDS) - 1) // len(_PREDS)))
    atoms = []
    for i in range(n_atoms):
        atoms.append(TAtom(_PREDS[i % len(_PREDS)], (), cal.points[i // len(_PREDS)]))
    return HerbrandBase(atoms)


def rand_distribution(
    rng: random.Random, base: HerbrandBase, support: int | None = None
) -> WorldDistribution:
    """Exact random distribution with the given sparse support size."""
    n_worlds = 1 << len(base)
    support = support or rng.randint(1, min(6, n_worlds))
    masks = rng.sample(range(n_worlds), min(support, n_worlds))
    weights = [rng.randint(1, 50) for _ in masks]
    total = sum(weights)
    return WorldDistribution(base, {m: Fraction(w, total) for m, w in zip(masks, weights)})


def rand_world(rng: random.Random, base: HerbrandBase) -> World:
    return World(rng.randrange(1 << len(base)), base)


def rand_thread(rng: random.Random, catoms: list[CAtom], cal: Calendar):
    from tplp.compression import Thread

    return Thread.from_mapping(
        {ca: frozenset(t for t in cal.points if rng.random() < 0.5) for ca in catoms}
    )


def rand_program_ast(rng: random.Random) -> PTProgram:
    """Random parseable program with object variables and constants, for the
    parser round-trip property."""
    first = rng.randint(0, 3)
    cal = Calendar.from_range(first, first + rng.randint(0, 7))
    constants = ["k1", "k2", "rome"][: rng.randint(1, 3)]
    obj_vars = ["X", "Zz", "Item"]
    arities = {p: rng.randint(0, 2) for p in _PREDS}

    def rand_atom(var: str) -> TAtom:
        pred = rng.choice(_PREDS)
        args = tuple(
            ObjVar(rng.choice(obj_vars)) if rng.random() < 0.4 else rng.choice(constants)
            for _ in range(arities[pred])
        )
        time = TVar(var) if rng.random() < 0.8 else rng.choice(cal.points)
        return TAtom(pred, args, time)

    clauses = []
    for _ in range(rng.randint(0, 4)):
        head = rand_atom("Y")
        head_annot = rand_annotation(rng, cal, "Y")
        body = []
        for k in range(rng.choice([0, 0, 1, 2])):
            var = f"Y{k + 1}"
            count = rng.choice([1, 1, 2])
            atoms = tuple(rand_atom(var) for _ in range(count))
            conn = Connective.AND if rng.random() < 0.5 else Connective.OR
            body.append((BasicFormula.of(conn, atoms), rand_annotation(rng, cal, var)))
        clauses.append(TPClause(head, head_annot, tuple(body)))
    return PTProgram(cal, tuple(clauses), frozenset(constants[:1]))


def unfolded(p: PTProgram) -> PProgram:
    from tplp.grounder import unfold

    return unfold(p)

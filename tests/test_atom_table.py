"""The atom table from grounding to answer, checked against the definitions.

unfold interns each ground atom once and hands its program the sorted table
as the base; the engine names atoms by their indices in it, read in one pass
(HerbrandBase.indices).  Each check here recomputes the same facts the slow
way: the base from scratch (herbrand_base, which sorts by key()), every index
by index_of, the components by a fresh union-find over sets.  CI runs this
file under two fixed PYTHONHASHSEED values, so no order may come from
hashing.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import FIXTURE_PROGRAMS, load_program
from generators import rand_tp_program, recipe_a_program, recipe_b_program
from tplp.errors import InconsistentProgram
from tplp.grounder import (
    GroundingMode,
    PProgram,
    ground_program,
    ground_temporal_variables,
    herbrand_base,
    unfold,
)
from tplp.intervals import ProbInterval
from tplp.model import BasicFormula, Calendar, Connective, TAtom
from tplp.psat import SolveOptions, _Engine, tighten

OPTS = SolveOptions(max_world_atoms=10_000)
MODES = list(GroundingMode)


def recipe_programs():
    yield from (("recipe_a", s, recipe_a_program(s)) for s in range(1000, 1030))
    yield from (("recipe_b", s, recipe_b_program(s)) for s in range(400, 430))
    for seed in range(30):
        rng = random.Random(seed)
        cal = Calendar.from_range(1, rng.randint(1, 3))
        yield "rand_tp_program", seed, rand_tp_program(rng, cal, n_clauses=rng.randint(1, 4))


RECIPES = list(recipe_programs())


def clause_atoms(pp: PProgram):
    for cl in pp.clauses:
        yield cl.head
        for f, _ in cl.body:
            yield from f.atoms


def components_by_sets(pp: PProgram) -> list[frozenset[int]]:
    """The atom sets that the program's formulas of several atoms link, each
    other atom alone."""
    index_of = pp.base.index_of
    blocks = [{i} for i in range(len(pp.base))]
    owner = list(range(len(pp.base)))
    for cl in pp.clauses:
        for f, _ in cl.body:
            idxs = {index_of(a) for a in f.atoms}
            merged = set().union(*(blocks[owner[i]] for i in idxs))
            for i in merged:
                owner[i] = min(merged)
            blocks[min(merged)] = merged
    return sorted((frozenset(blocks[b]) for b in set(owner)), key=min)


def check_table(pp: PProgram):
    base = pp.base
    assert base is not None
    # the base unfold built equals the one rebuilt from the clauses, in key() order
    assert base == herbrand_base(pp.clauses)
    assert list(base.atoms) == sorted(base.atoms, key=lambda a: a.key())
    # one object per distinct atom: every clause atom is the base's own
    atoms = base.atoms
    assert all(a is atoms[base.index_of(a)] for a in clause_atoms(pp))
    assert len({id(a) for a in clause_atoms(pp)}) == len(base)

    engine = _Engine(pp, OPTS)
    formulas = engine._formula_atoms
    for cl, (head_fid, head_iv, body) in zip(pp.clauses, engine.clauses):
        assert formulas[head_fid] == (Connective.SINGLE, frozenset({base.index_of(cl.head)}))
        assert head_iv is cl.head_iv
        for (f, iv), (fid, engine_iv) in zip(cl.body, body):
            assert formulas[fid][1] == frozenset(base.index_of(a) for a in f.atoms)
            assert engine_iv is iv
    # the components keep their meaning: the linked atom sets, each formula in its own
    want = components_by_sets(pp)
    assert sorted((frozenset(c.atoms) for c in engine.components), key=min) == want
    for comp in engine.components:
        assert list(comp.atoms) == sorted(comp.atoms)
        assert comp.k == len(comp.atoms)
        assert comp.box_decided == (comp.k == 1 and len(comp.classes) == 2)
    for fid, (_, idxs) in enumerate(formulas):
        assert idxs <= set(engine.components[engine._fid_comp[fid]].atoms)
        if len(idxs) == 1 and engine.components[engine._fid_comp[fid]].k == 1:
            assert engine._coeffs[fid] == (1, 0)
    return engine


def outside_atom(pp: PProgram) -> TAtom:
    """An atom the program lacks that sorts between its a and b atoms."""
    return TAtom("ab", (), pp.clauses[0].head.time)


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
@pytest.mark.parametrize("name", FIXTURE_PROGRAMS)
def test_fixture_tables(name, mode):
    program = load_program(name)
    pp = unfold(ground_program(program, mode))
    check_table(pp)
    has_vars = any(cl.object_vars for cl in program.clauses)
    bare = unfold(ground_temporal_variables(program))
    assert (bare.base is None) == has_vars
    if not has_vars:
        assert bare.base == pp.base


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_generated_tables(mode):
    for _, _, program in RECIPES:
        pp = unfold(ground_program(program, mode))
        check_table(pp)
        assert unfold(ground_temporal_variables(program)).base == pp.base


# Tightening walks every leaf, which takes seconds on some of the larger
# draws; the programs of at most this many unfolded clauses (47 of the 90)
# take a fraction of a second together.
MAX_TIGHTEN_CLAUSES = 6


def test_query_atom_outside_the_base():
    """A query atom the program lacks takes the next index; the program's
    indices, its formulas and every tightened interval stay the same."""
    checked = 0
    for family, seed, program in RECIPES:
        pp = unfold(program)
        if not 0 < len(pp.clauses) <= MAX_TIGHTEN_CLAUSES:
            continue
        heads = [BasicFormula.single(h) for h in dict.fromkeys(c.head for c in pp.clauses)]
        z = outside_atom(pp)
        extra = [BasicFormula.single(z), BasicFormula.of(Connective.OR, (heads[0].atoms[0], z))]
        bare = _Engine(pp, OPTS)
        plain = _Engine(pp, OPTS, heads)
        wider = _Engine(pp, OPTS, heads + extra)
        n = len(pp.base)
        assert wider.base.atoms[:n] == pp.base.atoms
        assert wider.base.index_of(z) == n and len(wider.base) == n + 1
        assert all(wider.base.index_of(a) == pp.base.index_of(a) for a in pp.base)
        n_program = len(bare._formula_atoms)
        assert wider._formula_atoms[:n_program] == bare._formula_atoms
        assert wider.clauses == plain.clauses
        assert [c.atoms for c in wider.components[:-1]] == [c.atoms for c in plain.components]
        assert wider.components[-1].atoms == (n,)
        try:
            want = tighten(pp, heads, OPTS).intervals
        except InconsistentProgram:  # an inconsistent draw: refused alike with the atom
            with pytest.raises(InconsistentProgram):
                tighten(pp, heads + extra, OPTS)
            continue
        got = tighten(pp, heads + extra, OPTS).intervals
        assert got[: len(heads)] == want, (family, seed)
        assert got[len(heads)] == ProbInterval(F(0), F(1))
        checked += 1
    assert checked >= 40

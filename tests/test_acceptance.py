"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go;
tolerances and trial counts are pinned here, not configurable.
"""

import math
import random
import time
from fractions import Fraction as F

from conftest import load_program, load_unfolded
from generators import rand_distribution, rand_thread, rand_tp_program
from oracles import BruteForce
from tplp.compression import (
    EvolutionProfile,
    VerificationMode,
    build_evolution_program,
    compress,
    compress_distribution,
    flatten,
    full_time_base,
    thread_prob,
    verify_evolution,
)
from tplp.grounder import HerbrandBase, ground_temporal_variables, unfold
from tplp.intervals import ProbInterval, is_consistent, join_k, leq_k, meet_k
from tplp.model import BasicFormula, CAtom, Calendar, ObjVar, TAtom
from tplp.parser import parse_skeleton
from tplp.psat import Verdict, check_consistency, max_entropy_model, tighten
from tplp.worlds import World, WorldDistribution, atom_mass, formula_mass, ki_satisfies, ki_satisfies_tp


def report(number: int, label: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({label}) failed {suffix}"


def test_criterion_1_unfolding_fidelity():
    started = time.perf_counter()
    program = load_program("shipping.tpl")
    pp = unfold(ground_temporal_variables(program))
    first_clause_heads = [cl for cl in pp.clauses[:3]]
    ok = len(first_clause_heads) == 3
    expected = [(F(1, 4), F(2, 5)), (F(3, 20), F(6, 25)), (F(1, 10), F(4, 25))]
    for cl, (lo, hi) in zip(first_clause_heads, expected):
        ok = ok and (cl.head_iv.lo, cl.head_iv.hi) == (lo, hi)
        ok = ok and len(cl.body) == 1
        body_f, body_iv = cl.body[0]
        ok = ok and body_f.atoms[0].predicate == "sent"
        ok = ok and body_f.atoms[0].args == (ObjVar("Item"), ObjVar("Place"))
        ok = ok and body_f.atoms[0].time == 1
        ok = ok and (body_iv.lo, body_iv.hi) == (F(9, 10), F(1))
    # exactly three clauses come from the first source clause (times 3..5)
    ok = ok and [cl.head.time for cl in first_clause_heads] == [3, 4, 5]
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report(1, "unfolding fidelity", ok, f"{elapsed:.3f}s")


def test_criterion_2_tightening_with_independent_oracle():
    started = time.perf_counter()
    target = BasicFormula.single(TAtom("arrived", ("letter", "paris"), 3))

    # engine, exact, at the full 15-atom relevant base
    pp_full = load_unfolded("shipping.tpl")
    assert len(pp_full.base) == 15
    engine_full = tighten(pp_full, [target])
    exact_ok = (engine_full.intervals[0].lo, engine_full.intervals[0].hi) == (F(3, 10), F(2, 5))

    # engine on the letter/paris subprogram agrees
    pp_paris = load_unfolded("shipping_paris.tpl")
    engine_paris = tighten(pp_paris, [target])
    sub_ok = (engine_paris.intervals[0].lo, engine_paris.intervals[0].hi) == (F(3, 10), F(2, 5))

    # brute-force oracle: enumerate branch choices, solve each LP with the
    # independently written big-M simplex
    oracle = BruteForce(pp_paris, extra_formulas=[target])
    lo, hi = oracle.tighten(target)
    oracle_ok = abs(lo - 0.3) <= 1e-6 and abs(hi - 0.4) <= 1e-6

    elapsed = time.perf_counter() - started
    ok = exact_ok and sub_ok and oracle_ok and elapsed < 60.0
    report(
        2,
        "tightening vs brute-force oracle",
        ok,
        f"engine={engine_full.intervals[0]} oracle=[{lo:.7f},{hi:.7f}] {elapsed:.1f}s",
    )


def test_criterion_3_consistency_verdicts():
    t0 = time.perf_counter()
    pp0 = load_unfolded("p0.tpl")
    res0 = check_consistency(pp0)
    t_p0 = time.perf_counter() - t0
    ok = res0.verdict is Verdict.CONSISTENT and ki_satisfies(pp0, res0.witness)
    ok = ok and t_p0 < 1.0

    t0 = time.perf_counter()
    pp1 = load_unfolded("p1.tpl")
    res1 = check_consistency(pp1)
    t_p1 = time.perf_counter() - t0
    ok = ok and res1.verdict is Verdict.INCONSISTENT and t_p1 < 1.0
    report(3, "consistency verdicts", ok, f"p0={t_p0:.3f}s p1={t_p1:.3f}s")


def test_criterion_4_bilattice_critique_and_lattice_laws():
    flipped = join_k(ProbInterval(F(0), F(3, 10)), ProbInterval(F(7, 10), F(1)))
    ok = (flipped.lo, flipped.hi) == (F(7, 10), F(3, 10)) and not is_consistent(flipped)

    rng = random.Random(40004)
    trials = 10_000
    for _ in range(trials):
        a = ProbInterval(F(rng.randint(0, 40), 40), F(rng.randint(0, 40), 40))
        b = ProbInterval(F(rng.randint(0, 40), 40), F(rng.randint(0, 40), 40))
        c = ProbInterval(F(rng.randint(0, 40), 40), F(rng.randint(0, 40), 40))
        ok = ok and meet_k(a, a) == a and join_k(a, a) == a
        ok = ok and meet_k(a, b) == meet_k(b, a) and join_k(a, b) == join_k(b, a)
        ok = ok and meet_k(a, meet_k(b, c)) == meet_k(meet_k(a, b), c)
        ok = ok and join_k(a, join_k(b, c)) == join_k(join_k(a, b), c)
        ok = ok and meet_k(a, join_k(a, b)) == a and join_k(a, meet_k(a, b)) == a
        ok = ok and leq_k(meet_k(a, b), a) and leq_k(b, join_k(a, b))
        if not ok:
            break
    report(4, "bilattice critique + lattice laws", ok, f"{trials} trials")


def test_criterion_5_thread_world_equality():
    rng = random.Random(50005)
    checked = 0
    ok = True
    preds = ["a", "b", "c", "d"]
    while checked < 500:
        n_preds = rng.randint(1, 3)
        horizon = rng.randint(1, 3)
        catoms = [CAtom(p) for p in preds[:n_preds]]
        cal = Calendar.from_range(1, horizon)
        base = full_time_base(catoms, cal)
        if len(base) > 8:
            continue
        ki = rand_distribution(rng, base)
        kt = compress_distribution(ki, cal)
        for ca in catoms:
            for t in cal.points:
                lhs = thread_prob(kt, ca, t)
                rhs = formula_mass(ki, BasicFormula.single(ca.at(t)))
                ok = ok and lhs == rhs
        checked += 1
        if not ok:
            break
    report(5, "thread/world probability equality", ok, f"{checked} distributions")


def test_criterion_6_compression_bijections():
    rng = random.Random(60006)
    ok = True
    preds = ["a", "b", "c"]
    for _ in range(200):
        catoms = [CAtom(p) for p in preds[: rng.randint(1, 3)]]
        cal = Calendar.from_range(1, rng.randint(1, 3))
        base = full_time_base(catoms, cal)
        w = World(rng.randrange(1 << len(base)), base)
        ok = ok and flatten(compress(w, base, cal), cal, base) == w
        if not ok:
            break
    for _ in range(200):
        catoms = [CAtom(p) for p in preds[: rng.randint(1, 3)]]
        cal = Calendar.from_range(1, rng.randint(1, 3))
        base = full_time_base(catoms, cal)
        th = rand_thread(rng, catoms, cal)
        ok = ok and compress(flatten(th, cal, base), base, cal) == th
        if not ok:
            break
    report(6, "compression bijections", ok, "200 worlds + 200 threads")


def test_criterion_7_model_preservation_under_unfolding():
    rng = random.Random(70007)
    checked = 0
    ok = True
    while checked < 500:
        cal = Calendar.from_range(1, rng.randint(1, 3))
        program = rand_tp_program(rng, cal, n_clauses=rng.randint(1, 3))
        pp = unfold(program)
        if pp.base is None or not (1 <= len(pp.base) <= 10):
            continue
        ki = rand_distribution(rng, pp.base)
        ok = ok and (ki_satisfies_tp(program, ki) == ki_satisfies(pp, ki))
        checked += 1
        if not ok:
            break
    report(7, "model preservation under unfolding", ok, f"{checked} pairs")


def test_criterion_8_maximum_entropy():
    pp = load_unfolded("mx.tpl")
    res = max_entropy_model(pp)
    pr = atom_mass(res.distribution, TAtom("a", (), 1))
    ok = abs(float(pr) - 0.5) < 1e-4 and abs(res.entropy - math.log(2)) < 1e-4
    ok = ok and ki_satisfies(pp, res.distribution)

    rng = random.Random(80008)
    accepted = 0
    while accepted < 100:
        p = F(rng.randint(0, 2**12), 2**12)
        candidate = WorldDistribution(pp.base, {0: 1 - p, 1: p})
        if not ki_satisfies(pp, candidate):
            continue
        accepted += 1
        h = -sum(float(v) * math.log(float(v)) for _, v in candidate.items() if v > 0)
        ok = ok and res.entropy + 1e-9 >= h
        if not ok:
            break
    report(8, "maximum entropy", ok, f"Pr={float(pr):.6f} H={res.entropy:.6f}")


def test_criterion_9_evolution_verification():
    cbase = HerbrandBase([CAtom("a")])
    profile = EvolutionProfile(
        (1, 2),
        (
            (1, WorldDistribution(cbase, {0: F(7, 10), 1: F(3, 10)})),
            (2, WorldDistribution(cbase, {0: F(2, 5), 1: F(3, 5)})),
        ),
    )
    skeleton, _ = parse_skeleton("calendar 1..2.\na.\n")
    per_time = {
        "c0.head": {
            1: ProbInterval(F(3, 10), F(3, 10)),
            2: ProbInterval(F(3, 5), F(3, 5)),
        }
    }
    program = build_evolution_program(skeleton, per_time, (1, 2))

    conditional = verify_evolution(profile, program, VerificationMode.CONDITIONAL)
    ok = conditional.all_inside
    ok = ok and [(c.time, c.mass) for c in conditional.checks] == [
        (1, F(3, 10)),
        (2, F(3, 5)),
    ]

    literal = verify_evolution(profile, program, VerificationMode.LITERAL)
    first = literal.checks[0]
    ok = ok and first.time == 1 and first.mass == F(3, 20) and not first.inside
    ok = ok and (first.interval.lo, first.interval.hi) == (F(3, 10), F(3, 10))
    ok = ok and literal.literal_model is False
    report(
        9,
        "evolution construction verification",
        ok,
        "conditional passes; literal reports 3/20 vs [3/10,3/10]",
    )

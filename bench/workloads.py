"""The benchmark's workloads: input files and the fixed query list of one pass.

Every workload is a pure function of its seed.  It returns the files to write
at set-up and the queries a pass sends through ``tplp.cli.run``.  A query names
its files by key; the runner substitutes the written paths.  The expected
answers live next to the queries (fixture-cli) or are computed after the
timed passes by the checks in ``checks.py`` (the seeded workloads).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FIXTURE = BENCH_DIR / "expected" / "fixture_cli.json"


@dataclass(frozen=True)
class Query:
    qid: str
    argv: tuple[str, ...]  # "@key" names an input file by its key
    check: str  # answer check in checks.py
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    files: dict[str, str]  # key -> file text
    queries: list[Query]
    params: dict


def _dec(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".") if x else "0"


# --- fixture-cli --------------------------------------------------------------------


def fixture_cli(fixtures_dir: Path) -> Workload:
    """Every README example and bundled fixture query, in the order of the
    expected-answers file.  The inputs are the bundled fixtures, so the seed
    changes nothing: a seeded query order made the time of the cheap queries
    depend on which queries ran before them."""
    spec = json.loads(EXPECTED_FIXTURE.read_text())
    files = {p.name: p.read_text() for p in sorted(fixtures_dir.iterdir()) if p.is_file()}
    queries = [
        Query(q["id"], tuple(q["argv"]), "fixture", q["expect"]) for q in spec["queries"]
    ]
    return Workload("fixture-cli", files, queries, {"queries": len(queries)})


# --- dense-lp -----------------------------------------------------------------------

DENSE_PROGRAMS = 4
DENSE_ATOMS = 6
DENSE_COLUMNS = (20, 24)
# Clause shapes per program: number of body conjuncts of each clause.  Fixed
# shapes keep the branch count per program fixed across seeds.  Few clauses
# keep a tightening to a few tenths of a second, so that each query is timed
# many times in a run; a query of a second or more reads up to 1.4x apart
# from run to run on a shared machine, however often it is repeated.
DENSE_SHAPE = (0, 0, 3)
# Atoms per body formula; consecutive formulas share one atom.
DENSE_LINK_ATOMS = 3
DENSE_TIGHTEN = 2
# Program structures (atoms per formula, connectives, base intervals, query
# formulas) are drawn once from this seed; the run seed jitters every interval
# endpoint by up to DENSE_JITTER, which keeps the work of a pass (branches,
# LP count and LP size) nearly the same from seed to seed.
DENSE_STRUCTURE_SEED = 2011
DENSE_JITTER = 0.02


def _interval(rng: random.Random) -> tuple[float, float]:
    a, b = sorted(rng.sample(range(1, 20), 2))
    return a / 20, b / 20


def _jittered(rng: random.Random, lo: float, hi: float, jitter: float) -> tuple[float, float]:
    steps = round(jitter * 100)

    def move(x: float) -> float:
        return min(0.99, max(0.01, x + rng.randint(-steps, steps) / 100))

    return tuple(sorted((move(lo), move(hi))))


def dense_structure(rng: random.Random) -> list:
    """Clauses of one program as (head, head interval, body); atoms are indices.

    The body formulas cover overlapping runs of a shuffled atom order, so the
    atoms form one component.  Body intervals stay strictly inside (0, 1), so every
    clause keeps all of its head-in / body-low / body-high choices.
    """
    order = list(range(DENSE_ATOMS))
    rng.shuffle(order)
    step = DENSE_LINK_ATOMS - 1
    links = [tuple(order[i : i + DENSE_LINK_ATOMS]) for i in range(0, DENSE_ATOMS - 1, step)]
    assert len(links) == sum(DENSE_SHAPE)
    clauses = []
    for head, n_body in zip(rng.sample(range(DENSE_ATOMS), len(DENSE_SHAPE)), DENSE_SHAPE):
        body = [(rng.choice(("and", "or")), links.pop(), _interval(rng)) for _ in range(n_body)]
        clauses.append((head, _interval(rng), body))
    return clauses


def dense_columns(clauses) -> int:
    """LP columns: distinct satisfaction signatures of all worlds over the formulas."""
    formulas = {("and", (head,)) for head, _, _ in clauses}
    formulas |= {(conn, members) for _, _, body in clauses for conn, members, _ in body}
    signatures = {
        tuple((any if conn == "or" else all)((world >> a) & 1 for a in members)
              for conn, members in sorted(formulas))
        for world in range(1 << DENSE_ATOMS)
    }
    return len(signatures)


def dense_text(clauses, jitter: random.Random) -> str:
    def annot(var: str, iv: tuple[float, float]) -> str:
        lo, hi = _jittered(jitter, *iv, DENSE_JITTER)
        return f"<{var}=1, [{_dec(lo)}], [{_dec(hi)}]>"

    lines = ["calendar 1..1."]
    for head, head_iv, body in clauses:
        clause = f"p{head}@Y : {annot('Y', head_iv)}"
        conjuncts = [
            f" {conn} ".join(f"p{a}@Y{k + 1}" for a in members) + f" : {annot(f'Y{k + 1}', iv)}"
            for k, (conn, members, iv) in enumerate(body)
        ]
        if conjuncts:
            clause += " :- " + " and ".join(conjuncts)
        lines.append(clause + ".")
    return "\n".join(lines) + "\n"


def dense_lp(seed: int) -> Workload:
    structure = random.Random(DENSE_STRUCTURE_SEED)
    jitter = random.Random(seed)
    files: dict[str, str] = {}
    queries: list[Query] = []
    for i in range(DENSE_PROGRAMS):
        for _ in range(1000):
            clauses = dense_structure(structure)
            if DENSE_COLUMNS[0] <= dense_columns(clauses) <= DENSE_COLUMNS[1]:
                break
        else:
            raise RuntimeError("no dense program within the column range")
        key = f"dense{i}.tpl"
        files[key] = dense_text(clauses, jitter)
        queries.append(Query(f"dense{i}-consistent", ("consistent", "@" + key, "--json"), "oracle"))
        formulas = [
            f" {conn} ".join(f"p{a}@1" for a in members)
            for _, _, body in clauses
            for conn, members, _ in body
        ]
        # Two tightenings per program, so the median query is a tightening.
        for j, target in enumerate(structure.sample(formulas, DENSE_TIGHTEN)):
            qkey = f"dense{i}-{j}.tpq"
            files[qkey] = f"?tighten {target}.\n"
            queries.append(
                Query(f"dense{i}-tighten{j}", ("tighten", "@" + key, "@" + qkey, "--json"), "oracle")
            )
    params = {
        "programs": DENSE_PROGRAMS,
        "atoms": DENSE_ATOMS,
        "columns": list(DENSE_COLUMNS),
        "clause_body_sizes": list(DENSE_SHAPE),
        "atoms_per_body_formula": DENSE_LINK_ATOMS,
        "tightenings_per_program": DENSE_TIGHTEN,
        "structure_seed": DENSE_STRUCTURE_SEED,
        "jitter": DENSE_JITTER,
    }
    return Workload("dense-lp", files, queries, params)


# --- wide-ground --------------------------------------------------------------------

# Constants per rung.  A program over K constants unfolds to 6K^2 + 2K + F
# clauses at full grounding (F facts): from about 400 to about 2,500.
WIDE_RUNGS = (8, 9, 10, 11, 14, 20)
WIDE_MAX_WORLD_ATOMS = 100_000


def _weights(rng: random.Random, n: int, scale: float) -> tuple[list[float], list[float]]:
    lows, highs = [], []
    for _ in range(n):
        lo = rng.randint(0, int(scale * 100)) / 100
        hi = min(1.0, lo + rng.randint(1, 20) / 100)
        lows.append(lo)
        highs.append(hi)
    return lows, highs


def _wlist(values: list[float]) -> str:
    return "[" + ",".join(_dec(v) for v in values) + "]"


def wide_program(rng: random.Random, k: int) -> tuple[str, dict]:
    """A shipping-style program over k constants; returns text and its sizes."""
    consts = [f"c{i}" for i in range(k)]
    lo1, hi1 = _weights(rng, 3, 0.25)
    lo2, hi2 = _weights(rng, 3, 0.1)
    # The express rule overlaps the first rule at points 3 and 4, so programs
    # stay consistent whatever the draw.
    lo3 = [rng.randint(int(a * 100), int(b * 100)) / 100 for a, b in zip(lo1[:2], hi1[:2])]
    hi3 = [min(1.0, max(a, h) + rng.randint(0, 10) / 100) for a, h in zip(lo3, hi1[:2])]
    s1, s2, s3 = (rng.randint(50, 95) / 100 for _ in range(3))
    dest = consts[0]
    lines = [
        "calendar 1..8.",
        f"arrived(Item,Place)@Y : <Y:3~5, {_wlist(lo1)}, {_wlist(hi1)}>"
        f" :- sent(Item,Place)@Y1 : <Y1=1, [{_dec(s1)}], #>.",
        f"arrived(Item,Place)@Y : <Y:6~8, {_wlist(lo2)}, {_wlist(hi2)}>"
        f" :- sent(Item,Place)@Y1 : <Y1=1, [{_dec(s2)}], #>.",
        f"arrived(Item,{dest})@Y : <Y:3~4, {_wlist(lo3)}, {_wlist(hi3)}>"
        f" :- sent(Item,{dest})@Y1 : <Y1=1, [{_dec(s3)}], #>"
        f" and express_mail(Item)@Y2 : <Y2=1, #, #>.",
    ]
    facts = 0
    for i in range(k):
        lines.append(f"sent({consts[i]},{consts[rng.randrange(k)]})@Y : <Y=1, #, #>.")
        facts += 1
    for c in rng.sample(consts, max(1, k // 3)):
        lines.append(f"express_mail({c})@Y : <Y=1, #, #>.")
        facts += 1
    sizes = {
        "constants": k,
        "ground_clauses": 2 * k * k + k + facts,
        "unfolded_clauses": 6 * k * k + 2 * k + facts,
    }
    return "\n".join(lines) + "\n", sizes


def wide_ground(seed: int) -> Workload:
    rng = random.Random(seed)
    files: dict[str, str] = {}
    queries: list[Query] = []
    for k in WIDE_RUNGS:
        text, sizes = wide_program(rng, k)
        key = f"wide{k}.tpl"
        files[key] = text
        queries.append(Query(f"wide{k}-validate", ("validate", "@" + key), "validate"))
        queries.append(Query(f"wide{k}-ground", ("ground", "@" + key), "ground", sizes))
        queries.append(
            Query(
                f"wide{k}-consistent",
                ("consistent", "@" + key, "--json", "--max-world-atoms", str(WIDE_MAX_WORLD_ATOMS)),
                "witness",
                sizes,
            )
        )
    params = {
        "rungs_constants": list(WIDE_RUNGS),
        "grounding": "full",
        "max_world_atoms": WIDE_MAX_WORLD_ATOMS,
        "unfolded_clauses": "6K^2 + 2K + F, F = K + max(1, K // 3) facts",
    }
    return Workload("wide-ground", files, queries, params)


WORKLOADS = ("fixture-cli", "dense-lp", "wide-ground")


def build(name: str, seed: int, fixtures_dir: Path) -> Workload:
    if name == "fixture-cli":
        return fixture_cli(fixtures_dir)
    if name == "dense-lp":
        return dense_lp(seed)
    if name == "wide-ground":
        return wide_ground(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

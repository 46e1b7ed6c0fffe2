"""Byte-for-byte diagnostics of the seeded fuzz mutants.

tests/golden/diagnostics.json holds the exit code, stdout and stderr of every
mutant of tests/test_fuzz.py that prints a diagnostic: the program mutants
through ``validate``, the query mutants through ``tighten`` and the evolution
skeleton mutants through ``evolve``, plus ``ialg`` on mutated interval
expressions.  A case names its input by kind and seed, and the test rebuilds
the mutant with ``test_fuzz.mutate``.  Every other mutant must print no
diagnostic.  A diagnostic carries its line, column and message, so a change in
how the front end locates or words an error shows here.

Run this file as a script, from the repository root with ``src`` on
PYTHONPATH, to rewrite the golden file from the current code.
"""

import contextlib
import io
import json
import os
import pathlib
import random
import tempfile

from conftest import FIXTURES, GOLDEN
from test_fuzz import EVOLUTION, PROGRAMS, QUERIES, SEEDS, SMALL_SEEDS, mutate

from tplp.cli import run
from tplp.parser import parse_query, parse_skeleton

GOLDEN_FILE = GOLDEN / "diagnostics.json"
IALG = ["join_k([0,0.3],[0.7,1])", "and_ig([0.2,0.5],or_ig([0,1/3],[0.1,0.9]))"]
IALG_SEEDS = range(100)


def mutants():
    """(kind, seed, source, text) of each mutant, drawn as test_fuzz draws
    them; for evolution only the seeds that mutate the skeleton."""
    for seed in SEEDS:
        rng = random.Random(seed)
        name = rng.choice(sorted(PROGRAMS))
        yield "program", seed, name, mutate(rng, PROGRAMS[name])
    for seed in SMALL_SEEDS:
        rng = random.Random(seed)
        name = rng.choice(sorted(QUERIES))
        yield "query", seed, name, mutate(rng, QUERIES[name])
    skeleton = (FIXTURES / EVOLUTION[0]).read_text()
    for seed in SMALL_SEEDS:
        rng = random.Random(seed)
        if rng.randrange(len(EVOLUTION)) == 0:
            yield "skeleton", seed, EVOLUTION[0], mutate(rng, skeleton)
    for seed in IALG_SEEDS:
        rng = random.Random(seed)
        expr = rng.choice(IALG)
        yield "ialg", seed, expr, mutate(rng, expr)


# Each kind's command, "@" standing for the mutant: a file in the current
# directory, or for ialg the expression itself.
ARGV = {
    "program": ["validate", "@mutant.tpl"],
    "query": ["tighten", "shipping.tpl", "@mutant.tpq", "--grounding", "relevant"],
    "skeleton": ["evolve", "@mutant.tpl", "profile.csv"],
    "ialg": ["ialg", "@"],
}


def observe(kind: str, text: str) -> dict | None:
    """Exit code, stdout and stderr of the kind's command on the mutant, or
    None when it prints no diagnostic.  A query or skeleton the parser
    accepts is not run, since its command would go on to solve."""
    if kind == "query" and not parse_query(text).diagnostics:
        return None
    if kind == "skeleton" and not parse_skeleton(text)[1]:
        return None
    if kind == "ialg" and text.startswith("-"):  # argparse would read it as an option
        return None
    argv = []
    for arg in ARGV[kind]:
        if arg == "@":
            arg = text
        elif arg.startswith("@"):
            arg = arg[1:]
            pathlib.Path(arg).write_text(text)
        argv.append(arg)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        result = run(argv)
    if not err.getvalue():
        return None
    stdout = result.payload + "\n" if result.payload else ""
    return {"exit": result.exit_code, "stdout": stdout, "stderr": err.getvalue()}


def observed_cases() -> list[dict]:
    cases = []
    for kind, seed, source, text in mutants():
        case = observe(kind, text)
        if case is not None:
            cases.append({"kind": kind, "seed": seed, "source": source, **case})
    return cases


def test_diagnostics_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN_FILE.read_text())["cases"]
    observed = observed_cases()
    # the same mutants print diagnostics, then each prints the same bytes
    assert [(c["kind"], c["seed"]) for c in observed] == [(c["kind"], c["seed"]) for c in golden]
    for got, want in zip(observed, golden):
        assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        cases = observed_cases()
    about = (
        "Exit code, stdout and stderr of every tests/test_fuzz.py mutant that prints a "
        "diagnostic: programs through validate, queries through tighten, evolution "
        "skeletons through evolve, and mutated ialg expressions.  Compared byte for byte "
        "by tests/test_golden_diagnostics.py, which rebuilds each mutant from its kind "
        "and seed."
    )
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    GOLDEN_FILE.write_text(f'{{"about": {json.dumps(about)},\n"cases": [\n{lines}\n]}}\n')
    print(f"{len(cases)} cases written to {GOLDEN_FILE}")

"""Seeded mutation fuzz over the fixture programs through the CLI.

Each seed picks a fixture program and applies one to three token mutations:
a number replaced, a token deleted or doubled, or a token from a small pool
inserted.  Every mutant goes through ``tplp.cli.run``, which must answer with
an exit code and never raise.  A text that ``validate`` accepts must also
``unfold`` and reach a ``consistent`` verdict or a resource limit, never an
input error: validation is the promise that the later stages can read it.
"""

import contextlib
import io
import random
import re

from conftest import FIXTURES

from tplp.cli import run

PROGRAMS = {p.name: p.read_text() for p in sorted(FIXTURES.glob("*.tpl"))}
TOKEN = re.compile(r"\d+(?:\.\d+)?|[A-Za-z_]\w*|:-|<=|>=|!=|\s+|.", re.S)
NUMBERS = ["0", "1", "2", "3", "5", "9", "0.5", "1.5"]
POOL = [
    "0", "1", "3", "9", "-", ".", ",", ":", "~", "#", "=", "<", ">", "!=", "not", "and",
    "or", "(", ")", "[", "]", "Y", "Y1", "a", "@", "uniform", ":-", " ",
]
SEEDS = range(600)


def mutate(rng: random.Random, text: str) -> str:
    tokens = TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        numbers = [k for k, t in enumerate(tokens) if t[0].isdigit()]
        op = rng.random()
        if op < 0.4 and numbers:
            tokens[rng.choice(numbers)] = rng.choice(NUMBERS)
        elif op < 0.6:
            del tokens[i]
        elif op < 0.75:
            tokens.insert(i, tokens[i])
        else:
            tokens.insert(i, rng.choice(POOL))
    return "".join(tokens)


def test_validated_mutants_unfold_and_decide(tmp_path):
    path = tmp_path / "mutant.tpl"
    accepted, failures = 0, []
    for seed in SEEDS:
        rng = random.Random(seed)
        text = mutate(rng, PROGRAMS[rng.choice(sorted(PROGRAMS))])
        path.write_text(text)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            if run(["validate", str(path)]).exit_code != 0:
                continue
            accepted += 1
            unfolded = run(["unfold", str(path), "--grounding", "relevant"]).exit_code
            decided = run(["consistent", str(path), "--grounding", "relevant"]).exit_code
        if unfolded != 0 or decided not in (0, 1, 3):
            failures.append((seed, unfolded, decided, err.getvalue(), text))
    assert not failures, failures[:3]
    # enough mutants pass validation to exercise the later stages
    assert accepted >= len(SEEDS) // 8

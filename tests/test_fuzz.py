"""Seeded mutation fuzz over the fixture inputs through the CLI.

Each seed picks a fixture input and applies one to three token mutations:
a number replaced, a token deleted or doubled, or a token from a small pool
inserted.  Every mutant goes through ``tplp.cli.run``, which must answer with
an exit code and never raise.  A program text that ``validate`` accepts must
also ``unfold`` and reach a ``consistent`` verdict or a resource limit, never
an input error: validation is the promise that the later stages can read it.
Mutated queries (``tighten``, ``entail``) and evolution inputs (``evolve``)
must exit 0, 1, 2 or 3, and every exit 2 must say why on stderr.
"""

import contextlib
import io
import random
import re
import traceback

from conftest import FIXTURES

from tplp.cli import run

PROGRAMS = {p.name: p.read_text() for p in sorted(FIXTURES.glob("*.tpl"))}
QUERIES = {p.name: p.read_text() for p in sorted(FIXTURES.glob("*.tpq"))}
EVOLUTION = ("evolution_skeleton.tpl", "evolution_profile.csv")
TOKEN = re.compile(r"\d+(?:\.\d+)?|[A-Za-z_]\w*|:-|<=|>=|!=|\s+|.", re.S)
NUMBERS = ["0", "1", "2", "3", "5", "9", "0.5", "1.5"]
POOL = [
    "0", "1", "3", "9", "-", ".", ",", ":", "~", "#", "=", "<", ">", "!=", "not", "and",
    "or", "(", ")", "[", "]", "Y", "Y1", "a", "@", "uniform", ":-", " ",
]
SEEDS = range(600)
SMALL_SEEDS = range(300)
# an "error: ..." line, or a diagnostic such as "3:7 error[syntax]: ..."
ERROR_LINE = re.compile(r"^(?:\S+ )?error(?:\[[^\]]*\])?: ", re.M)


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
            unfolded = run(["unfold", str(path)]).exit_code
            decided = run(["consistent", str(path), "--grounding", "relevant"]).exit_code
        if unfolded != 0 or decided not in (0, 1, 3):
            failures.append((seed, unfolded, decided, err.getvalue(), text))
    assert not failures, failures[:3]
    # enough mutants pass validation to exercise the later stages
    assert accepted >= len(SEEDS) // 8


def checked_run(argv: list[str], failures: list, *context) -> int | None:
    """Exit code of run(argv); a raise, an unknown exit code or an exit 2
    without an error line on stderr is added to failures."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = run(argv).exit_code
        except Exception:
            failures.append((*context, argv[0], traceback.format_exc()))
            return None
    if code not in (0, 1, 2, 3) or (code == 2 and not ERROR_LINE.search(err.getvalue())):
        failures.append((*context, argv[0], code, err.getvalue()))
    return code


def test_mutated_queries_answer_or_explain(tmp_path):
    program = str(FIXTURES / "shipping.tpl")
    path = tmp_path / "mutant.tpq"
    answered, failures = 0, []
    for seed in SMALL_SEEDS:
        rng = random.Random(seed)
        text = mutate(rng, QUERIES[rng.choice(sorted(QUERIES))])
        path.write_text(text)
        for command in ("tighten", "entail"):
            argv = [command, program, str(path), "--grounding", "relevant"]
            answered += checked_run(argv, failures, seed, text) in (0, 1)
    assert not failures, failures[:3]
    assert answered >= len(SMALL_SEEDS) // 8


def test_mutated_evolution_inputs_answer_or_explain(tmp_path):
    paths = [tmp_path / name for name in EVOLUTION]
    answered, failures = 0, []
    for seed in SMALL_SEEDS:
        rng = random.Random(seed)
        texts = [(FIXTURES / name).read_text() for name in EVOLUTION]
        k = rng.randrange(len(texts))
        texts[k] = mutate(rng, texts[k])
        for path, text in zip(paths, texts):
            path.write_text(text)
        for verify in ([], ["--verify", rng.choice(["literal", "conditional"])]):
            argv = ["evolve", *map(str, paths), *verify]
            answered += checked_run(argv, failures, seed, texts[k]) in (0, 1)
    assert not failures, failures[:3]
    assert answered >= len(SMALL_SEEDS) // 4

"""Byte-for-byte CLI output on the bundled fixtures.

tests/golden/cli.json holds the stdout, stderr and exit code of every
exact-mode fixture query: validate, ground, unfold, consistent, entail,
tighten, evolve, ialg and maxent, as text and with --json.  It also carries
shipping8.tpl, a shipping-style program over 8 constants, whose full
grounding pins how ground instances print their shared annotations and how a
witness over a 410-atom base names its atoms.  The verdicts,
witnesses, intervals, diagnostics and branch counts in it are the solver's
contract, so a change to any of them shows here.  Only maxent's entropy, a
float, is left out.

tests/golden/multicolumn.json does the same for consistent, tighten and
maxent on seeded 5- and 6-atom programs from tests/generators.py, whose LPs
have up to 16 columns, so it pins the simplex's vertices (witnesses and
maxent starts) on components wider than the fixtures' two-column ones.  It
carries its own program and query files.
"""

import json
import pathlib

import pytest

from tplp.cli import run

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
CLI = json.loads((GOLDEN_DIR / "cli.json").read_text())
CASES = CLI["cases"]
MULTICOLUMN = json.loads((GOLDEN_DIR / "multicolumn.json").read_text())


def stdout_of(result) -> str:
    """What the console script prints for a result."""
    return result.payload + "\n" if result.payload else ""


def check_case(case, files, capsys):
    """Run case's argv, '@name' naming a file in the directory files."""
    argv = [str(files / a[1:]) if a.startswith("@") else a for a in case["argv"]]
    result = run(argv)
    stderr = capsys.readouterr().err
    stdout = stdout_of(result)
    if case["argv"][0] == "maxent":
        stdout = "".join(
            line for line in stdout.splitlines(keepends=True)
            if not line.startswith('  "entropy": ')
        )
    assert result.exit_code == case["exit"]
    assert stdout == case["stdout"]
    assert stderr == case["stderr"]


def write_files(directory, files: dict) -> pathlib.Path:
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory, fixtures):
    """The fixtures, and the programs cli.json carries, in one directory."""
    fixture_files = {p.name: p.read_text() for p in fixtures.iterdir() if p.is_file()}
    return write_files(tmp_path_factory.mktemp("cli"), {**fixture_files, **CLI["files"]})


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_matches_golden(cli_files, capsys, case):
    check_case(case, cli_files, capsys)


def test_cases_repeat_in_one_process(cli_files, capsys):
    """Every case, forward and then in reverse, in this one process: the
    parser that run() builds once and the memos carried by shared program
    values must leave no state from one command in the next."""
    for case in CASES + CASES[::-1]:
        check_case(case, cli_files, capsys)


@pytest.fixture(scope="module")
def multicolumn_files(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("multicolumn"), MULTICOLUMN["files"])


@pytest.mark.parametrize(
    "case", MULTICOLUMN["cases"], ids=[" ".join(c["argv"]) for c in MULTICOLUMN["cases"]]
)
def test_multicolumn_output_matches_golden(multicolumn_files, capsys, case):
    check_case(case, multicolumn_files, capsys)

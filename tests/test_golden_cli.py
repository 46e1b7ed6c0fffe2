"""Byte-for-byte CLI output on the bundled fixtures.

tests/golden/cli.json holds the stdout, stderr and exit code of every
exact-mode fixture query: validate, ground, unfold, consistent, entail,
tighten, evolve, ialg and maxent, as text and with --json.  The verdicts,
witnesses, intervals, diagnostics and branch counts in it are the solver's
contract, so a change to any of them shows here.  Only maxent's entropy, a
float, is left out.
"""

import json
import pathlib

import pytest

from tplp.cli import run

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "cli.json").read_text())
CASES = GOLDEN["cases"]


def stdout_of(result) -> str:
    """What the console script prints for a result."""
    return result.payload + "\n" if result.payload else ""


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_output_matches_golden(fixtures, capsys, case):
    argv = [str(fixtures / a[1:]) if a.startswith("@") else a for a in case["argv"]]
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

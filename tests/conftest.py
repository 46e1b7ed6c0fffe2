import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"
# every fixture that is a program (the skeleton is evolve's input)
FIXTURE_PROGRAMS = sorted(
    p.name for p in FIXTURES.glob("*.tpl") if p.name != "evolution_skeleton.tpl"
)


@pytest.fixture(scope="session")
def fixtures() -> pathlib.Path:
    return FIXTURES


def golden_file(name: str) -> str:
    """One of the programs tests/golden/cli.json carries next to the fixtures."""
    return json.loads((GOLDEN / "cli.json").read_text())["files"][name]


def load_program(name: str):
    from tplp.parser import parse_program

    result = parse_program((FIXTURES / name).read_text())
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.program


def load_unfolded(name: str, relevant: bool = True):
    from tplp.grounder import GroundingMode, ground_program, unfold

    mode = GroundingMode.RELEVANT if relevant else GroundingMode.FULL
    return unfold(ground_program(load_program(name), mode))

"""Byte pins for the largest CLI answers.

tests/golden/cli.json holds maxent only for the small fixtures, and leaves out
its entropy.  These pins fix, by SHA-256 and length, every byte of the
1,024-world maximum-entropy model of shipping.tpl (as JSON and as text,
entropy included) and of shipping's full-grounding consistency witness, so
the JSON writer, the witness naming, the integer-built distributions and the
entropy ascent are all held to the output they gave before.
"""

import hashlib

import pytest

from tplp.cli import run

# argv (relative to the fixtures) -> (payload length, SHA-256 of the payload)
PINS = {
    ("maxent", "shipping.tpl", "--grounding", "relevant", "--json"): (
        344106,
        "5de605b39b3ac3f599f70c43916883bb511755308cc5e1875de31eefc5cbc6a1",
    ),
    ("maxent", "shipping.tpl", "--grounding", "relevant"): (
        213963,
        "9aa3877b35f683028b4e8a7db4bfe6d6ce749cf556dc9fa91d64a3b21ed8ebb2",
    ),
    ("consistent", "shipping.tpl", "--max-world-atoms", "200", "--json"): (
        9043,
        "24e1939c45b18cb0cf8cb9f929bbf3d7cf48542ae65db4f340c881e97b1c7874",
    ),
}


@pytest.mark.parametrize("argv", list(PINS), ids=[" ".join(a) for a in PINS])
def test_answer_bytes(fixtures, capsys, argv):
    command, name, *options = argv
    result = run([command, str(fixtures / name), *options])
    payload = result.payload.encode()
    assert (result.exit_code, capsys.readouterr().err) == (0, "")
    assert (len(payload), hashlib.sha256(payload).hexdigest()) == PINS[argv]

"""Byte pins for the largest CLI answers.

tests/golden/cli.json holds maxent only for the small fixtures, and leaves out
its entropy.  These pins fix, by SHA-256 and length, every byte of the
1,024-world maximum-entropy model of shipping.tpl, of shipping's
full-grounding consistency witness and of the witness of a 20-constant
shipping-style program at full grounding (2,464 clauses over 2,820 atoms),
each as JSON and as text (the maxent model's entropy included), so the JSON
writer, the text form, the atom table that names the witness worlds, the
integer-built distributions and the entropy ascent are all held to the output
they gave before.
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
    ("consistent", "shipping.tpl", "--max-world-atoms", "200"): (
        6103,
        "fec7815095d017cb830bfaa9e5a853b0a92175e56a995c73be528e1411068266",
    ),
}


@pytest.mark.parametrize("argv", list(PINS), ids=[" ".join(a) for a in PINS])
def test_answer_bytes(fixtures, capsys, argv):
    command, name, *options = argv
    result = run([command, str(fixtures / name), *options])
    payload = result.payload.encode()
    assert (result.exit_code, capsys.readouterr().err) == (0, "")
    assert (len(payload), hashlib.sha256(payload).hexdigest()) == PINS[argv]


# Shipping's rules over 20 constants, each item sent to the square of its
# number modulo 20, and four items sent express.
WIDE20 = "\n".join([
    "calendar 1..8.",
    "arrived(Item,Place)@Y : <Y:3~5, [0.04,0.25,0.08], [0.23,0.28,0.12]>"
    " :- sent(Item,Place)@Y1 : <Y1=1, [0.88], #>.",
    "arrived(Item,Place)@Y : <Y:6~8, [0.07,0.07,0.03], [0.22,0.2,0.07]>"
    " :- sent(Item,Place)@Y1 : <Y1=1, [0.5], #>.",
    "arrived(Item,c0)@Y : <Y:3~4, [0.19,0.25], [0.29,0.34]>"
    " :- sent(Item,c0)@Y1 : <Y1=1, [0.94], #> and express_mail(Item)@Y2 : <Y2=1, #, #>.",
    *(f"sent(c{i},c{i * i % 20})@Y : <Y=1, #, #>." for i in range(20)),
    *(f"express_mail(c{i})@Y : <Y=1, #, #>." for i in range(0, 20, 5)),
]) + "\n"


def wide_witness(tmp_path, capsys, *options) -> tuple[int, str]:
    """Length and SHA-256 of WIDE20's consistency witness under `options`."""
    path = tmp_path / "wide20.tpl"
    path.write_text(WIDE20)
    result = run(["consistent", str(path), *options, "--max-world-atoms", "100000"])
    payload = result.payload.encode()
    assert (result.exit_code, capsys.readouterr().err) == (0, "")
    return len(payload), hashlib.sha256(payload).hexdigest()


def test_wide_witness_bytes(tmp_path, capsys):
    assert wide_witness(tmp_path, capsys, "--json") == (
        227050,
        "d7d462393f39bbb63fd4ad526e76c0f532e2b73df7cc400e6e87ab6f74c7aa12",
    )


def test_wide_witness_text_bytes(tmp_path, capsys):
    assert wide_witness(tmp_path, capsys) == (
        148360,
        "f024639c217726a89dfd4cbcdcb60b2b794f0a4338099099ac88698071100b87",
    )

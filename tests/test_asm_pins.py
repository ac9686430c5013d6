"""The assembler's outcome on three corpora, pinned.

Each source's outcome is its image file (``ProgramImage.to_bytes``) and its
sorted symbol table, or the type and message of the ``AsmError`` it raised;
any other exception fails the test.
``data/asm_pins.json`` holds, per corpus, the source count, how many
assembled, and a SHA-256 over the ordered outcomes.

The corpora:

* ``fixtures``: every ``apps.FIXTURES`` source and patched source;
* ``progen``: ``progen.generate(seed).source`` for seeds 0-599;
* ``random``: 20,000 seeded sources, each ``.org 0x9000`` and ``lab: NOP``
  followed by 1-4 lines of 0-4 tokens drawn from ``TOKENS``; one source in
  five has such a line before the ``.org`` as well.  Most fail, each with
  the error the assembler gives first.

Run this file as a script to rewrite the pins, only for a deliberate change
of what the assembler accepts or produces.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from helpers.progen import generate

from cfasim.apps import FIXTURES
from cfasim.asm import AsmError, assemble

PINS_PATH = Path(__file__).parent / "data" / "asm_pins.json"

# The first ``LEADING`` tokens are mnemonics and directives; a line starts
# with one of them seven times in eight.  A blank follows the first token,
# and one of SEPARATORS each later one.
LEADING = 24
TOKENS = (
    "NOP", "nop", "MOV", "mov", "ADD", "sub", "CMP", "JMP", "jz", "JNZ", "CALL",
    "calli", "RET", "RETI", "PUSH", "pop", "EINT", "DINT", "HALT", "FROB",
    ".word", ".WORD", ".org", ".Org", "r1", "R2", "r9", "SP", "sp", "#5", "# 7", "#lab",
    "#0x10000", "#0xFFFF", "#-1", "&0x10", "&-2", "&lab", "@r2", "@ r3", "4(r3)", "lab(r1)",
    "0x9000", "0x10000", "-4", "12", "0b11", "lab", "lab+4", "lab - 4", "lab+",
    "nowhere", "main", "lab:", "new:", "_x:", "1x:", ";c", ",", ":", "(", ")",
)
SEPARATORS = (", ", ", ", ",", " ", "\t")


def random_sources(count: int = 20_000, seed: int = 29) -> list[str]:
    rng = random.Random(seed)

    def line() -> str:
        tokens = rng.choices(TOKENS, k=rng.randint(0, 4))
        if tokens and rng.randrange(8):
            tokens[0] = rng.choice(TOKENS[:LEADING])
        return " ".join(tokens[:2]) + "".join(rng.choice(SEPARATORS) + t for t in tokens[2:])

    out = []
    for _ in range(count):
        head = line() + "\n" if rng.randrange(5) == 0 else ""
        body = "".join(f"    {line()}\n" for _ in range(rng.randint(1, 4)))
        out.append(f"{head}.org 0x9000\nlab: NOP\n{body}")
    return out


CORPORA = {
    "fixtures": lambda: [src for fx in FIXTURES.values()
                         for src in (fx.source, fx.patched_source) if src is not None],
    "progen": lambda: [generate(seed).source for seed in range(600)],
    "random": random_sources,
}


def outcome(source: str) -> tuple:
    try:
        res = assemble(source)
        return True, res.image.to_bytes(), sorted(res.symbols.items())
    except AsmError as exc:
        return False, type(exc).__name__, str(exc)


def summary(sources: list[str]) -> dict:
    digest, assembled = hashlib.sha256(), 0
    for source in sources:
        result = outcome(source)
        assembled += result[0]
        digest.update(repr(result).encode() + b"\n")
    return {"sources": len(sources), "assembled": assembled,
            "sha256": digest.hexdigest()}


@pytest.mark.parametrize("corpus", CORPORA)
def test_assembler_outcomes_match_the_pin(corpus):
    assert summary(CORPORA[corpus]()) == json.loads(PINS_PATH.read_text())[corpus]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(
        {name: summary(make()) for name, make in CORPORA.items()}, indent=1) + "\n")

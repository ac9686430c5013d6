"""Two-pass assembler and disassembler for the TinyMCU ISA.

Grammar, one statement per line::

    [label:] MNEMONIC [operands]   [; comment]
    [label:] .org ADDRESS
    [label:] .word VALUE[, VALUE...]

The operands of each instruction follow its form in ``isa.SYNTAX``: ``rN``
registers, ``SP`` (readable via MOV), ``#expr`` immediates, ``&expr``
absolute addresses, ``@rN`` register-indirect, ``expr(rN)`` indexed, and
bare expressions for jump/call targets.  Mnemonics, the ``r`` of a register
and ``SP`` may be written in any case, and blanks around ``,``, ``#``,
``&``, ``@``, ``(`` and ``)`` are optional.  An expression is a number (any
Python int literal base) or a label optionally followed by ``+n``/``-n``.
Label resolution is two-pass, so forward references work.

The disassembler lists a word that is not a canonical instruction, and a
trailing half-word, as ``.word`` data, so every listing re-assembles to the
bytes it came from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .isa import (INSTR_SIZE, SP_REG, SYNTAX, WORD, DecodeError, Op, decode_word,
                  format_instr, pack)
from .mcu import ProgramImage, Segment


class AsmError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class AsmResult:
    image: ProgramImage
    symbols: dict[str, int] = field(default_factory=dict)


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):")
_EXPR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*([+-]\s*\d+)?$")

# One operand regex per SYNTAX form: its letters become the patterns below
# (an immediate is any comma-free expression text), its other characters
# match literally, and blanks may stand between any two of them.
_LETTERS = {"d": r"[rR](?P<d>[0-7])", "s": r"[rR](?P<s>[0-7])",
            "S": r"(?:[rR](?P<s>[0-7])|(?P<sp>(?i:sp)))", "i": r"(?P<i>[^,]+?)"}
_FORMS: dict[str, list[tuple[Op, int, re.Pattern]]] = {}
for (_op, _mode), _form in SYNTAX.items():
    _regex = r"\s*".join(_LETTERS.get(c) or re.escape(c) for c in _form.replace(" ", ""))
    _FORMS.setdefault(_op.name, []).append((_op, _mode, re.compile(_regex)))


class _Pass:
    """Shared two-pass machinery: pass 1 sizes statements and collects
    labels, pass 2 encodes with everything resolvable."""

    def __init__(self, source: str):
        self.lines = source.splitlines()
        self.symbols: dict[str, int] = {}

    def _expr(self, text: str, line_no: int) -> int:
        text = text.strip()
        try:
            return int(text, 0)
        except ValueError:
            pass
        m = _EXPR_RE.match(text)
        if not m:
            raise AsmError(line_no, f"bad expression {text!r}")
        name, off = m.group(1), m.group(2)
        if name not in self.symbols:
            raise AsmError(line_no, f"undefined label {name!r}")
        return self.symbols[name] + (int("".join(off.split())) if off else 0)

    def _check16(self, value: int, line_no: int) -> int:
        if not 0 <= value <= 0xFFFF:
            raise AsmError(line_no, f"value {value:#x} outside 16-bit range")
        return value

    def run(self, collect: bool) -> list[Segment]:
        loc: int | None = None
        segments: list[Segment] = []
        cur_base, cur = None, bytearray()

        def flush():
            nonlocal cur_base, cur
            if cur_base is not None and cur:
                segments.append(Segment(cur_base, bytes(cur)))
            cur_base, cur = None, bytearray()

        for idx, raw in enumerate(self.lines, 1):
            stmt = raw.split(";", 1)[0].strip()
            m = _LABEL_RE.match(stmt)
            if m:
                label = m.group(1)
                stmt = stmt[m.end():].strip()
                if loc is None:
                    raise AsmError(idx, "label before any .org")
                if collect:
                    if label in self.symbols:
                        raise AsmError(idx, f"duplicate label {label!r}")
                    self.symbols[label] = loc
            if not stmt:
                continue

            parts = stmt.split(None, 1) + [""]
            mnem, rest = parts[0].upper(), parts[1]

            if mnem == ".ORG":
                flush()
                try:
                    loc = self._check16(int(rest.strip(), 0), idx)
                except ValueError:
                    raise AsmError(idx, ".org needs a numeric address") from None
                cur_base = loc
                continue
            if loc is None:
                raise AsmError(idx, "code before any .org")

            if mnem == ".WORD":
                for item in rest.split(","):
                    value = 0 if collect else self._check16(self._expr(item, idx), idx)
                    cur += value.to_bytes(2, "little")
                    loc += 2
                continue

            if mnem not in _FORMS:
                raise AsmError(idx, f"unknown mnemonic {mnem!r}")
            # pass 1 only needs the width; every instruction is 4 bytes
            cur += bytes(INSTR_SIZE) if collect else self._encode(mnem, rest, idx)
            loc += INSTR_SIZE
        flush()
        return segments

    def _encode(self, mnem: str, rest: str, line_no: int) -> bytes:
        for op, mode, regex in _FORMS[mnem]:
            m = regex.fullmatch(rest)
            if m:
                g = m.groupdict()
                i = g.get("i")
                imm = 0 if i is None else self._check16(self._expr(i, line_no), line_no)
                rs = SP_REG if g.get("sp") else int(g.get("s") or 0)
                return pack(op, mode, int(g.get("d") or 0), rs, imm)
        raise AsmError(line_no, f"bad operands for {mnem}: {rest!r}")


def assemble(source: str, entry: int = 0x8000) -> AsmResult:
    """Assemble ``source`` into an image whose boot entry is ``entry``."""
    passes = _Pass(source)
    passes.run(collect=True)
    segments = passes.run(collect=False)
    return AsmResult(ProgramImage(entry, tuple(segments)), passes.symbols)


def disassemble(data: bytes, base: int) -> list[tuple[int, str]]:
    """Canonical listing of a blob starting at address ``base``, one line per
    4-byte word: ``.word`` data where the word is not an instruction in its
    canonical encoding (every field its form does not print is zero) or is a
    trailing half-word."""
    out = []
    for off in range(0, len(data), INSTR_SIZE):
        raw = data[off:off + INSTR_SIZE]
        try:
            if len(raw) < INSTR_SIZE:
                raise DecodeError("truncated instruction")
            ins = decode_word(WORD.unpack(raw)[0])
            form = SYNTAX[ins.op, ins.mode]
            if (ins.rd and "d" not in form) or (ins.rs and "s" not in form.lower()) \
                    or (ins.imm and "i" not in form):
                raise DecodeError("non-canonical encoding")
            text = format_instr(ins)
        except DecodeError:
            text = ".word " + ", ".join(f"{int.from_bytes(raw[k:k + 2], 'little'):#06x}"
                                        for k in range(0, len(raw), 2))
        out.append((base + off, text))
    return out


def disassemble_image(image: ProgramImage) -> list[tuple[int, str]]:
    out = []
    for seg in image.segments:
        out.extend(disassemble(seg.data, seg.base))
    return out

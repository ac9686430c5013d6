"""Assembler and disassembler for the TinyMCU ISA.

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
Each line is tokenised once; a first pass over the statements places them
and collects the labels, and a second encodes them, so forward references
work.

The disassembler lists a word that is not a canonical instruction, and a
trailing half-word, as ``.word`` data, so every listing re-assembles to the
bytes it came from.
"""

from __future__ import annotations

import re
import string
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
# An expression starting with one of these is a label, never a number.
_NAME_START = frozenset(string.ascii_letters + "_")

# One operand regex per SYNTAX form: its letters become the patterns below
# (an immediate is any comma-free expression text), its other characters
# match literally, and blanks may stand between any two of them.  With each
# regex go the numbers of its d, s, sp and i groups, 0 for one it lacks, so
# that ``(None, *m.groups())[n]`` reads any of them from one tuple.
_LETTERS = {"d": r"[rR](?P<d>[0-7])", "s": r"[rR](?P<s>[0-7])",
            "S": r"(?:[rR](?P<s>[0-7])|(?P<sp>(?i:sp)))", "i": r"(?P<i>[^,]+?)"}
_FORMS: dict[str, list[tuple[Op, int, re.Pattern, tuple[int, int, int, int]]]] = {}
for (_op, _mode), _form in SYNTAX.items():
    _regex = re.compile(r"\s*".join(_LETTERS.get(c) or re.escape(c)
                                    for c in _form.replace(" ", "")))
    _groups = tuple(_regex.groupindex.get(name, 0) for name in ("d", "s", "sp", "i"))
    _FORMS.setdefault(_op.name, []).append((_op, _mode, _regex, _groups))
# A register group's text -> its number; None (no such register) -> 0.
_REG = {None: 0, **{str(n): n for n in range(8)}}


class _Pass:
    """One assembly of one source.  ``__init__`` tokenises each line once
    into a ``(line, label, MNEMONIC, operands)`` statement, dropping blank
    and comment-only lines.  Pass 1, :meth:`layout`, places the statements
    and collects the labels; pass 2, :meth:`emit`, encodes the placed
    statements into segments with every label known.  So every pass-1 error
    (label or code before any ``.org``, a bad ``.org``, a duplicate label,
    an unknown mnemonic) wins over every pass-2 error (bad operands or
    expression, an undefined label, a value outside 16 bits), and within a
    pass the first line wins."""

    def __init__(self, source: str):
        self.symbols: dict[str, int] = {}
        self.statements: list[tuple[int, str | None, str, str]] = []
        for line_no, raw in enumerate(source.splitlines(), 1):
            text = raw.split(";", 1)[0].strip()
            label = None
            m = ":" in text and _LABEL_RE.match(text)
            if m:
                label = m.group(1)
                text = text[m.end():].strip()
            if text:
                parts = text.split(None, 1) + [""]
                self.statements.append((line_no, label, parts[0].upper(), parts[1]))
            elif label:
                self.statements.append((line_no, label, "", ""))

    def layout(self) -> list[tuple[int, str, object]]:
        """Pass 1: the ``(line, MNEMONIC, argument)`` of each placed
        statement, where a ``.org`` carries its address, a ``.word`` its
        items and an instruction its operand text."""
        symbols = self.symbols
        loc: int | None = None
        placed: list[tuple[int, str, object]] = []
        for line_no, label, mnem, rest in self.statements:
            if label is not None:
                if loc is None:
                    raise AsmError(line_no, "label before any .org")
                if label in symbols:
                    raise AsmError(line_no, f"duplicate label {label!r}")
                symbols[label] = loc
            if mnem == ".ORG":
                try:
                    loc = int(rest, 0)
                    if not 0 <= loc <= 0xFFFF:
                        raise ValueError
                except ValueError:
                    raise AsmError(line_no, ".org needs a numeric address") from None
                placed.append((line_no, mnem, loc))
            elif not mnem:
                continue
            elif loc is None:
                raise AsmError(line_no, "code before any .org")
            elif mnem == ".WORD":
                items = rest.split(",")
                loc += 2 * len(items)
                placed.append((line_no, mnem, items))
            elif mnem in _FORMS:
                loc += INSTR_SIZE
                placed.append((line_no, mnem, rest))
            else:
                raise AsmError(line_no, f"unknown mnemonic {mnem!r}")
        return placed

    def emit(self, placed: list[tuple[int, str, object]]) -> list[Segment]:
        """Pass 2: the segments of the placed statements, one per ``.org``
        that is followed by code or data."""
        segments: list[Segment] = []
        base, cur = None, bytearray()
        for line_no, mnem, arg in placed:
            if mnem == ".ORG":
                if cur:
                    segments.append(Segment(base, bytes(cur)))
                base, cur = arg, bytearray()
            elif mnem == ".WORD":
                for item in arg:
                    cur += self._value(item, line_no).to_bytes(2, "little")
            else:
                cur += self._encode(mnem, arg, line_no)
        if cur:
            segments.append(Segment(base, bytes(cur)))
        return segments

    def _value(self, text: str, line_no: int) -> int:
        """The 16-bit value of the expression ``text``: a label is a lookup,
        and only text that cannot be a label is tried as a number."""
        text = text.strip()
        symbols = self.symbols
        value = symbols[text] if text in symbols else None
        if value is None and text[:1] not in _NAME_START:
            try:
                value = int(text, 0)
            except ValueError:
                pass
        if value is None:
            m = _EXPR_RE.match(text)
            if not m:
                raise AsmError(line_no, f"bad expression {text!r}")
            name, off = m.groups()
            if name not in symbols:
                raise AsmError(line_no, f"undefined label {name!r}")
            value = symbols[name] + (int("".join(off.split())) if off else 0)
        if not 0 <= value <= 0xFFFF:
            raise AsmError(line_no, f"value {value:#x} outside 16-bit range")
        return value

    def _encode(self, mnem: str, rest: str, line_no: int) -> bytes:
        for op, mode, regex, (d, s, sp, i) in _FORMS[mnem]:
            m = regex.fullmatch(rest)
            if m:
                g = (None, *m.groups())
                imm = 0 if g[i] is None else self._value(g[i], line_no)
                rs = SP_REG if g[sp] else _REG[g[s]]
                return pack(op, mode, _REG[g[d]], rs, imm)
        raise AsmError(line_no, f"bad operands for {mnem}: {rest!r}")


def assemble(source: str, entry: int = 0x8000) -> AsmResult:
    """Assemble ``source`` into an image whose boot entry is ``entry``."""
    asm = _Pass(source)
    segments = asm.emit(asm.layout())
    return AsmResult(ProgramImage(entry, tuple(segments)), asm.symbols)


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

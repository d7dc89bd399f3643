"""Core types for p^n-periodic binary sequences.

A sequence is represented by one period, packed into a Python int: bit i of
``value`` is s_i, so the leftmost character of the text form "110..." is bit 0.
Periods up to 2^20 are supported. p is either 2 or an odd prime for which 2 is
a primitive root modulo p^2; that condition makes x^(p^n) - 1 factor over
GF(2) in the shape the structure theory relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    InvalidCharacter,
    LengthMismatch,
    ModulusMismatch,
    NotPrime,
    NotPrimitiveRoot,
    PeriodTooLarge,
    ZeroSequence,
)

PERIOD_CAP = 1 << 20
# a str.translate table that deletes "0" and "1"; translating never encodes,
# so a lone surrogate from a non-UTF-8 argv byte is checked like any character
_DELETE_01 = str.maketrans("", "", "01")
# bytes.translate tables between the digits of format(x, "b") and bit bytes
_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def _row_mask(entries: Iterable[int]) -> int | None:
    """The entries packed into an int, bit t being entry t (``_bits`` unpacks
    it); None unless every entry is an integer (an int, a bool or another
    ``__index__`` integer) equal to 0 or 1."""
    try:
        # bytes of an iterator reads each entry by __index__, never a buffer
        row = bytes(iter(entries))
    except (TypeError, ValueError):  # an entry that is no integer, or outside 0..255
        return None
    if row.translate(None, b"\x00\x01"):
        return None
    return int(row[::-1].translate(_TO_DIGIT) or b"0", 2)


def _bits(mask: int, length: int) -> tuple[int, ...]:
    return tuple(format(mask, f"0{length}b")[::-1].encode().translate(_TO_BIT))


def _prime_factors(x: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= x:
        while x % d == 0:
            out.add(d)
            x //= d
        d += 1
    if x > 1:
        out.add(x)
    return out


def _two_is_primitive_root_mod_p2(p: int) -> bool:
    # ord(2 mod p^2) = p(p-1) iff 2^(p(p-1)/r) != 1 mod p^2 for every prime r | p(p-1);
    # p is prime here, so only p - 1 is factored
    order = p * (p - 1)
    mod = p * p
    return all(pow(2, order // r, mod) != 1 for r in {p} | _prime_factors(p - 1))


@dataclass(frozen=True)
class Modulus:
    """Validated (p, n) pair; the period is p^n.

    ``period`` is stored when the pair is validated.  It is no dataclass
    field, so equality, hash and repr read only p and n.
    """

    p: int
    n: int

    def __post_init__(self) -> None:
        p, n = self.p, self.n
        if type(p) is not int or type(n) is not int or n < 1:
            raise NotPrime(f"need integer p >= 2 and n >= 1, got p={p!r} n={n!r}")
        too_large = PeriodTooLarge(f"p^n = {p}^{n} exceeds {PERIOD_CAP}")
        # no valid modulus has p above the cap, so such a p is never factored
        if p > PERIOD_CAP:
            raise too_large
        if _prime_factors(p) != {p}:
            raise NotPrime(f"p={p} is not prime")
        if p != 2 and not _two_is_primitive_root_mod_p2(p):
            raise NotPrimitiveRoot(f"2 is not a primitive root mod {p}^2")
        # every p >= 2 passes the cap at n >= 21, so a huge n's power is never built
        if n >= PERIOD_CAP.bit_length() or p**n > PERIOD_CAP:
            raise too_large
        # not through self.__dict__: under Python 3.11 that would make p, n
        # and period, which every sequence reads, about twice as slow to read
        object.__setattr__(self, "period", p**n)

    def __str__(self) -> str:
        return f"{self.p}^{self.n}"


def _require_modulus(modulus) -> None:
    """Refuse a modulus that is not a Modulus, naming it (and, raised while
    another error is handled, hiding that error)."""
    if not isinstance(modulus, Modulus):
        raise ModulusMismatch(f"modulus must be a Modulus; got {modulus!r}") from None


@dataclass(frozen=True, init=False, slots=True)
class PeriodicSequence:
    """One period of a binary sequence, packed LSB-first into ``value``.

    The sweeps build one per checked value and read its fields on every
    check, so both fields live in slots, and ``__init__`` validates and
    writes them through the slot descriptors' setters, past the frozen
    ``__setattr__``.  A Modulus costs one exact type test; anything else,
    an object with a ``period`` included, goes on to ``_require_modulus``.
    Assignment and deletion still raise FrozenInstanceError; a sequence
    has no instance dict, so no ``vars()`` and no weak references.
    """

    modulus: Modulus
    value: int

    def __init__(self, modulus: Modulus, value: int) -> None:
        if type(modulus) is not Modulus:
            _require_modulus(modulus)
        if type(value) is not int or value < 0 or value.bit_length() > modulus.period:
            if type(value) is not int:
                raise LengthMismatch(f"packed value must be an int; got {value!r}")
            raise LengthMismatch(
                f"packed value needs {modulus.period} bits, got {value.bit_length()}"
            )
        _set_modulus(self, modulus)
        _set_value(self, value)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, modulus: Modulus) -> "PeriodicSequence":
        """Parse a 0/1 literal; whitespace is ignored."""
        _require_modulus(modulus)
        digits = text
        # what is left once 0 and 1 are deleted must be whitespace: int(..., 2)
        # alone would also accept "_" separators and non-ASCII digits
        rest = text.translate(_DELETE_01)
        if rest:
            if not rest.isspace():
                for pos, ch in enumerate(text):
                    if not ch.isspace() and ch not in "01":
                        raise InvalidCharacter(f"invalid character {ch!r} at offset {pos}")
            digits = "".join(text.split())
        if len(digits) != modulus.period:
            raise LengthMismatch(f"expected {modulus.period} digits, got {len(digits)}")
        return cls(modulus, int(digits[::-1], 2))

    @classmethod
    def from_bits(cls, bits: Iterable[int], modulus: Modulus) -> "PeriodicSequence":
        _require_modulus(modulus)
        bits = list(bits)
        value = _row_mask(bits)
        if value is None:
            idx, b = next((i, b) for i, b in enumerate(bits) if _row_mask((b,)) is None)
            raise InvalidCharacter(f"bit at index {idx} is {b!r}, not 0/1")
        if len(bits) != modulus.period:
            raise LengthMismatch(f"expected {modulus.period} bits, got {len(bits)}")
        return cls(modulus, value)

    @classmethod
    def zeros(cls, modulus: Modulus) -> "PeriodicSequence":
        return cls(modulus, 0)

    # -- views ----------------------------------------------------------------

    def bit(self, i: int) -> int:
        """Bit i of the sequence, i read modulo the period; i must be an int."""
        if type(i) is not int:
            raise LengthMismatch(f"index must be an int; got {i!r}")
        return (self.value >> (i % self.modulus.period)) & 1

    @property
    def bits(self) -> tuple[int, ...]:
        return _bits(self.value, self.modulus.period)

    def to01(self) -> str:
        return format(self.value, f"0{self.modulus.period}b")[::-1]

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __len__(self) -> int:
        return self.modulus.period

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __xor__(self, other: "PeriodicSequence") -> "PeriodicSequence":
        if not isinstance(other, PeriodicSequence):
            return NotImplemented
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"{self.modulus} vs {other.modulus}")
        return PeriodicSequence(self.modulus, self.value ^ other.value)

    def __repr__(self) -> str:
        text = self.to01()
        if len(text) > 32:
            text = text[:29] + "..."
        return f"PeriodicSequence({self.modulus}, {text})"


# slots=True makes the decorator return a new class, so the slot setters
# are taken from the class it returned
_set_modulus = PeriodicSequence.__dict__["modulus"].__set__
_set_value = PeriodicSequence.__dict__["value"].__set__


# -- module-level operations -------------------------------------------------

def parse_sequence(text: str, modulus: Modulus) -> PeriodicSequence:
    """Parse a one-period 0/1 literal (whitespace ignored)."""
    return PeriodicSequence.from_text(text, modulus)


def parse_corpus(lines: Iterable[str], modulus: Modulus) -> list[tuple[int, PeriodicSequence]]:
    """Parse a corpus: one literal per line, '#' lines and blanks skipped.

    Returns (line_number, sequence) pairs; parse errors are re-raised with the
    offending line number prefixed.
    """
    _require_modulus(modulus)
    out: list[tuple[int, PeriodicSequence]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append((lineno, PeriodicSequence.from_text(line, modulus)))
        except (LengthMismatch, InvalidCharacter) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return out


def require_nonzero(s: PeriodicSequence) -> None:
    """Raise ZeroSequence unless s has at least one 1."""
    if s.value == 0:
        raise ZeroSequence("sequence is identically zero")

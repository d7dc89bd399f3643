"""Core types for p^n-periodic binary sequences.

A sequence is represented by one period, packed into a Python int: bit i of
``value`` is s_i, so the leftmost character of the text form "110..." is bit 0.
Periods up to 2^20 are supported. p is either 2 or an odd prime for which 2 is
a primitive root modulo p^2; that condition makes x^(p^n) - 1 factor over
GF(2) in the shape the structure theory relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    EqualPositions,
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
# a bytes.translate table from the digits of format(x, "b") to bit bytes
_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
# frozen dataclasses set their fields past their own __setattr__
_set_field = object.__setattr__


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
    """Validated (p, n) pair; the period is p^n."""

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

    @cached_property
    def period(self) -> int:
        return self.p**self.n

    def __str__(self) -> str:
        return f"{self.p}^{self.n}"


def validate_modulus(p: int, n: int) -> Modulus:
    """Return a validated Modulus or raise NotPrime/NotPrimitiveRoot/PeriodTooLarge."""
    return Modulus(p, n)


@dataclass(frozen=True, init=False)
class PeriodicSequence:
    """One period of a binary sequence, packed LSB-first into ``value``.

    The sweeps build one per checked value, so ``__init__`` validates and
    sets both fields itself, without the generated ``__init__``'s
    ``__post_init__`` frame.  Assignment still raises FrozenInstanceError.
    """

    modulus: Modulus
    value: int

    def __init__(self, modulus: Modulus, value: int) -> None:
        if value < 0 or value.bit_length() > modulus.period:
            raise LengthMismatch(
                f"packed value needs {modulus.period} bits, got {value.bit_length()}"
            )
        _set_field(self, "modulus", modulus)
        _set_field(self, "value", value)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, modulus: Modulus) -> "PeriodicSequence":
        """Parse a 0/1 literal; whitespace is ignored."""
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
        bits = list(bits)
        for idx, b in enumerate(bits):
            if b not in (0, 1):
                raise InvalidCharacter(f"bit at index {idx} is {b!r}, not 0/1")
        if len(bits) != modulus.period:
            raise LengthMismatch(f"expected {modulus.period} bits, got {len(bits)}")
        return cls(modulus, int("".join("1" if b else "0" for b in reversed(bits)), 2))

    @classmethod
    def zeros(cls, modulus: Modulus) -> "PeriodicSequence":
        return cls(modulus, 0)

    # -- views ----------------------------------------------------------------

    def bit(self, i: int) -> int:
        return (self.value >> (i % self.modulus.period)) & 1

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, self.to01()))

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
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"{self.modulus} vs {other.modulus}")
        return PeriodicSequence(self.modulus, self.value ^ other.value)

    def __repr__(self) -> str:
        text = self.to01()
        if len(text) > 32:
            text = text[:29] + "..."
        return f"PeriodicSequence({self.modulus}, {text})"


# -- module-level operations -------------------------------------------------

def parse_sequence(text: str, modulus: Modulus) -> PeriodicSequence:
    """Parse a one-period 0/1 literal (whitespace ignored)."""
    return PeriodicSequence.from_text(text, modulus)


def hamming_weight(s: PeriodicSequence) -> int:
    """Number of ones in one period."""
    return s.weight


def xor_sequences(a: PeriodicSequence, b: PeriodicSequence) -> PeriodicSequence:
    """Bitwise GF(2) sum of two sequences over the same modulus."""
    return a ^ b


def pn_distance(i: int, j: int, modulus: Modulus) -> int:
    """p-adic distance between positions: p^(v_p(|j - i|)).

    Accepts the positions in either order; i == j raises EqualPositions.
    """
    N = modulus.period
    if not (0 <= i < N and 0 <= j < N):
        raise LengthMismatch(f"positions must lie in [0, {N}), got {i}, {j}")
    if i == j:
        raise EqualPositions(f"positions are both {i}")
    d = abs(j - i)
    p = modulus.p
    power = 1
    while d % p == 0:
        d //= p
        power *= p
    return power


def parse_corpus(lines: Iterable[str], modulus: Modulus) -> list[tuple[int, PeriodicSequence]]:
    """Parse a corpus: one literal per line, '#' lines and blanks skipped.

    Returns (line_number, sequence) pairs; parse errors are re-raised with the
    offending line number prefixed.
    """
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

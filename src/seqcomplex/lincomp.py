"""Exact linear complexity of p^n-periodic binary sequences.

One descent computes it for every supported p: the p-way divide-and-sum of
Xiao, Wei, Lam and Imamura, which at p = 2 is the Games-Chan halving.  At
each depth the current vector splits into p equal-length parts; equal parts
are kept once, otherwise their XOR is kept and (p-1) * p^(n-depth) is added.
A nonzero final scalar adds 1.  At the last depth the parts are single bits,
so their XOR is the parity of the vector's weight.  That step is written
once, in ``_steps``, and every odd-p complexity walks it: ``_lc_value``
(behind ``lc``), ``xwli_lc`` and ``hypercube._descend``.  At p = 2
``_lc_value`` halves instead, the value-only special case of the step: it
keeps the low half or the two halves' XOR down to 8 bits and reads the rest
from a table, and up to period 2^12 returns 2^n at once for an odd-weight
vector, as x + 1 then does not divide s(x).
``berlekamp_massey_lc`` - classic LFSR synthesis over GF(2), fed two periods
- is the independent oracle they are checked against; it skips each run of
zero-discrepancy steps in one shift, as those steps change nothing but the
index.  The verify sweep runs the same Massey steps bit-sliced across every
block of sequences, whatever its width (``_bm_values``): each sequence is
one bit lane of a few Python ints, so one big-int operation does a step's
work for the whole block, and the complexities are ``bitslice`` numbers.
The block's sequence planes are cut from one binary string, formatted once
from every value packed as a field of 1, 2, 4 or 8 bytes by one
``struct.pack`` (fields of whole bytes joined by ``int.to_bytes`` above 64
bits).

Every attainable complexity has a unique canonical form
``L = eps + (p-1) * sum(p^(v-1) for v in V)`` with ``eps`` in {0, 1} and
``V`` a subset of {1..n}; ``LCForm`` captures it.  (For p = 2 the form is not
unique; the greedy largest-exponent-first choice is used.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import repeat
from operator import and_, attrgetter, xor
from struct import pack
from typing import Iterator, NamedTuple

from .errors import EvenP, NotRepresentable, OddP
from .sequences import PERIOD_CAP, Modulus, PeriodicSequence, _require_modulus

__all__ = [
    "LCForm",
    "XwliStep",
    "XwliTrace",
    "berlekamp_massey_lc",
    "games_chan_lc",
    "lc",
    "lc_form_decompose",
    "xwli_lc",
]


@dataclass(frozen=True, init=False)
class LCForm:
    """Canonical complexity form: value = epsilon + (p-1) * sum p^(v-1), v in V.

    The sum is taken once, when the form is built, and kept as ``_value``.
    It is no dataclass field, so equality, hash and repr read only p,
    epsilon and exponents.  (A ``cached_property`` would take a lock on its
    first read under Python 3.11, which costs more than the sum it saves.)
    ``xwli_lc`` builds one per sequence, so ``__init__`` writes the fields
    and ``_value`` straight into the instance dict, past the frozen
    ``__setattr__``.  Assignment still raises FrozenInstanceError.
    """

    p: int
    epsilon: int
    exponents: frozenset[int]

    def __init__(self, p: int, epsilon: int, exponents: frozenset[int]) -> None:
        fields = self.__dict__
        fields["p"] = p
        fields["epsilon"] = epsilon
        fields["exponents"] = exponents
        # every exponent is at least 1, so the sum of p^v is p times that of p^(v-1)
        fields["_value"] = epsilon + (p - 1) * (sum(map(p.__pow__, exponents)) // p)

    @property
    def value(self) -> int:
        return self._value

    def __str__(self) -> str:
        vs = ",".join(str(v) for v in sorted(self.exponents))
        return f"{self.value} = {self.epsilon} + ({self.p}-1)*[{vs}]"


def lc_form_decompose(L: int, modulus: Modulus) -> LCForm:
    """Decompose an attainable complexity value into its canonical form.

    Greedy from the largest exponent down; raises NotRepresentable when L is
    not an int or no (epsilon, V) reproduces L for this modulus.
    """
    _require_modulus(modulus)
    p, n = modulus.p, modulus.n
    if type(L) is not int:
        raise NotRepresentable(f"L must be an int; got {L!r}")
    if not 0 <= L <= modulus.period:
        raise NotRepresentable(f"L={L} outside [0, {modulus.period}]")
    rem = L
    exps = set()
    for v in range(n, 0, -1):
        term = (p - 1) * p ** (v - 1)
        if rem >= term:
            rem -= term
            exps.add(v)
    if rem not in (0, 1):
        raise NotRepresentable(f"L={L} is not attainable for modulus {modulus}")
    return LCForm(p, rem, frozenset(exps))


class XwliStep(NamedTuple):
    """One descent step: 'split' kept A_0 (all parts equal), 'sum' XORed them."""

    branch: str
    pre_weight: int
    post_weight: int
    increment: int


_INCREMENT = attrgetter("increment")


class XwliTrace(NamedTuple):
    steps: tuple[XwliStep, ...]
    final_one: bool

    @property
    def total(self) -> int:
        return sum(map(_INCREMENT, self.steps)) + int(self.final_one)


@cache
def _levels(p: int, n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(plen, mask, low_mask, increment) for each depth 1..n of the descent.

    At depth l the vector has p parts of plen = p^(n-l) bits; mask selects
    part 0, low_mask parts 0..p-2, and a sum step adds increment.
    """
    out = []
    for l in range(1, n + 1):
        plen = p ** (n - l)
        out.append((plen, (1 << plen) - 1, (1 << (p - 1) * plen) - 1, (p - 1) * plen))
    return tuple(out)


# Largest n at which _lc_value reads the weight's parity before halving at
# p = 2.  int.bit_count takes one software popcount per 30-bit digit: at
# 2^10 it cost 5-8 % of a halving descent, at 2^12 ~14 %, at 2^14 22-38 %,
# at 2^16 about as much as the descent, and at 2^20 59 against 41 us
# (timeit, 64 random values, 2-vCPU VM).  Up to this n an even weight pays
# at most ~14 % more and an odd one skips its whole descent; at 2^20 the
# parity alone costs more than the descent it would skip.  n <= 3 keeps the
# exit too: a 3 < n bound made a 2^4 call ~6 % slower on the same VM.
_PARITY_UP_TO_N = 12


# _TAILS[k]: the complexity of every 2^k-bit vector, k = 0..3, by the
# halving rule as a recurrence from the 1-bit table.  _P2[n]: the (plen,
# mask) of each halving _lc_value makes at period 2^n, down to 2^min(n, 3)
# bits (a tail of one tuple, so each mask is built once), and the table that
# finishes it (every n >= 3 shares 256 entries).
_TAILS = [[0, 1]]
for _h in (1, 2, 4):
    _t, _r = _TAILS[-1], range(1 << _h)
    _TAILS.append([_h + _t[hi ^ lo] if hi != lo else _t[lo] for hi in _r for lo in _r])
_CAP_N = PERIOD_CAP.bit_length() - 1
_HALVINGS = tuple((1 << j, (1 << (1 << j)) - 1) for j in range(_CAP_N - 1, 2, -1))
_P2 = [(_HALVINGS[_CAP_N - n :], _TAILS[min(n, 3)]) for n in range(_CAP_N + 1)]


def _lc_value(a: int, p: int, n: int) -> int:
    """The complexity alone; the hot path for sweeps and brute force.

    At odd p it adds (p-1) * plen for each sum level of ``_steps``, then the
    final scalar.  At p = 2 the parts are the two halves, and each level
    keeps the low half or their XOR, down to the 2^min(n, 3) bits that
    ``_P2`` finishes in one read.  There x^(2^n) - 1 is (x + 1)^(2^n), so
    L = 2^n exactly when x + 1 does not divide s(x), that is when the weight
    of s is odd; up to n = _PARITY_UP_TO_N such an s returns before halving.
    """
    L = 0
    if p == 2:
        if n <= _PARITY_UP_TO_N and a.bit_count() & 1:
            return 1 << n
        levels, tail = _P2[n]
        for plen, mask in levels:
            hi = a >> plen
            lo = a & mask
            if hi != lo:
                a = hi ^ lo
                L += plen
            else:
                a = lo
        return L + tail[a]
    for plen, split, a in _steps(a, p, n):
        if not split:
            L += (p - 1) * plen
    return L + a


def _steps(a: int, p: int, n: int) -> Iterator[tuple[int, bool, int]]:
    """The descent of a: (plen, split, a) at each depth 1..n, a being the
    vector the depth leaves (part 0 at a split, the parts' XOR at a sum),
    past a zero sum too.  The parts are all equal exactly when the vector
    shifted down by one part equals its low p-1 parts.  A sum over one-bit
    parts, the last depth and at n = 1 the only one, folds the p bits by
    the parity of their weight, one popcount in place of p - 1 shifts and
    XORs.  This is the one split test and XOR fold of the descent; at p = 2
    ``_lc_value`` halves in its own loop, as one on this generator took
    about 2.4x as long per call at 2^4 and 2^5."""
    for plen, mask, low_mask, _ in _levels(p, n):
        hi = a >> plen
        split = hi == a & low_mask
        if split:
            a &= mask
        elif plen == 1:
            a = a.bit_count() & 1
        else:
            while hi:
                a ^= hi
                hi >>= plen
            a &= mask
        yield plen, split, a


def xwli_lc(s: PeriodicSequence) -> tuple[LCForm, XwliTrace]:
    """Divide-and-sum linear complexity for odd p, with a full step trace.

    Each 'sum' step at depth l contributes (p-1) * p^(n-l); a nonzero final
    scalar contributes 1.  The trace increments always sum to the result.
    """
    p, n = s.modulus.p, s.modulus.n
    if p == 2:
        raise EvenP("xwli_lc requires odd p; use games_chan_lc for p = 2")
    # the records skip the namedtuples' own __new__, Python code that only
    # hands its fields on to tuple.__new__
    new = tuple.__new__
    steps: list[XwliStep] = []
    exps = set()
    weight = s.value.bit_count()
    for plen, split, a in _steps(s.value, p, n):
        if not split:
            exps.add(n - len(steps))
        increment = 0 if split else (p - 1) * plen
        pre, weight = weight, a.bit_count()
        steps.append(new(XwliStep, ("split" if split else "sum", pre, weight, increment)))
    trace = new(XwliTrace, (tuple(steps), a == 1))
    form = LCForm(p, int(trace.final_one), frozenset(exps))
    assert trace.total == form.value
    return form, trace


def games_chan_lc(s: PeriodicSequence) -> int:
    """Games-Chan linear complexity for 2^n-periodic sequences."""
    if s.modulus.p != 2:
        raise OddP("games_chan_lc requires p = 2")
    return _lc_value(s.value, 2, s.modulus.n)


def _bm_value(stream: int, length: int) -> int:
    # Bit-packed Berlekamp-Massey: sb/sc hold S(x)*B(x) and S(x)*C(x)
    # implicitly, aligned so that bit 0 of sc is the discrepancy of step i;
    # only the connection polynomial degree is tracked.  A step with zero
    # discrepancy only advances i, so each turn jumps to the next set bit.
    sb = sc = stream
    deg = 0
    i = 0
    while sc:
        z = (sc & -sc).bit_length() - 1
        i += z
        if i >= length:
            break
        sc >>= z + 1
        if 2 * deg <= i:
            sb, sc = sc, sb
            deg = i + 1 - deg
        sc ^= sb
        i += 1
    return deg


def _bm_values(values: list[int], N: int) -> list[int]:
    """``_bm_value`` on two periods of each N-bit value, bit-sliced.

    Lane j of every plane belongs to values[j]: plane S[t] holds its bit
    t mod N, C[k] bit k of its connection polynomial, B[k] bit k of x^m * B
    (B pre-shifted by the steps m since it was set), and L, a ``bitslice``
    number, its complexity, so one big-int operation does a step's work for
    every lane.  dc and db bound the degrees of C and x^m * B over all lanes;
    no lane's C or x^m * B has degree above N where it is read, so N + 1
    planes hold them.

    The S planes come from one conversion at every N: each value becomes a
    field of whole bytes, the fields join into one int, that int is
    formatted in binary once, and plane t is one strided slice of the text.
    Up to N = 64 one ``struct.pack`` writes every field, widened to the 1,
    2, 4 or 8 bytes of its code; above that, where struct has no code, the
    fields are N's whole bytes joined from ``int.to_bytes``.
    """
    from .bitslice import above, read, subtract

    W = len(values)
    full = (1 << W) - 1
    # fields MSB first and values[0] last, so that lane j is values[j]; the
    # join packs 512 values at a time, as one join over all W would hold a
    # bytes object per value at once and raise the sweep's peak RSS; S
    # repeats the period so S[i - j] is direct
    lanes = values[::-1]
    for F, code in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")):
        if N <= F:
            packed = pack(f">{W}{code}", *lanes)
            break
    else:
        size = N + 7 >> 3
        F = 8 * size
        packed = b"".join(
            b"".join(map(int.to_bytes, lanes[k : k + 512], repeat(size), repeat("big")))
            for k in range(0, W, 512)
        )
    rows = format(int.from_bytes(packed, "big"), f"0{W * F}b")
    S = [int(rows[F - 1 - t :: F], 2) for t in range(N)] * 2
    C = [full] + [0] * N
    B = [0, full] + [0] * (N - 1)
    L = [0] * N.bit_length()
    dc, db = 0, 1
    for i in range(2 * N):
        d = reduce(xor, map(and_, C[1 : dc + 1], S[i - 1 :: -1]), S[i])
        swap = 0
        if d:
            swap = d & ~above(L, i >> 1, full)  # d = 1 and 2L <= i
            dc = max(dc, db)
            old = C[: min(dc, N - 1) + 1]
            C[1 : db + 1] = [c ^ (d & b) for c, b in zip(C[1 : db + 1], B[1 : db + 1])]
        if swap:
            # x^m * B becomes x * C_old and L becomes i + 1 - L on swap lanes
            B = [0, *[b ^ (swap & (b ^ c)) for b, c in zip(B, old)]]
            B += [0] * (N + 1 - len(B))
            db = min(dc + 1, N)
            subtract(L, i + 1, swap)
        else:
            B = [0, *B[:N]]
            db = min(db + 1, N)
    return read(L, W)


def berlekamp_massey_lc(s: PeriodicSequence) -> int:
    """LFSR synthesis over GF(2) on two periods of s."""
    N = s.modulus.period
    return _bm_value(s.value | (s.value << N), 2 * N)


def lc(s: PeriodicSequence) -> int:
    """Linear complexity via the divide-and-sum descent."""
    modulus = s.modulus
    return _lc_value(s.value, modulus.p, modulus.n)

"""Exact linear complexity of p^n-periodic binary sequences.

One descent computes it for every supported p: the p-way divide-and-sum of
Xiao, Wei, Lam and Imamura, which at p = 2 is the Games-Chan halving.  At
level e = n-1, ..., 0 the vector splits into p parts of p^e bits; equal
parts are kept once, otherwise their XOR is kept and (p-1) * p^e is added.
A nonzero final scalar adds 1.  At the last level the parts are single
bits, so their XOR is the parity of the vector's weight.  ``_levels`` holds
each level's geometry and ``_steps`` the step, giving each level's e and
increment (0 at a split); every odd-p complexity walks it: ``_lc_value``
(behind ``lc``), ``xwli_lc``, and ``hypercube``'s ``_descend``, ``_peel``
and ``is_hypercube``.  At odd p up to 11 the deepest levels, whose vectors
have at most 11 bits (two at p = 3, one at p = 5 and 11), are read from a
table of their records built once per p and depth, on first use
(``_PLANS``).  At 3^1, 3^2, 5^1 and 11^1 that table holds the whole
descent, and ``_steps`` returns its row with no generator; elsewhere it
returns a lazy walk (``_walk``).  At p = 2
``_lc_value`` halves instead, the value-only special case of the step: it
keeps the low half or the two halves' XOR down to 8 bits and reads the rest
from a table, and up to period 2^12 returns 2^n at once for an odd-weight
vector, as x + 1 then does not divide s(x).
``berlekamp_massey_lc`` - classic LFSR synthesis over GF(2), fed two periods
- is the independent oracle they are checked against; it skips each run of
zero-discrepancy steps in one shift, as those steps change nothing but the
index.  The verify sweep runs the same Massey steps bit-sliced across many
sequences at once (``_bm_planes``): each sequence is one bit lane of a few
Python ints, so one big-int operation does a step's work for every lane,
and the complexities are ``bitslice`` numbers.  The steps take the
sequences' planes from one of two sources.  A whole universe is
``bitslice.identity``, lane v holding sequence v.  A block of given values
(``_bm_values``) is cut from one binary string, formatted once from every
value packed as a field of 1, 2, 4 or 8 bytes by one ``struct.pack``
(fields of whole bytes joined by ``int.to_bytes`` above 64 bits).

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
from typing import Iterable, Iterator, NamedTuple

from .errors import EvenP, NotRepresentable
from .sequences import PERIOD_CAP, Modulus, PeriodicSequence, _require_modulus

__all__ = [
    "LCForm",
    "XwliStep",
    "XwliTrace",
    "berlekamp_massey_lc",
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
def _levels(p: int, n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """(e, plen, mask, low_mask, increment) for each level e = n-1, ..., 0
    of the descent: p parts of plen = p^e bits, mask selecting part 0 and
    low_mask parts 0..p-2; a sum there adds increment = (p-1) * plen, the
    term of v = e + 1 in the canonical form."""
    out = []
    for e in range(n - 1, -1, -1):
        plen = p**e
        out.append((e, plen, (1 << plen) - 1, (1 << (p - 1) * plen) - 1, (p - 1) * plen))
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

    At odd p it adds the increment of each level of ``_steps`` (0 at a
    split), then the final scalar.  At p = 2 the parts are the two halves,
    and each level keeps the low half or their XOR, down to the 2^min(n, 3)
    bits that ``_P2`` finishes in one read.  There x^(2^n) - 1 is
    (x + 1)^(2^n), so L = 2^n exactly when x + 1 does not divide s(x), that
    is when the weight of s is odd; up to n = _PARITY_UP_TO_N such an s
    returns before halving.
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
    for _, increment, a in _steps(a, p, n):
        L += increment
    return L + a


def _steps(a: int, p: int, n: int) -> Iterable[tuple[int, int, int]]:
    """The descent of a: (e, increment, a) at each level of ``_levels``, a
    being the vector the level leaves (part 0 at a split, the parts' XOR at
    a sum), past a zero sum too; increment is 0 at a split.

    Its plan, ``_PLANS[p, n]``, names the levels to walk and a table of the
    records of the levels below them.  When the plan walks no level (3^1,
    3^2, 5^1 and 11^1) the whole descent is one row of the table, and
    ``_steps`` returns that row, the table's own tuple, with no generator.
    Otherwise it returns the lazy walk of ``_walk``, so a caller that stops
    early (``is_hypercube``) walks no further.  At p = 2 ``_lc_value``
    halves in its own loop, as one on this walk took about 2.4x as long per
    call at 2^4 and 2^5.
    """
    try:
        levels, tail = _PLANS[p, n]
    except KeyError:
        levels, tail = _plan(p, n)
    if levels:
        return _walk(a, levels, tail)
    return tail[a]


def _walk(a: int, levels: tuple, tail: tuple | None) -> Iterator[tuple[int, int, int]]:
    """Yield the records of ``_steps`` over the given levels, then those of
    the levels below them from the table, read at the vector the walk left;
    ``_tail`` builds each table with this loop.  The parts are all equal
    exactly when the vector shifted down by one part equals its low p-1
    parts.  A sum over one-bit parts folds the p bits by the parity of
    their weight, one popcount in place of p - 1 shifts and XORs.  This is
    the one split test and XOR fold of the descent.  The table is read
    here, not in a generator this one delegates to, as a ``yield from`` per
    level gave back most of its gain."""
    for e, plen, mask, low_mask, increment in levels:
        hi = a >> plen
        if hi == a & low_mask:
            a &= mask
            increment = 0
        elif plen == 1:
            a = a.bit_count() & 1
        else:
            while hi:
                a ^= hi
                hi >>= plen
            a &= mask
        yield e, increment, a
    if tail:
        for record in tail[a]:
            yield record


# A table finishes an odd-p descent: the deepest t levels whose vectors have
# at most this many bits (t = 2 at p = 3 and 1 at p = 5 and 11; none from
# p = 13 on, whose table would hold 8192 rows).
_TAIL_BITS = 11

# _PLANS[p, n] = (levels, tail): the _levels rows that _steps walks (none
# when the table holds the whole descent), and the table of the records of
# the t levels below them, one row per vector of p^t bits (None without one).
_PLANS: dict[tuple[int, int], tuple[tuple, tuple | None]] = {}


def _plan(p: int, n: int) -> tuple[tuple, tuple | None]:
    """Build and keep ``_PLANS[p, n]``."""
    levels, t = _levels(p, n), 0
    while p != 2 and t < n and p ** (t + 1) <= _TAIL_BITS:
        t += 1
    plan = _PLANS[p, n] = (levels[: n - t], _tail(p, t)) if t else (levels, None)
    return plan


@cache
def _tail(p: int, t: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The records of the last t levels of every vector of p^t bits, by
    ``_walk`` over all t levels.  Equal rows are one object: 16 distinct of
    512 at p = 3 and t = 2, 4 of 2048 at p = 11."""
    shared: dict = {}
    rows = map(tuple, map(_walk, range(1 << p**t), repeat(_levels(p, t)), repeat(None)))
    return tuple(shared.setdefault(row, row) for row in rows)


def xwli_lc(s: PeriodicSequence) -> tuple[LCForm, XwliTrace]:
    """Divide-and-sum linear complexity for odd p, with a full step trace.

    Each 'sum' step over parts of p^e bits contributes (p-1) * p^e, the
    term of exponent e + 1 in the form; a nonzero final scalar contributes
    1.  The trace increments always sum to the result.
    """
    p, n = s.modulus.p, s.modulus.n
    if p == 2:
        raise EvenP("xwli_lc requires odd p; use lc for p = 2")
    # the records skip the namedtuples' own __new__, Python code that only
    # hands its fields on to tuple.__new__
    new = tuple.__new__
    steps: list[XwliStep] = []
    exps = set()
    weight = s.value.bit_count()
    for e, increment, a in _steps(s.value, p, n):
        if increment:
            exps.add(e + 1)
        pre, weight = weight, a.bit_count()
        steps.append(new(XwliStep, ("sum" if increment else "split", pre, weight, increment)))
    trace = new(XwliTrace, (tuple(steps), a == 1))
    form = LCForm(p, int(trace.final_one), frozenset(exps))
    assert trace.total == form.value
    return form, trace


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
    """``_bm_value`` on two periods of each N-bit value, bit-sliced: lane j
    of every plane belongs to values[j], and ``_bm_planes`` runs the steps.

    The S planes come from one conversion at every N: each value becomes a
    field of whole bytes, the fields join into one int, that int is
    formatted in binary once, and plane t is one strided slice of the text.
    Up to N = 64 one ``struct.pack`` writes every field, widened to the 1,
    2, 4 or 8 bytes of its code; above that, where struct has no code, the
    fields are N's whole bytes joined from ``int.to_bytes``.
    """
    from .bitslice import read

    W = len(values)
    # fields MSB first and values[0] last, so that lane j is values[j]; the
    # join packs 512 values at a time, as one join over all W would hold a
    # bytes object per value at once and raise the sweep's peak RSS
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
    return read(_bm_planes([int(rows[F - 1 - t :: F], 2) for t in range(N)], N, W), W)


def _bm_planes(S: list[int], N: int, W: int) -> list[int]:
    """The Massey steps on two periods of W bit-sliced N-bit sequences:
    plane S[t] holds bit t of every lane's sequence.  Returns the lanes'
    complexities, a ``bitslice`` number.

    C[k] holds bit k of each lane's connection polynomial, B[k] bit k of
    x^m * B (B pre-shifted by the steps m since it was set), and L its
    complexity, so one big-int operation does a step's work for every lane.
    dc and db bound the degrees of C and x^m * B over all lanes; no lane's C
    or x^m * B has degree above N where it is read, so N + 1 planes hold
    them.
    """
    from .bitslice import above, subtract

    full = (1 << W) - 1
    S = S * 2  # the period repeated, so that S[i - j] is direct
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
    return L


def berlekamp_massey_lc(s: PeriodicSequence) -> int:
    """LFSR synthesis over GF(2) on two periods of s."""
    N = s.modulus.period
    return _bm_value(s.value | (s.value << N), 2 * N)


def lc(s: PeriodicSequence) -> int:
    """Linear complexity via the divide-and-sum descent."""
    modulus = s.modulus
    return _lc_value(s.value, modulus.p, modulus.n)

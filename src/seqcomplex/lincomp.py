"""Exact linear complexity of p^n-periodic binary sequences.

One descent computes it for every supported p: the p-way divide-and-sum of
Xiao, Wei, Lam and Imamura, which at p = 2 is the Games-Chan halving.  At
level e = n-1, ..., 0 the vector splits into p parts of p^e bits; equal
parts are kept once, otherwise their XOR is kept and (p-1) * p^e is added.
A nonzero final scalar adds 1.  At the last level the parts are single
bits, so their XOR is the parity of the vector's weight.  ``_levels`` holds
each level's geometry and ``_walk`` the step, which gives each level's e,
increment (0 at a split) and the vector it leaves.  Up to p = 11 the
deepest levels, whose vectors have at most 11 bits, are read from a table
built once per p and depth on first use, none at import: ``_tail`` holds
each vector's records, and every other table is built from its rows.
``_finish_plan`` alone decides that depth, for every table; from p = 13 on
it is 0, and each table is the final scalar's two rows.  Five walkers keep
a plan each, walk only the levels above its table (``_walk``) and finish
with one read of it: ``_lc_value`` (behind ``lc``) at odd p from each
row's complexity (``_tail_lc``), ``xwli_lc`` from each row's trace and
form key (``_tail_traces``), and ``hypercube``'s ``_descend`` from the
records themselves (``_tail``), ``_peel`` from each vector's peel and
``is_hypercube`` from each row's verdict.  At 2^1-2^3, 3^1, 3^2, 5^1 and
11^1 each of them is that one read.  At p = 2 ``_lc_value`` halves
instead, the value-only special case of the step: it keeps the low half
or the two halves' XOR down to 8 bits and reads the rest from
``_tail_lc``; up to period 2^12 it returns 2^n at once for an odd-weight
vector, as x + 1 then does not divide s(x).
``berlekamp_massey_lc`` - classic LFSR synthesis over GF(2), fed two periods
- is the independent oracle they are checked against; it skips each run of
zero-discrepancy steps in one shift, as those steps change nothing but the
index.  The verify sweep runs the same Massey steps bit-sliced across many
sequences at once (``_bm_planes``): each sequence is one bit lane of a few
Python ints, so one big-int operation does a step's work for every lane.
Its sequences and their complexities are both ``bitslice`` numbers:
``identity`` gives a whole universe, lane v holding sequence v, and
``number`` any given values.

Every attainable complexity has a unique canonical form
``L = eps + (p-1) * sum(p^(v-1) for v in V)`` with ``eps`` in {0, 1} and
``V`` a subset of {1..n}; ``LCForm`` captures it.  (For p = 2 the form is not
unique: ``lc_form_decompose`` picks the greedy largest-exponent-first one,
and ``xwli_lc`` the descent's own, its sums' exponents and final scalar.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import repeat
from operator import and_, xor
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import NotRepresentable
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
    ``__init__`` writes the fields and ``_value`` straight into the instance
    dict, past the frozen ``__setattr__`` that a generated ``__init__``
    would call once per field; assignment still raises FrozenInstanceError.
    As a form is frozen, ``xwli_lc`` shares one per p and (epsilon, V)
    across all its traces.  At p = 2, where a value can have several
    forms, ``xwli_lc``'s is the descent's, not always the greedy one.
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


class XwliTrace(NamedTuple):
    steps: tuple[XwliStep, ...]
    final_one: bool

    @property
    def total(self) -> int:
        # a loop reading each increment by index took about half the time
        # of a sum over the steps' increment attribute (timeit at two steps,
        # 2-vCPU x86 VM, Python 3.11)
        total = 1 if self.final_one else 0
        for step in self.steps:
            total += step[3]
        return total


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


def _lc_value(a: int, p: int, n: int) -> int:
    """The complexity alone; the hot path for sweeps and brute force.

    At odd p it walks only the levels its plan walks (``_walk``), adding each
    one's increment (0 at a split), and adds the complexity of the vector
    the walk left from ``_tail_lc``: at 3^1, 3^2, 5^1 and 11^1 one read.  At
    p = 2 the parts are the two halves, and each level keeps the low half or
    their XOR, at the (plen, mask) of the levels of ``_finish_plan(2, n,
    _tail_lc)``, down to the bits its table finishes in one read (``_P2``).
    There x^(2^n) - 1 is (x + 1)^(2^n), so L = 2^n exactly when x + 1 does
    not divide s(x), that is when the weight of s is odd; up to n =
    _PARITY_UP_TO_N such an s returns before halving.
    """
    L = 0
    if p == 2:
        if n <= _PARITY_UP_TO_N and a.bit_count() & 1:
            return 1 << n
        try:
            halvings, tail = _P2[n]
        except TypeError:
            levels, tail = _finish_plan(2, n, _tail_lc)
            halvings = tuple(row[1:3] for row in levels)
            _P2[n] = halvings, tail
        for plen, mask in halvings:
            hi = a >> plen
            lo = a & mask
            if hi != lo:
                a = hi ^ lo
                L += plen
            else:
                a = lo
        return L + tail[a]
    try:
        levels, finish = _LC_PLANS[p, n]
    except KeyError:
        levels, finish = _LC_PLANS[p, n] = _finish_plan(p, n, _tail_lc)
    if levels:
        for _, increment, a in _walk(a, levels, None):
            L += increment
    return L + finish[a]


def _walk(a: int, levels: tuple, tail: tuple | None) -> Iterator[tuple[int, int, int]]:
    """Yield the record (e, increment, a) of each of the given levels, a
    being the vector the level leaves (part 0 at a split, the parts' XOR at
    a sum, past a zero sum too) and increment 0 at a split; then, with a
    table, the records of the levels below them, read at the vector the
    walk left.  ``_tail`` builds each table with this loop.
    The parts are all equal exactly when the vector shifted down by one part
    equals its low p-1 parts.  A sum over one-bit parts folds the p bits by
    the parity of their weight, one popcount in place of p - 1 shifts and
    XORs.  This is the one split test and XOR fold of the descent.  The
    table is read here, not in a generator this one delegates to, as a
    ``yield from`` per level gave back most of its gain."""
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


# A table finishes a descent: the deepest t levels whose vectors have at most
# this many bits (t = 3 at p = 2, 2 at p = 3 and 1 at p = 5 and 11; none
# from p = 13 on, whose table would hold 8192 rows).
_TAIL_BITS = 11


def _finish_plan(p: int, n: int, table: Callable[[int, int], Sequence]) -> tuple[tuple, Sequence]:
    """The levels of ``_levels(p, n)`` above its deepest t whose vectors
    have at most ``_TAIL_BITS`` bits, and ``table(p, t)``: the plan of a
    walk over those levels that finishes with one read of the table.  Every
    plan is built here, ``_LC_PLANS``, ``_P2``, ``_TRACE_PLANS`` and
    ``hypercube``'s included, so no other code decides a table's depth.
    From p = 13 on, t is 0: the table's rows are those of the final scalar,
    which the zero levels of ``_levels(p, 0)`` leave as it is."""
    t = 0
    while t < n and p ** (t + 1) <= _TAIL_BITS:
        t += 1
    return _levels(p, n)[: n - t], table(p, t)


@cache
def _tail(p: int, t: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The records of the last t levels of every vector of p^t bits, by
    ``_walk`` over all t levels.  Equal rows are one object: 16 distinct of
    512 at p = 3 and t = 2, 4 of 2048 at p = 11."""
    shared: dict = {}
    rows = map(tuple, map(_walk, range(1 << p**t), repeat(_levels(p, t)), repeat(None)))
    return tuple(shared.setdefault(row, row) for row in rows)


@cache
def _tail_lc(p: int, t: int) -> list[int]:
    """The complexity of every vector of p^t bits: its ``_tail`` row's
    increments plus its final scalar, the vector the row leaves (the vector
    itself at t = 0, whose rows are empty)."""
    rows = enumerate(_tail(p, t))
    return [sum(record[1] for record in row) + (row[-1][2] if row else a) for a, row in rows]


# _LC_PLANS[p, n] = (levels, finish): the plan _finish_plan(p, n, _tail_lc),
# the final scalar's own [0, 1] finishing it where no level is tabled
# (p >= 13).
_LC_PLANS: dict[tuple[int, int], tuple[tuple, list[int]]] = {}

# _P2[n]: the (plen, mask) of each halving _lc_value makes at 2^n, those of
# the levels of _finish_plan(2, n, _tail_lc), and that plan's table; None
# until 2^n is first used.  A list, read by index once per call.
_P2: list[tuple | None] = [None] * PERIOD_CAP.bit_length()


# A form key holds an LCForm's exponents and epsilon in one int: bit v for
# each exponent v >= 1, bit 0 for epsilon.  _FORMS[p] maps each key met so
# far to its one LCForm, shared by every trace, as a form is frozen.
_FORMS: dict[int, dict[int, LCForm]] = {}


@cache
def _tail_traces(p: int, t: int) -> list[tuple[XwliTrace, int]]:
    """(trace, key) for every vector of p^t bits, from its ``_tail`` row:
    the trace of the last t levels alone, and the form key of their sums
    and of the final scalar, the vector the row leaves (the vector itself at
    t = 0).  Equal rows are one object, as in ``_tail``."""
    shared: dict = {}
    rows = []
    for a, records in enumerate(_tail(p, t)):
        steps, key, weight = [], 0, a.bit_count()
        for e, increment, a in records:
            pre, weight = weight, a.bit_count()
            steps.append(XwliStep("sum" if increment else "split", pre, weight, increment))
            if increment:
                key |= 2 << e
        row = (XwliTrace(tuple(steps), a == 1), key | a)
        rows.append(shared.setdefault(row, row))
    return rows


# _TRACE_PLANS[p, n] = (levels, finish, forms): the plan
# _finish_plan(p, n, _tail_traces) and _FORMS[p].
_TRACE_PLANS: dict[tuple[int, int], tuple[tuple, list[tuple[XwliTrace, int]], dict]] = {}


def xwli_lc(s: PeriodicSequence) -> tuple[LCForm, XwliTrace]:
    """Divide-and-sum linear complexity at every p, with a full step trace.

    Each 'sum' step over parts of p^e bits contributes (p-1) * p^e, the
    term of exponent e + 1 in the form; a nonzero final scalar contributes
    1.  At p = 2 this is the Games-Chan halving, and the form is the
    descent's, not always ``lc_form_decompose``'s greedy one.

    Only the walked levels' steps are built per call: those of the tabled
    levels, and their part of the form, are one read of ``_tail_traces``
    (the whole trace at 2^1-2^3, 3^1, 3^2, 5^1 and 11^1).  Equal forms are
    one object (``_FORMS``).  lc-oracle checks that the trace increments
    sum to the form's value.
    """
    p, n = s.modulus.p, s.modulus.n
    try:
        levels, finish, forms = _TRACE_PLANS[p, n]
    except KeyError:
        plan = (*_finish_plan(p, n, _tail_traces), _FORMS.setdefault(p, {}))
        levels, finish, forms = _TRACE_PLANS[p, n] = plan
    a = s.value
    if levels:
        # the records skip the namedtuples' own __new__, Python code that
        # only hands its fields on to tuple.__new__
        new = tuple.__new__
        walked: list[XwliStep] = []
        key = 0
        weight = a.bit_count()
        for e, increment, a in _walk(a, levels, None):
            pre, weight = weight, a.bit_count()
            if increment:
                key |= 2 << e
            walked.append(new(XwliStep, ("sum" if increment else "split", pre, weight, increment)))
        (steps, final_one), tail_key = finish[a]
        trace = new(XwliTrace, ((*walked, *steps), final_one))
        key |= tail_key
    else:
        trace, key = finish[a]
    try:
        form = forms[key]
    except KeyError:
        exponents = frozenset(v for v in range(1, n + 1) if key >> v & 1)
        form = forms[key] = LCForm(p, key & 1, exponents)
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


def _bm_planes(S: list[int], N: int, W: int) -> list[int]:
    """The Massey steps on two periods of W bit-sliced N-bit sequences:
    plane S[t] holds bit t of every lane's sequence, a ``bitslice`` number
    (``identity`` or ``number``), and so the steps are ``_bm_value``'s on
    every lane.  Returns the lanes' complexities, a ``bitslice`` number.

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

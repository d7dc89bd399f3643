"""k-error linear complexity: critical points, bounds, stable sequences.

L_k(s) is the smallest linear complexity reachable by flipping at most k
period positions.  The spectrum k -> L_k is non-increasing, starts at L(s)
and hits 0 exactly at k = weight(s).  A *critical point* is a k whose L_k is
strictly below every earlier value; ``celcs`` lists them all.

The closed form targets the leading hypercube h_1 of the decomposition of s
and takes the cheaper of two changes to it, with m the dimension of h_1:

* element vertex:              p^m                  (erase the hypercube)
* tuple vertex of length q:    min(l, j) * p^m      (erase it, or equalize
                               its vertex blocks), j = vertex_min_change for
                               q > 0 and j = p - l for q = 0, where the one
                               row of the vertex is filled to all-ones

Each rule has a concrete witness, so the value is always an upper bound on
m(s), and exhaustive sweeps confirm it is exact whenever s is a single
hypercube.  For sums of two or more hypercubes it can overshoot: flips spread
across parts may align the top-level sums of all parts at once, which is
sometimes cheaper than any change confined to h_1 (first case at period 9).
At p = 2 every vertex is an element and the value is exact for every s:
L(s) = L(h_1) = 2^n - sum(2^i, i in the m edges of h_1), so its erase cost
2^m is Kurosawa's 2^wt(2^n - L) (``kurosawa_m``).  L_after is still only a
bound there, as the witness erases h_1.
``verify.run_suites`` compares the closed form with brute force over whole
universes and reports every such counterexample.

Every closed-form answer is read from h_1, the leading hypercube that one
peel of s leaves, and from the plain descent of h_1, which is the rewrite
descent of s; s is a hypercube exactly when h_1 = s.  The rest of the
decomposition is never computed.  Brute force has one exact scan, ``_spectrum``, which yields the
critical-error spectrum from its start point (0, L(s)) lazily, one weight
class at a time; every brute-force answer but m1 reads a prefix of it, and
m(s) is its second point (``_first_drop``).  ``first_critical_bruteforce``
finds m1 by a second class loop that stops a class at its first pattern
below L_{m(s)}.  Both loops have one budget rule: class k >= 1 is scanned
only once the sum_{i<=k} C(N, i) patterns fit the cap (that sum is taken
only until it passes max(cap, 10^18), and never when cap >= 2^N, as all 2^N
patterns then fit).  How a class is scanned (``_class_min``, class 0
included) depends on the period.  Up to period 12 every class of
every sequence is read from one table per modulus, built on first use from
one bit-sliced descent of all 2^N sequences, lane v holding sequence v:
for each complexity c the lanes within c are grown one flipped position at
a time into the sequences within c of exactly k flips, and byte v of the
table's entry k is the least such c.  Up to period 256 a class runs
bit-sliced in Pascal blocks of up to 4096 of its own patterns: each pattern
is one bit lane of a few Python ints, plane t holding bit t of every
pattern, so one big-int operation does a descent step's work for the whole
block, and the least complexity is read from the per-level sum masks.
Above 256 a class runs one pattern at a time.  Above period 12 class 0 is
one descent of s.  The closed form's vertex row counts
(``_equalizing_flips``) are ``bitslice`` numbers, one row per lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import combinations
from math import comb
from operator import or_, xor
from typing import Iterator, NamedTuple

from .errors import (
    _EXACT_UP_TO,
    DEFAULT_CAP,
    BudgetExceeded,
    EvenP,
    FormulaInapplicable,
    KOutOfRange,
    NotTupleVertex,
    OddP,
    ZeroLengthVertex,
    _check_cap,
)
from .hypercube import (
    VertexDescriptor,
    VertexKind,
    _descend,
    _expand_flip,
    _peel,
    _spread,
)
from .bitslice import above, add, identity, largest, read
from .lincomp import _lc_value, _levels, lc_form_decompose
from .sequences import Modulus, PeriodicSequence, _require_modulus, require_nonzero

__all__ = [
    "DEFAULT_CAP",
    "CelcsPoint",
    "CriticalReport",
    "celcs",
    "construct_stable",
    "first_critical_bruteforce",
    "first_critical_m",
    "k_error_lc_bruteforce",
    "kurosawa_m",
    "meidl_upper_bound",
    "second_critical_m1",
    "vertex_min_change",
]


class CelcsPoint(NamedTuple):
    k: int
    L: int


@dataclass(frozen=True)
class CriticalReport:
    """First (and when determined, second) critical error count.

    Brute reports are exact by construction.  Formula reports describe the
    minimal change of the leading hypercube: m_s and L_after are the weight
    and resulting complexity of its witness, exact when s is a hypercube and
    an upper bound otherwise.  m1_s, filled only when s is a hypercube, is
    its erase cost, an upper bound on the second critical point (see
    ``second_critical_m1``).  vertex_j is the minimal equalizing change of
    the vertex (tuple vertices of length > 0).
    """

    m_s: int
    L_after: int
    m1_s: int | None
    method: str
    vertex_j: int | None = None

    def __post_init__(self) -> None:
        assert self.m_s >= 1
        assert self.m1_s is None or self.m1_s > self.m_s


# -- brute force ---------------------------------------------------------------

def _check_budget(N: int, k: int, cap: int) -> None:
    """Refuse more than cap error patterns of weight <= k.  The running sum
    stops once it passes max(cap, 10^18); the refusal then states that bound."""
    _check_cap(cap)
    if cap >> N:
        return  # all 2^N patterns fit
    bound = max(cap, _EXACT_UP_TO)
    b = term = 1
    for i in range(1, k + 1):
        if b > bound:
            raise BudgetExceeded(f"more than {bound} error patterns exceed cap {cap}")
        term = term * (N - i + 1) // i
        b += term
    if b > cap:
        raise BudgetExceeded(f"{b} error patterns exceed cap {cap}")


# Most patterns one bit-sliced block holds; its N planes take N * 512 bytes.
_LANES = 4096
# Above this period every class runs one pattern at a time: building a
# block's planes recurses once per position, and they would pass 128 KB.
_SLICED_UP_TO = 256
_BIT = (1).__lshift__
# Largest period with a per-modulus class table: its 2^N sequences, one per
# lane, fit one block.
_TABLE_UP_TO = _LANES.bit_length() - 1


@lru_cache(maxsize=2048)
def _planes(m: int, j: int) -> tuple[int, ...]:
    """Plane t holds bit t of every m-bit pattern of weight j, one pattern per
    lane: by Pascal's rule, those with bit m-1 clear, then those with it set."""
    if j == 0 or j == m:
        return (int(j > 0),) * m
    low, high = _planes(m - 1, j), _planes(m - 1, j - 1)
    w = comb(m - 1, j)
    return (*(a | b << w for a, b in zip(low, high)), ((1 << comb(m - 1, j - 1)) - 1) << w)


def _blocks(m: int, j: int, fixed: int = 0) -> Iterator[tuple[int, int, int]]:
    """The class of m-bit patterns of weight j as blocks (m', j', fixed') of at
    most _LANES patterns: the m'-bit patterns of weight j' joined with the bits
    of fixed', split off the top of the class by Pascal's rule."""
    if comb(m, j) <= _LANES:
        yield m, j, fixed
    else:
        yield from _blocks(m - 1, j, fixed)
        yield from _blocks(m - 1, j - 1, fixed | 1 << (m - 1))


def _sliced_descent(planes: list[int], levels: tuple) -> tuple[list[tuple[int, int]], int]:
    """The divide-and-sum descent of every lane of a bit-sliced vector at
    once: each level's sum lanes with its increment, and the final plane.

    Plane t holds bit t of every lane's vector.  The sum lanes of a level
    are those where some part differs from part 0, and only they take the
    XOR of the parts.
    """
    sums = []
    for _, plen, _, _, increment in levels:
        head, rest = planes[:plen], planes[plen : 2 * plen]
        diff = reduce(or_, map(xor, head, rest))
        for i in range(2 * plen, len(planes), plen):
            part = planes[i : i + plen]
            diff = reduce(or_, map(xor, head, part), diff)
            rest = list(map(xor, rest, part))
        planes = [h ^ (diff & r) for h, r in zip(head, rest)]
        sums.append((diff, increment))
    return sums, planes[0]


def _lanes_min(descent: tuple[list[tuple[int, int]], int], lanes: int) -> int:
    """Least complexity over the given lanes of a ``_sliced_descent``.

    The least lane is followed MSB first: a level's increment is at least
    what all lower levels and the final scalar can add, so the lanes that
    keep their parts (when any do) hold the minimum.
    """
    sums, last = descent
    L = 0
    for diff, increment in sums:
        if lanes & ~diff:
            lanes &= ~diff
        else:
            L += increment
    return L + (not lanes & ~last)


def _block_mins(value: int, p: int, n: int, k: int) -> Iterator[int]:
    """The least complexity of each block of the weight-k class, bit-sliced:
    a block's planes are its patterns' planes, complemented where s has a 1."""
    N = p**n
    levels = _levels(p, n)
    for m, j, fixed in _blocks(N, k):
        full = (1 << comb(m, j)) - 1
        a = value ^ fixed
        planes = [q ^ full if a >> t & 1 else q for t, q in enumerate(_planes(m, j))]
        planes += [full if a >> t & 1 else 0 for t in range(m, N)]
        yield _lanes_min(_sliced_descent(planes, levels), full)


@cache
def _table(p: int, n: int) -> tuple[bytes, ...]:
    """The least complexity of every weight class of every sequence of
    period N = p^n <= _TABLE_UP_TO: byte v of entry k is the least over the
    patterns of weight k added to sequence v.

    One ``_sliced_descent`` of the universe, lane v holding sequence v,
    groups the lanes by complexity.  For each complexity c, ascending, the
    lanes of complexity <= c grow one position t at a time: a lane reaches
    weight k when flipping t takes it to one that reached weight k - 1
    without t.  The least of class k is the first c whose weight-k lanes
    hold v, kept as a ``bitslice`` number, one sequence per lane.
    """
    N = p**n
    width = 1 << N
    full = (1 << width) - 1
    # plane t holds bit t of every sequence, lane v holding v
    planes = identity(N)
    sums, last = _sliced_descent(planes, _levels(p, n))
    # a lane's complexity sums the increments of the levels it sums at and
    # 1 if its final bit is set
    groups = [(0, full)]
    for diff, increment in (*sums, (last, 1)):
        groups = [(c, part) for L, lanes in groups
                  for c, part in ((L, lanes & ~diff), (L + increment, lanes & diff)) if part]
    mins = [[0] * N.bit_length() for _ in range(N + 1)]
    unset = [full] * (N + 1)
    reach = 0
    for c, lanes in sorted(groups):
        reach |= lanes
        grown = [reach] + [0] * N
        for t, plane in enumerate(planes):
            w = 1 << t
            for k in range(t + 1, 0, -1):
                a = grown[k - 1]
                grown[k] |= (a & plane) >> w | (a & ~plane) << w
        for k, fresh in enumerate(grown):
            fresh &= unset[k]
            unset[k] ^= fresh
            for b in range(c.bit_length()):
                if c >> b & 1:
                    mins[k][b] |= fresh
    return tuple(bytes(read(m, width)) for m in mins)


def _class_min(value: int, p: int, n: int, k: int, below: int = 1) -> int:
    """Least complexity over the error patterns of weight exactly k, or the
    first block's (or pattern's) least found below ``below`` (by default only
    0 ends the scan early).

    Class 0 is the complexity of the sequence itself.  Up to period
    _TABLE_UP_TO the least is read from the modulus's ``_table``, exact
    whatever ``below``, class 0 included.  Above it class 0 is one descent;
    up to period _SLICED_UP_TO any other class runs bit-sliced, _LANES
    patterns a block, and above that, one pattern at a time.
    """
    N = p**n
    if N <= _TABLE_UP_TO:
        return _table(p, n)[k][value]
    if not k:
        return _lc_value(value, p, n)
    if N <= _SLICED_UP_TO:
        values = _block_mins(value, p, n, k)
    else:
        # each pattern is built alone: a list of every 1 << i takes N^2 / 16 bytes
        combos = combinations(range(N), k)
        values = (_lc_value(value ^ sum(map(_BIT, c)), p, n) for c in combos)
    best = N  # no sequence of period N exceeds complexity N
    for L in values:
        if L < best:
            best = L
            if L < below:
                break
    return best


def _spectrum(s: PeriodicSequence, cap: int, upto: int) -> Iterator[CelcsPoint]:
    """The critical-error spectrum of s up to k = upto, lazily: (0, L(s)),
    then each (k, L_k) with L_k below every earlier L.  Class k >= 1 is
    counted against the cap, then scanned; the scan ends at L = 0."""
    p, n, N = s.modulus.p, s.modulus.n, s.modulus.period
    prev = _class_min(s.value, p, n, 0)
    yield CelcsPoint(0, prev)
    for k in range(1, upto + 1):
        if prev == 0:
            return
        _check_budget(N, k, cap)
        L = _class_min(s.value, p, n, k)
        if L < prev:
            prev = L
            yield CelcsPoint(k, L)


def _first_drop(s: PeriodicSequence, cap: int) -> CelcsPoint:
    """(m(s), L_{m(s)}) of nonzero s: the spectrum's point after (0, L(s))."""
    points = _spectrum(s, cap, s.weight)
    next(points)
    return next(points)


def k_error_lc_bruteforce(s: PeriodicSequence, k: int, cap: int = DEFAULT_CAP) -> int:
    """L_k(s) by complete enumeration of error patterns of weight <= k.  As
    L_k = 0 for every k >= weight(s), only the classes below it are budgeted."""
    if type(k) is not int:
        raise KOutOfRange(f"k must be an int; got {k!r}")
    if k < 0:
        raise KOutOfRange(f"k={k} is negative")
    k = min(k, s.weight)
    _check_budget(s.modulus.period, k, cap)
    return min(pt.L for pt in _spectrum(s, cap, k))


def first_critical_bruteforce(s: PeriodicSequence, cap: int = DEFAULT_CAP) -> CriticalReport:
    """m(s), exact L_{m(s)}, and the second critical point, all by enumeration.

    Each weight class is counted against the cap before it is scanned; past
    m(s), a class is scanned only until a pattern drops below L_{m(s)}.
    """
    require_nonzero(s)
    p, n, N = s.modulus.p, s.modulus.n, s.modulus.period
    m_s, L_after = _first_drop(s, cap)
    if L_after == 0:
        return CriticalReport(m_s, 0, None, "brute")
    for k in range(m_s + 1, N + 1):
        _check_budget(N, k, cap)
        if _class_min(s.value, p, n, k, below=L_after) < L_after:
            return CriticalReport(m_s, L_after, k, "brute")
    raise AssertionError("k = weight(s) always reaches L = 0")


# -- closed forms ---------------------------------------------------------------

def vertex_min_change(vertex: VertexDescriptor) -> int:
    """Minimal flips turning a tuple vertex (q > 0) into p equal nonzero blocks.

    The row with the most ones is forced to all-ones; every other row goes to
    its majority side.  Length-0 vertices are refused here: the closed form
    equalizes them by the same rule, its one row going to all-ones at p - l.
    """
    if vertex.kind is not VertexKind.TUPLE:
        raise NotTupleVertex("element vertices have no block tuple to equalize")
    if vertex.q == 0:
        raise ZeroLengthVertex("length-0 vertices are handled by the fill/erase rule")
    return _equalizing_flips(len(vertex.blocks), vertex.q, vertex._mask).bit_count()


def _equalizing_flips(p: int, q: int, a: int) -> int:
    """Terminal-level flips equalizing the tuple vertex a of any length q >= 0.

    Bit i * p^q + u of a is row u of block i, and so is the flip toggling
    it.  The row with the most ones goes to all-ones and every other row to
    its majority side.  Row counts are ``bitslice`` numbers, one row per
    lane.
    """
    rows = p**q
    mask = (1 << rows) - 1
    counts = [0] * p.bit_length()
    for i in range(p):
        add(counts, (a >> (i * rows)) & mask)
    top = largest(counts, mask)
    target = above(counts, p >> 1, mask) | (top & -top)
    return a ^ _spread(target, p, rows)


def _closed_form(s: PeriodicSequence) -> tuple[CriticalReport, bool]:
    """The formula report for nonzero s, and whether s is a hypercube.

    h_1 is the leading hypercube that ``_peel`` leaves, and desc its plain
    descent, which is the rewrite descent of s; s is a hypercube iff h_1 = s.
    The witness is the cheaper change to h_1: erase it (l * p^m), or
    equalize its tuple vertex (j * p^m).  The two never cost the same: j - l
    sums p - 2c over the rows set to all-ones, terms that are odd and share one
    sign (all positive when the fullest row has c < p/2, else all negative).
    """
    p, n = s.modulus.p, s.modulus.n
    h1 = _peel(s.value, p, n)[0]
    desc = _descend(h1, p, n)
    assert desc.ok
    pm = p ** len(desc.edges)
    l = desc.l
    erase = l * pm
    m_s, mask, j = erase, h1, None
    if desc.q is not None:
        flips = _equalizing_flips(p, desc.q, desc.vecs[-1])
        j = flips.bit_count()
        assert j != l
        if j < l:
            m_s, mask = j * pm, _expand_flip(desc, p, n, flips)
            assert mask.bit_count() == m_s
    single = h1 == s.value
    m1 = erase if single and m_s < erase else None
    vertex_j = j if desc.q else None
    L_after = _lc_value(s.value ^ mask, p, n)
    return CriticalReport(m_s, L_after, m1, "formula", vertex_j=vertex_j), single


def first_critical_m(s: PeriodicSequence) -> CriticalReport:
    """Closed-form first critical point from the leading hypercube of s.

    Exact when s is a single hypercube; an upper bound on m(s) in general
    (see the module docstring), except at p = 2, where m equals
    ``kurosawa_m`` for every s.  L_after is the complexity reached by the
    witness.  The second critical point is filled only when s is itself a
    hypercube.
    """
    require_nonzero(s)
    return _closed_form(s)[0]


def second_critical_m1(s: PeriodicSequence, cap: int = DEFAULT_CAP) -> int | None:
    """Second critical error count, or None when L_{m(s)} is already 0.

    Closed form for hypercubes; brute force otherwise.  The closed
    form is the hypercube's erase cost, its weight, where L falls to 0: an
    upper bound, which a cheaper change can beat.  The 5^2 hypercube
    1010001100011111010000011 has closed-form m1 = 12 but brute-force m1 = 10
    (L = 4); the 3^3 hypercube 110101001110101001000000000 has 10 against 6
    (L = 6).
    """
    require_nonzero(s)
    _check_cap(cap)
    rep, single = _closed_form(s)
    if single:
        return rep.m1_s
    return first_critical_bruteforce(s, cap=cap).m1_s


# -- critical-point spectrum -----------------------------------------------------

def celcs(
    s: PeriodicSequence, mode: str = "brute", cap: int = DEFAULT_CAP
) -> tuple[CelcsPoint, ...]:
    """All critical points (k, L_k) of the k-error spectrum, ascending in k.

    mode="brute" enumerates every error pattern up to weight(s).  mode=
    "formula" is only defined when s is a single hypercube.  It lists (0, L),
    the closed-form first critical point and, unless that reaches 0, the
    closed-form m1 as (weight(s), 0).  That m1 is the erase cost, an upper
    bound, so the list can skip a critical point in between: (10, 4) at the
    5^2 hypercube 1010001100011111010000011 and (6, 6) at the 3^3 hypercube
    110101001110101001000000000 (see ``second_critical_m1``).
    """
    if mode not in ("formula", "brute"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "brute":
        _check_budget(s.modulus.period, s.weight, cap)
        return tuple(_spectrum(s, cap, s.weight))
    _check_cap(cap)
    if s.is_zero:
        return (CelcsPoint(0, 0),)
    rep, single = _closed_form(s)
    if not single:
        raise FormulaInapplicable("formula mode needs a hypercube")
    points = [CelcsPoint(0, _lc_value(s.value, s.modulus.p, s.modulus.n)),
              CelcsPoint(rep.m_s, rep.L_after)]
    if rep.L_after != 0:
        assert rep.m1_s is not None
        points.append(CelcsPoint(rep.m1_s, 0))
    assert all(a.k < b.k and a.L > b.L for a, b in zip(points, points[1:]))
    assert points[-1] == CelcsPoint(s.weight, 0)
    return tuple(points)


# -- closed-form bounds ------------------------------------------------------------

def kurosawa_m(s: PeriodicSequence) -> int:
    """Exact first critical error count for p = 2: 2^(wt_2(2^n - L))."""
    if s.modulus.p != 2:
        raise OddP("kurosawa_m requires p = 2")
    require_nonzero(s)
    L = _lc_value(s.value, 2, s.modulus.n)
    return 1 << ((s.modulus.period - L).bit_count())


def meidl_upper_bound(s: PeriodicSequence) -> int:
    """Upper bound on m(s) for odd p: ((p-1)/2)^delta * p^(n - |V|).

    delta is 0 when the canonical form of L(s) has epsilon = 1, else 1.  The
    exponent counts the exponents missing from the canonical form (the base-p
    digit weight of p^n - L once the epsilon offset is removed).
    """
    if s.modulus.p == 2:
        raise EvenP("meidl_upper_bound is an odd-p bound; kurosawa_m is exact for p = 2")
    require_nonzero(s)
    p, n = s.modulus.p, s.modulus.n
    L = _lc_value(s.value, p, n)
    form = lc_form_decompose(L, s.modulus)
    delta = (form.epsilon + 1) % 2
    return ((p - 1) // 2) ** delta * p ** (n - len(form.exponents))


# -- stable sequences ---------------------------------------------------------------

def construct_stable(modulus: Modulus, k: int) -> PeriodicSequence:
    """A k-stable sequence: p^l ones then zeros, with p^(l-1) <= k < p^l.

    Its complexity p^n - p^l + 1 first drops at p^l errors, so L_e = L for
    all e <= k.  k = 0 yields the single-one sequence of full complexity p^n.
    At odd p it need not be the k-stable sequence of largest complexity:
    at 5^1, 11000 keeps L = 4 through one error, where the construction
    gives 11111, of L = 1.
    """
    _require_modulus(modulus)
    if type(k) is not int:
        raise KOutOfRange(f"k must be an int; got {k!r}")
    if not 0 <= k < modulus.period:
        raise KOutOfRange(f"k={k} outside [0, {modulus.period})")
    p = modulus.p
    l = 0
    while p**l <= k:
        l += 1
    ones = p**l
    return PeriodicSequence(modulus, (1 << ones) - 1)

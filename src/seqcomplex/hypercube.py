"""Hypercube structure of p^n-periodic binary sequences.

Run the p-way divide-and-sum descent on a sequence.  At each level the
current vector ``a`` splits into p parts ``A_0..A_{p-1}``; either all parts
are equal (keep ``A_0``) or they are XORed.  A sequence is a *hypercube* when
no XOR step cancels ones, except a single terminating step whose XOR is the
zero vector.  The descent then ends in a *vertex*: either the scalar 1 (an
element vertex) or the p-tuple of parts at the zero-sum step (a tuple vertex
of length q, where the parts have length p^q).

A level of p^e-bit parts that took the split branch gives an *edge* e, of
p-adic length p^e; an m-hypercube has m edges and p^m translated copies of
its vertex.  The linear complexity follows from the structure alone:

    L = eps - 1 + p^n - (p-1) * sum(p^i for i in edges)

with eps = 1 for element vertices and (1-p)*(p^0+...+p^(q-1)) = 1 - p^q for
tuple vertices of length q, which is 0 at q = 0.  Keyed by q alone:

    L = p^n - p^q - (p-1) * sum(p^i for i in edges)

for a tuple vertex of length q, with no p^q term for an element vertex.  At
p = 2 two halves XOR to zero only when they are equal, and equal halves take
the split branch, so no step sums to zero: every vertex is an element and
the hypercubes are the 2^n cubes of ``cube_lc``.

``standard_decompose`` peels a maximal hypercube off an arbitrary nonzero
sequence in one pass down and one pass up.  Down, an XOR step that would
cancel ones keeps the first 1 of each row; up, each level from the deepest
such step to the period keeps the sources of the ones that survive below it,
so every surviving one has a unique source.  The peeled part keeps the full
linear complexity of the input; the residue is strictly simpler, so recursion
yields parts with strictly decreasing complexities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import xor
from typing import Iterable, Sequence as Seq

from .errors import (
    InvalidEdges,
    ModulusMismatch,
    NoEligibleExponent,
    NotACube,
    NotAHypercube,
    OddP,
)
from .lincomp import _finish_plan, _lc_value, _levels, _tail, _walk
from .sequences import (
    _TO_DIGIT,
    Modulus,
    PeriodicSequence,
    _bits,
    _require_modulus,
    _row_mask,
    require_nonzero,
)

__all__ = [
    "Decomposition",
    "HypercubeStructure",
    "VertexDescriptor",
    "cube_lc",
    "extract_structure",
    "is_hypercube",
    "lc_from_structure",
    "next_lower_hypercube_lc",
    "standard_decompose",
]


@dataclass(frozen=True)
class VertexDescriptor:
    """Terminal state of the descent: its length q says which vertex it is.

    An element vertex (q None) carries nothing.  A tuple vertex of length q
    carries the p parts of the zero-sum step (each p^q entries of 0 or 1);
    every row across the parts has even parity and at least one is nonzero.

    ``_mask`` packs the vertex as the descent does: 1 for an element, and
    bit i * p^q + u is row u of block i for a tuple.  It is no dataclass
    field, so equality, hash and repr read only q and blocks.
    """

    q: int | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.q is None:
            if self.blocks is not None:
                raise ValueError("element vertex carries no blocks")
            self.__dict__["_mask"] = 1
            return
        if self.blocks is None:
            raise ValueError("tuple vertex needs q and blocks")
        if type(self.q) is not int or self.q < 0:
            raise ValueError(f"tuple vertex q must be an int >= 0; got {self.q!r}")
        if not isinstance(self.blocks, tuple) or not all(
            isinstance(b, tuple) for b in self.blocks
        ):
            raise ValueError(f"blocks must be a tuple of tuples; got {self.blocks!r}")
        p = len(self.blocks)
        if p < 2:
            raise ValueError("tuple vertex needs at least 2 blocks")
        size = p**self.q
        if any(len(b) != size for b in self.blocks):
            raise ValueError(f"blocks must all have length p^q = {size}")
        mask = _row_mask([bit for b in self.blocks for bit in b])
        if mask is None:
            raise ValueError("block entries must be 0 or 1")
        if not mask:
            raise ValueError("tuple vertex must be nonzero")
        # bit u of the XOR of the p parts is row u's parity
        odd = reduce(xor, (mask >> (i * size) for i in range(p))) & ((1 << size) - 1)
        if odd:
            u = (odd & -odd).bit_length() - 1
            raise ValueError(f"row {u} has odd parity; blocks do not sum to zero")
        self.__dict__["_mask"] = mask

    @property
    def l(self) -> int:
        """Nonzero count: 1 for element vertices, total ones for tuples."""
        return self._mask.bit_count()

    @property
    def epsilon(self) -> int:
        """1 for an element vertex, 1 - p^q for a tuple vertex of length q."""
        return 1 if self.q is None else 1 - len(self.blocks) ** self.q

    def __str__(self) -> str:
        if self.q is None:
            return "element"
        parts = b",".join(map(bytes, self.blocks)).translate(_TO_DIGIT).decode()
        return f"tuple(q={self.q}, [{parts}])"


@dataclass(frozen=True)
class HypercubeStructure:
    """Edge exponents and vertex of a hypercube, of dimension m = len(edges)."""

    edges: tuple[int, ...]
    vertex: VertexDescriptor

    def __post_init__(self) -> None:
        if not isinstance(self.edges, tuple):
            raise InvalidEdges(f"edge exponents must be a tuple; got {self.edges!r}")
        if any(type(i) is not int for i in self.edges):
            raise InvalidEdges(f"edge exponents must be ints; got {self.edges!r}")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(f"edges not strictly increasing: {self.edges}")
        if not isinstance(self.vertex, VertexDescriptor):
            raise ValueError(f"vertex must be a VertexDescriptor; got {self.vertex!r}")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def epsilon(self) -> int:
        return self.vertex.epsilon

    def __str__(self) -> str:
        edges = ",".join(map(str, self.edges)) if self.edges else "-"
        return f"m={self.m} edges={edges} vertex={self.vertex}"


@dataclass(frozen=True, init=False)
class Decomposition:
    """Hypercube parts of a sequence: XOR of parts reconstructs the input.

    ``structures`` is extracted from the parts on first read.  Every
    ``standard_decompose`` call builds one, so ``__init__`` writes the
    fields straight into the instance dict, past the frozen ``__setattr__``.
    Assignment still raises FrozenInstanceError.
    """

    parts: tuple[PeriodicSequence, ...]
    complexities: tuple[int, ...]

    def __init__(self, parts: tuple[PeriodicSequence, ...], complexities: tuple[int, ...]) -> None:
        fields = self.__dict__
        fields["parts"] = parts
        fields["complexities"] = complexities

    @cached_property
    def structures(self) -> tuple[HypercubeStructure, ...]:
        return tuple(map(extract_structure, self.parts))


# -- descent machinery -------------------------------------------------------
#
# Level vectors are int bitmasks.  vecs[k+1] came from the p parts of
# plen = p^e bits of vecs[k], (e, plen, ...) being row k of
# lincomp._levels(p, n), by the split branch iff e is an edge; lincomp._walk
# gives each level's e, with an increment of 0 exactly at a split.  A split kept
# part 0 of p equal parts, so each row of vecs[k+1] comes from all p copies.
# A sum XORed p parts that share no row, so each 1 of vecs[k+1] comes from
# the one part holding it in vecs[k].
#
# A rewrite descent makes every sum's parts share no row in two passes, and
# _peel is the one walk that makes it.  Down: it notes each sum that would
# cancel ones; its XOR goes on down as is.  Up, from the deepest such level,
# with plen read from the level's row: a noted level keeps the first 1 of
# each row (``_kept``), in its own level only, and every level vecs[k] &=
# vecs[k+1] spread over p parts (``_spread``; both shift by copies that
# double, about log2 p shifts a call); below level n - 1 lies the final
# scalar 1, all ones when spread over p one-bit parts.  Keeping first 1s and
# masking by whole rows commute, so the order is free.  Ones are only ever
# removed and each 1 below a sum has one source, so a level keeps exactly
# the sources of the ones that survive below it; even rows drop out because
# the XOR below a rewritten level holds only odd rows.
#
# The vertex stays an int mask too: the descent ends at vecs[-1], which is
# the scalar 1 when q is None (an element vertex) and the p parts of p^q bits
# of a tuple vertex of length q otherwise; l is its weight either way.  Only
# extract_structure builds a VertexDescriptor and HypercubeStructure from a
# descent; every other caller reads ok, edges, q or l, and _hypercube_lc
# prices a hypercube from q and edges alone.
#
# Three functions here walk the step layer, and none takes a mode.  Each
# keeps its own plan, built by lincomp._finish_plan, walks only the levels
# above the plan's table (_walk) and finishes with one read of it, as
# lincomp's answers do; where the table holds the whole descent (2^1-2^3,
# 3^1, 3^2, 5^1, 11^1) each is that one read.  _descend finishes from the
# _tail records themselves and builds the _Descent record that
# extract_structure, cube_lc, counting._class_key and kerror's closed forms
# read.  _peel makes the rewrite descent's walk and pass up but keeps no
# edges, vertex or record: it returns h_1 = vecs[0] and its complexity, the
# increments plus 1 at an element vertex, and standard_decompose loops it;
# it finishes from the (h, L) of each vector, the peel itself over the
# table's levels.  is_hypercube keeps only the level's weight and stops at
# the first sum that cancels ones; it finishes from each vector's verdict,
# by its own rule over the _tail rows, so the test of a peeled part does not
# rest on the peel.  A Decomposition keeps no descent, since a part's plain
# descent equals the rewrite descent that peeled it.
#
# A sum cancels ones exactly when it leaves fewer ones than the level it
# folds.  Each walk carries that level's weight instead of counting it
# again: a split divides it by p (p equal parts), and a sum, rewritten or
# not, leaves the weight of its XOR, so each sum takes one popcount.  A
# failed plain descent stops at the sum that cancels ones, so the depth it
# failed at is len(vecs).
#
# After a rewrite descent of s, vecs[0] is the leading hypercube h_1 of s and
# the descent equals the plain descent of h_1 (vecs, edges, vertex); s is a
# hypercube iff vecs[0] == s.  kerror's closed forms rely on this: they read
# h_1 from _peel and the rest from _descend of h_1.


@dataclass(slots=True)
class _Descent:
    vecs: list[int]
    ok: bool
    edges: tuple[int, ...] = ()
    q: int | None = None

    @property
    def l(self) -> int:
        return self.vecs[-1].bit_count()


def _spread(rows: int, p: int, plen: int) -> int:
    """The plen-bit mask rows repeated in each of p parts.  Each shift
    doubles the copies but the last, which overlaps them to make p, so
    ceil(log2 p) shifts make exactly p copies."""
    have = 1
    while 2 * have < p:
        rows |= rows << have * plen
        have *= 2
    return rows | rows << (p - have) * plen


def _kept(a: int, p: int, plen: int) -> int:
    """The first 1 of each row of a's p parts of plen bits, packed as in a:
    the one in the lowest part holding the row.  seen shifts a up one part,
    then doubles its copies until each part sees every part below it; a
    copy past part p - 1 meets no bit of a."""
    seen = a << plen
    have = 1
    while have < p - 1:
        seen |= seen << have * plen
        have *= 2
    return a & ~seen


def _descend(value: int, p: int, n: int) -> _Descent:
    """The plain descent of value.  It stops at the first sum that cancels
    ones, with ok False, so the depth it failed at is len(vecs).

    Its plan, ``_DESCENT_PLANS[p, n]``, is ``_finish_plan(p, n, _tail)``:
    the levels to walk and the records of the levels below them (the final
    scalar's empty rows from p = 13 on).  Where it walks no level (2^1-2^3,
    3^1, 3^2, 5^1 and 11^1) the records are the table's own row, read with
    no generator; elsewhere they come from the lazy walk of ``_walk``, so a
    descent that stops at a sum that cancels ones walks no further."""
    try:
        levels, tail = _DESCENT_PLANS[p, n]
    except KeyError:
        levels, tail = _DESCENT_PLANS[p, n] = _finish_plan(p, n, _tail)
    vecs, edges = [value], []
    q = None
    weight = value.bit_count()  # of vecs[-1] as the descent reached it
    for e, increment, a in _walk(value, levels, tail) if levels else tail[value]:
        if not increment:
            edges.append(e)
            weight //= p
        elif a == 0:
            # terminating zero-sum: the parts of vecs[-1] are the vertex
            q = e
            break
        elif a.bit_count() != weight:
            return _Descent(vecs, False)
        vecs.append(a)
    else:
        assert vecs[-1] == 1
    edges.reverse()
    return _Descent(vecs, True, tuple(edges), q)


_DESCENT_PLANS: dict[tuple[int, int], tuple[tuple, tuple]] = {}


def _peel(value: int, p: int, n: int) -> tuple[int, int]:
    """(h_1, L): the leading hypercube of nonzero value, vecs[0] of its
    rewrite descent, and its complexity L(value), the increments plus 1 at
    an element vertex.  It keeps no edges, vertex length or record.

    It walks only the levels of its plan, ``_PEEL_PLANS[p, n]``, and reads
    the (h, L) of the vector they leave from the plan's ``_peel_table``; at
    2^1-2^3, 3^1, 3^2, 5^1 and 11^1 the peel is that one read."""
    try:
        levels, peels = _PEEL_PLANS[p, n]
    except KeyError:
        levels, peels = _PEEL_PLANS[p, n] = _finish_plan(p, n, _peel_table)
    return _peeled(value, p, levels, peels) if levels else peels[value]


def _peeled(a: int, p: int, levels: tuple, peels: Seq[tuple[int, int]]) -> tuple[int, int]:
    """The peel of a over the given levels of ``_levels``, with peels the
    (h, L) of every vector those levels can leave.

    The walk notes each sum that cancels ones.  A zero sum ends it;
    otherwise the table's h replaces the vector it left (a itself over no
    level), and L adds the table's.  The pass up runs from the walked level
    just above the table when the table's h differs from its vector (a sum
    inside the table cancelled ones), else from the deepest walked level
    that cancelled ones: such a level keeps the first 1 of each row, and
    each level the sources of the ones below it."""
    vecs = [a]
    rewritten = 0  # bit k for each walked level k that cancelled ones
    deepest = -1  # the level the pass up starts at
    L = 0
    weight = a.bit_count()
    for _, increment, a in _walk(a, levels, None):
        L += increment
        if not increment:
            weight //= p
        elif a == 0:
            break
        elif (w := a.bit_count()) != weight:
            deepest = len(vecs) - 1
            rewritten |= 1 << deepest
            weight = w
        vecs.append(a)
    else:
        h, tail_L = peels[a]
        L += tail_L
        if h != a:
            vecs[-1] = h
            deepest = len(levels) - 1
    for k in range(deepest, -1, -1):
        plen = levels[k][1]
        a = _kept(vecs[k], p, plen) if rewritten >> k & 1 else vecs[k]
        vecs[k] = a & _spread(vecs[k + 1], p, plen)
    return vecs[0], L


def _verdict(records: Iterable[tuple], a: int, p: int, verdicts: bytes) -> bool:
    """``is_hypercube``'s rule over a descent's records from the vector a:
    True at a zero sum, False at a sum that cancels ones, else the verdict
    of the vector the records leave (a itself when there are none)."""
    weight = a.bit_count()
    for _, increment, a in records:
        if not increment:
            weight //= p
        elif a == 0:
            return True  # the zero sum that ends in a tuple vertex
        elif a.bit_count() != weight:
            return False
    return verdicts[a] == 1


# _peel and is_hypercube finish as lincomp's answers do: each walks only the
# levels of its plan and reads the vector they leave from a table built once
# per (p, t), t being the levels below them.  _PEEL_PLANS[p, n] =
# (levels, peels) and _TEST_PLANS[p, n] = (levels, verdicts), each built by
# lincomp's _finish_plan, the one rule that decides t for every table, so
# these plans walk the levels lincomp's do.  The final scalar is its own
# peel, complexity and verdict: these base rows finish every table's
# walks, and over zero levels they are the t = 0 tables.
_SCALAR_PEELS = [(0, 0), (1, 1)]
_SCALAR_VERDICTS = b"\x01\x01"
_PEEL_PLANS: dict[tuple[int, int], tuple[tuple, Seq[tuple[int, int]]]] = {}
_TEST_PLANS: dict[tuple[int, int], tuple[tuple, bytes]] = {}


@cache
def _peel_table(p: int, t: int) -> list[tuple[int, int]]:
    """The (h, L) of every vector of p^t bits: the peel itself over
    ``_levels(p, t)``, finishing at the final scalar.  Equal rows are one
    object.

    At t = 1 the parts are single bits and the peel has a closed form, so
    the 2048 rows at 11^1 are built without a walk each.  The zero
    vector and the all-ones one split and are their own peels (L 0 and 1).
    Any other vector sums to its weight's parity: an even one ends there and
    is its own peel (L p - 1); an odd one keeps its lowest 1 (L p)."""
    shared: dict = {}
    if t == 1:
        rows = ((v & -v, p) if v.bit_count() & 1 else (v, p - 1) for v in range(1 << p))
        table = [shared.setdefault(row, row) for row in rows]
        table[0], table[-1] = _SCALAR_PEELS[0], (len(table) - 1, 1)
        return table
    levels = _levels(p, t)
    rows = (_peeled(v, p, levels, _SCALAR_PEELS) for v in range(1 << p**t))
    return [shared.setdefault(row, row) for row in rows]


@cache
def _verdict_table(p: int, t: int) -> bytes:
    """``is_hypercube`` of every vector of p^t bits, 1 or 0, by the weight
    rule over its ``_tail`` row.  It reads no peel, so that a test of a
    peeled part does not rest on the peel that made it."""
    rows = enumerate(_tail(p, t))
    return bytes(_verdict(row, v, p, _SCALAR_VERDICTS) for v, row in rows)


def _expand_flip(desc: _Descent, p: int, n: int, flips: int) -> int:
    """Positions of the p^n period that must toggle so the terminal-level bits
    in flips do.

    A split level repeats each bit in all p parts; at a sum level a 1 traces
    back to its unique source and a zero row is routed through part 0.
    """
    vecs, levels = desc.vecs, _levels(p, n)
    for k in range(len(vecs) - 2, -1, -1):
        e, plen = levels[k][:2]
        spread = _spread(flips, p, plen)
        flips = spread if e in desc.edges else (spread & vecs[k]) | (flips & ~vecs[k + 1])
    return flips


def is_hypercube(s: PeriodicSequence) -> bool:
    """True iff no XOR step of the descent cancels ones, except the zero-sum
    step that terminates in a tuple vertex.  The walk tracks the level's
    weight alone and stops at the first sum that cancels ones.  It walks
    only the levels of its plan, ``_TEST_PLANS[p, n]``, and reads the
    verdict of the vector they leave from the plan's ``_verdict_table``; at
    2^1-2^3, 3^1, 3^2, 5^1 and 11^1 the test is that one read."""
    require_nonzero(s)
    modulus, value = s.modulus, s.value
    p, n = modulus.p, modulus.n
    try:
        levels, verdicts = _TEST_PLANS[p, n]
    except KeyError:
        levels, verdicts = _TEST_PLANS[p, n] = _finish_plan(p, n, _verdict_table)
    if levels:
        return _verdict(_walk(value, levels, None), value, p, verdicts)
    return verdicts[value] == 1


def extract_structure(s: PeriodicSequence) -> HypercubeStructure:
    """Structure (edges, vertex) of a hypercube; NotAHypercube otherwise."""
    require_nonzero(s)
    p = s.modulus.p
    desc = _descend(s.value, p, s.modulus.n)
    if not desc.ok:
        raise NotAHypercube(f"cancellation at depth {len(desc.vecs)} of the descent")
    if desc.q is None:
        vertex = VertexDescriptor()
    else:
        size = p**desc.q
        a, mask = desc.vecs[-1], (1 << size) - 1
        blocks = tuple(_bits((a >> (i * size)) & mask, size) for i in range(p))
        vertex = VertexDescriptor(desc.q, blocks)
    return HypercubeStructure(desc.edges, vertex)


def _hypercube_lc(p: int, n: int, q: int | None, edges: Seq[int]) -> int:
    """L = p^n - p^q - (p-1) * sum(p^i for i in edges) for a tuple vertex of
    length q; an element vertex (q None) has no p^q term."""
    return p**n - (0 if q is None else p**q) - (p - 1) * sum(map(p.__pow__, edges))


def _valid_edges(edges, lo: int, n: int) -> tuple[int, ...]:
    """The edges, read once, as a sorted tuple of distinct ints in [lo, n);
    InvalidEdges otherwise.  lo is the vertex's first free exponent."""
    try:
        given = tuple(edges)
    except TypeError:  # not iterable
        raise InvalidEdges(f"edge exponents must be ints; got {edges!r}") from None
    if any(type(i) is not int for i in given):
        raise InvalidEdges(f"edge exponents must be ints; got {given!r}")
    out = tuple(sorted(given))
    if any(a == b for a, b in zip(out, out[1:])):
        raise InvalidEdges(f"duplicate edge exponents in {given}")
    if out and not (lo <= out[0] and out[-1] < n):
        raise InvalidEdges(f"edge exponents {out} outside [{lo}, {n - 1}]")
    return out


def _first_free(h: HypercubeStructure, modulus: Modulus) -> int:
    """The first exponent h's vertex leaves free, 0 for an element and
    q + 1 for a tuple, once h fits the modulus (see lc_from_structure)."""
    _require_modulus(modulus)
    v, lo = h.vertex, 0
    if v.q is not None:
        if len(v.blocks) != modulus.p or v.q >= modulus.n:
            raise ModulusMismatch(
                f"tuple vertex of {len(v.blocks)} blocks, q={v.q}, does not fit {modulus}"
            )
        lo = v.q + 1
    _valid_edges(h.edges, lo, modulus.n)
    return lo


def lc_from_structure(h: HypercubeStructure, modulus: Modulus) -> int:
    """Closed-form linear complexity of a hypercube with structure h.

    h must fit the modulus: ModulusMismatch for a modulus that is not a
    Modulus or a tuple vertex without p blocks or with q >= n, InvalidEdges
    for an edge outside [lo, n), lo being 0 for an element vertex and q + 1
    for a tuple vertex."""
    _first_free(h, modulus)
    return _hypercube_lc(modulus.p, modulus.n, h.vertex.q, h.edges)


def next_lower_hypercube_lc(h: HypercubeStructure, modulus: Modulus) -> int:
    """Largest LC below lc_from_structure(h) attainable by a hypercube with
    the same vertex and an edge set extending h's: add the smallest eligible
    exponent.  Hypercubes with unrelated edge sets can land in between.
    h must fit the modulus, as for lc_from_structure."""
    lo = _first_free(h, modulus)
    free = next((i for i in range(lo, modulus.n) if i not in h.edges), None)
    if free is None:
        raise NoEligibleExponent(f"no exponent available beyond edges {h.edges}")
    return _hypercube_lc(modulus.p, modulus.n, h.vertex.q, (free, *h.edges))


def standard_decompose(s: PeriodicSequence) -> Decomposition:
    """Peel hypercubes with strictly decreasing linear complexities.

    parts[0] keeps the full complexity of s; XOR of all parts equals s.
    Each part and its complexity come from one peel of the residue, which
    builds no descent record.  The peel plan is looked up once per call:
    where it walks no level (2^1-2^3, 3^1, 3^2, 5^1 and 11^1) each peel is
    one read of its table, elsewhere ``_peeled`` walks the plan's levels.
    At p = 2 the leading complexity is checked against ``lc``'s halving, an
    engine the peel does not share.  At odd p ``lc`` would walk the same
    levels as the first peel, so s is not walked a second time; the
    decomposition suite compares the leading complexity with ``lc(s)``.
    """
    require_nonzero(s)
    modulus = s.modulus
    p, n = modulus.p, modulus.n
    try:
        levels, peels = _PEEL_PLANS[p, n]
    except KeyError:
        levels, peels = _PEEL_PLANS[p, n] = _finish_plan(p, n, _peel_table)
    complexities: list[int] = []
    parts: list[PeriodicSequence] = []
    residue = s.value
    for _ in range(modulus.period + 1):
        if residue == 0:
            break
        h, L = _peeled(residue, p, levels, peels) if levels else peels[residue]
        assert not complexities or L < complexities[-1]  # strictly decreasing
        complexities.append(L)
        parts.append(PeriodicSequence(modulus, h))
        residue ^= h
    else:  # pragma: no cover - descent always strictly reduces the residue
        raise AssertionError("decomposition failed to terminate")
    if p == 2:
        assert complexities[0] == _lc_value(s.value, 2, n)
    return Decomposition(tuple(parts), tuple(complexities))


# -- p = 2 cubes --------------------------------------------------------------

def cube_lc(s: PeriodicSequence) -> tuple[int, tuple[int, ...], int]:
    """(m, edges, L) of a 2^n-periodic sequence whose support is an m-cube.

    The Games-Chan descent must keep the weight through every XOR step and
    end at the scalar 1; edges are the exponents of the halving depths whose
    halves were equal.  L = 2^n - sum(2^i for i in edges).
    """
    if s.modulus.p != 2:
        raise OddP("cube_lc requires p = 2")
    if s.value == 0:
        raise NotACube("zero sequence has no cube support")
    n = s.modulus.n
    desc = _descend(s.value, 2, n)
    if not desc.ok:
        raise NotACube(f"cancellation at halving depth {len(desc.vecs)}")
    return len(desc.edges), desc.edges, _hypercube_lc(2, n, None, desc.edges)

"""Hypercube structure of p^n-periodic binary sequences.

Run the p-way divide-and-sum descent on a sequence.  At each depth the
current vector ``a`` splits into p parts ``A_0..A_{p-1}``; either all parts
are equal (keep ``A_0``) or they are XORed.  A sequence is a *hypercube* when
no XOR step cancels ones, except a single terminating step whose XOR is the
zero vector.  The descent then ends in a *vertex*: either the scalar 1 (an
element vertex) or the p-tuple of parts at the zero-sum step (a tuple vertex
of length q, where the parts have length p^q).

Each depth whose split branch was taken contributes an *edge* of p-adic
length p^(n-l); an m-hypercube has m edges and p^m translated copies of its
vertex.  The linear complexity follows from the structure alone:

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
so every surviving one has a unique source (``rebalance_blocks`` does the
same to p blocks).  The peeled part keeps the full linear complexity of the
input; the residue is strictly simpler, so recursion yields parts with
strictly decreasing complexities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor
from typing import Sequence as Seq

from .errors import (
    InvalidEdges,
    IsVertex,
    ModulusMismatch,
    NoEligibleExponent,
    NotACube,
    NotAHypercube,
    OddP,
)
from .lincomp import _lc_value, _levels, _steps
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
    "VertexKind",
    "cube_lc",
    "extract_structure",
    "is_hypercube",
    "lc_from_structure",
    "next_lower_hypercube_lc",
    "rebalance_blocks",
    "standard_decompose",
]


class VertexKind(enum.Enum):
    ELEMENT = "element"
    TUPLE = "tuple"


@dataclass(frozen=True)
class VertexDescriptor:
    """Terminal state of the descent.

    Element vertices carry no payload.  Tuple vertices carry the p parts of
    the zero-sum step (each p^q entries of 0 or 1); every row across the
    parts has even parity and at least one row is nonzero.

    ``_mask`` packs the vertex as the descent does: 1 for an element, and
    bit i * p^q + u is row u of block i for a tuple.  It is no dataclass
    field, so equality, hash and repr read only kind, q and blocks.
    """

    kind: VertexKind
    q: int | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind is VertexKind.ELEMENT:
            if self.q is not None or self.blocks is not None:
                raise ValueError("element vertex carries no blocks")
            self.__dict__["_mask"] = 1
            return
        if self.kind is not VertexKind.TUPLE:
            raise ValueError(f"vertex kind must be a VertexKind; got {self.kind!r}")
        if self.q is None or self.blocks is None:
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
        if self.kind is VertexKind.ELEMENT:
            return "element"
        assert self.blocks is not None
        parts = b",".join(map(bytes, self.blocks)).translate(_TO_DIGIT).decode()
        return f"tuple(q={self.q}, [{parts}])"


@dataclass(frozen=True)
class HypercubeStructure:
    """Dimension, edge exponents, and vertex of a hypercube."""

    m: int
    edges: tuple[int, ...]
    vertex: VertexDescriptor

    def __post_init__(self) -> None:
        if type(self.m) is not int:
            raise ValueError(f"m must be an int; got {self.m!r}")
        if not isinstance(self.edges, tuple):
            raise InvalidEdges(f"edge exponents must be a tuple; got {self.edges!r}")
        if any(type(i) is not int for i in self.edges):
            raise InvalidEdges(f"edge exponents must be ints; got {self.edges!r}")
        if self.m != len(self.edges):
            raise ValueError(f"m={self.m} but {len(self.edges)} edges")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(f"edges not strictly increasing: {self.edges}")
        if not isinstance(self.vertex, VertexDescriptor):
            raise ValueError(f"vertex must be a VertexDescriptor; got {self.vertex!r}")

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
# Level vectors are int bitmasks: vecs[k] holds p^(n-k) bits, and vecs[k+1]
# came from the p parts of plen = lincomp._levels(p, n)[k][0] bits of vecs[k],
# by the split branch iff its exponent n - 1 - k is an edge; the levels come
# from lincomp._steps.  A split kept part 0 of p equal parts, so each row of
# vecs[k+1] comes from all p copies.  A sum XORed p parts that share no row,
# so each 1 of vecs[k+1] comes from the one part holding it in vecs[k].
#
# A rewrite descent makes every sum's parts share no row in two passes.
# Down: a sum that would cancel ones keeps the first 1 of each row (``_kept``:
# p - 1 shifts of a into its later parts), in its own level only.  Up, from the
# deepest such level: vecs[k] &= vecs[k+1] spread over p parts.  Ones are only
# ever removed and each 1 below a sum has one source, so a level keeps exactly
# the sources of the ones that survive below it; even rows drop out because
# the XOR below a rewritten level holds only odd rows.
#
# The vertex stays an int mask too: the descent ends at vecs[-1], which is
# the scalar 1 when q is None (an element vertex) and the p parts of p^q bits
# of a tuple vertex of length q otherwise; l is its weight either way.  Only
# extract_structure builds a VertexDescriptor and HypercubeStructure from a
# descent; every other caller reads ok, edges, q or l, and _hypercube_lc
# prices a hypercube from q and edges.  A Decomposition keeps no descent,
# since a part's plain descent equals the rewrite descent that peeled it.
#
# A sum cancels ones exactly when it leaves fewer ones than the level it
# folds.  The descent carries that level's weight instead of counting it
# again: a split divides it by p (p equal parts), and a sum, rewritten or
# not, leaves the weight of its XOR, so each sum takes one popcount.  A
# failed plain descent stops at the sum that cancels ones, so the depth it
# failed at is len(vecs).
#
# After a rewrite descent of s, vecs[0] is the leading hypercube h_1 of s and
# the descent equals the plain descent of h_1 (vecs, edges, vertex); s is a
# hypercube iff vecs[0] == s.  kerror's closed forms rely on this.


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
    """The plen-bit mask rows repeated in each of p parts."""
    out = rows
    for i in range(plen, p * plen, plen):
        out |= rows << i
    return out


def _kept(a: int, p: int, plen: int) -> int:
    """The first 1 of each row of a's p parts of plen bits, packed as in a:
    the one in the lowest part holding the row."""
    seen = 0
    for i in range(plen, p * plen, plen):
        seen |= a << i  # each part's ones, shifted into every later part
    return a & ~seen


def _descend(value: int, p: int, n: int, rewrite: bool) -> _Descent:
    """Run the descent; with rewrite=True cancellations are repaired in place."""
    vecs, edges = [value], []
    q = None
    deepest = -1
    weight = value.bit_count()  # of vecs[-1] as the descent reached it
    e = n  # after the decrement, the level's part length is p^e
    for plen, split, a in _steps(value, p, n):
        e -= 1
        if split:
            edges.append(e)
            weight //= p
        elif a == 0:
            # terminating zero-sum: the parts of vecs[-1] are the vertex
            q = e
            break
        elif (w := a.bit_count()) != weight:
            if not rewrite:
                return _Descent(vecs, False)
            vecs[-1] = _kept(vecs[-1], p, plen)
            deepest = len(vecs) - 1
            weight = w
        vecs.append(a)
    else:
        assert vecs[-1] == 1
    edges.reverse()
    if deepest >= 0:
        # the pass up: each level keeps the sources of the ones below it
        levels = _levels(p, n)
        for k in range(deepest, -1, -1):
            vecs[k] &= _spread(vecs[k + 1], p, levels[k][0])
    return _Descent(vecs, True, tuple(edges), q)


def _expand_flip(desc: _Descent, p: int, n: int, flips: int) -> int:
    """Positions of the p^n period that must toggle so the terminal-level bits
    in flips do.

    A split level repeats each bit in all p parts; at a sum level a 1 traces
    back to its unique source and a zero row is routed through part 0.
    """
    vecs, levels = desc.vecs, _levels(p, n)
    for k in range(len(vecs) - 2, -1, -1):
        spread = _spread(flips, p, levels[k][0])
        split = n - 1 - k in desc.edges
        flips = spread if split else (spread & vecs[k]) | (flips & ~vecs[k + 1])
    return flips


def is_hypercube(s: PeriodicSequence) -> bool:
    """True iff no XOR step of the descent cancels ones, except the zero-sum
    step that terminates in a tuple vertex."""
    require_nonzero(s)
    modulus = s.modulus
    return _descend(s.value, modulus.p, modulus.n, rewrite=False).ok


def extract_structure(s: PeriodicSequence) -> HypercubeStructure:
    """Structure (m, edges, vertex) of a hypercube; NotAHypercube otherwise."""
    require_nonzero(s)
    p = s.modulus.p
    desc = _descend(s.value, p, s.modulus.n, rewrite=False)
    if not desc.ok:
        raise NotAHypercube(f"cancellation at depth {len(desc.vecs)} of the descent")
    if desc.q is None:
        vertex = VertexDescriptor(VertexKind.ELEMENT)
    else:
        size = p**desc.q
        a, mask = desc.vecs[-1], (1 << size) - 1
        blocks = tuple(_bits((a >> (i * size)) & mask, size) for i in range(p))
        vertex = VertexDescriptor(VertexKind.TUPLE, desc.q, blocks)
    return HypercubeStructure(len(desc.edges), desc.edges, vertex)


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
    if v.kind is VertexKind.TUPLE:
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


def rebalance_blocks(
    blocks: Seq[Seq[int]],
) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """Rewrite p blocks so their supports are disjoint, preserving the XOR.

    Rows with odd parity keep their first 1 and lose the rest; even rows are
    cleared entirely.  Returns the rewritten blocks and the map from each
    surviving row to the block that kept its 1.  Raises IsVertex when the
    XOR is already zero (nothing survives a rewrite) and ValueError when the
    blocks are not a sequence of sequences, there are fewer than 2 blocks, an
    entry is not 0 or 1, or the blocks are all equal (the descent would not
    XOR them).
    """
    try:
        if len(blocks) < 2:
            raise ValueError("rewrite needs at least 2 blocks")
        rows = len(blocks[0])
        uneven = any(len(b) != rows for b in blocks)
    except TypeError:  # blocks, or a block, with no length or no indexing
        raise ValueError(f"blocks must be a sequence of sequences; got {blocks!r}") from None
    if uneven:
        raise ValueError("blocks must have equal length")
    p = len(blocks)
    packed = _row_mask([bit for b in blocks for bit in b])
    if packed is None:
        raise ValueError("block entries must be 0 or 1")
    mask = (1 << rows) - 1
    parts = [packed >> (i * rows) & mask for i in range(p)]
    if all(v == parts[0] for v in parts[1:]):
        raise ValueError("blocks are all equal; rewrite applies to the XOR branch")
    kept = _kept(packed, p, rows) & _spread(reduce(xor, parts), p, rows)
    if kept == 0:
        raise IsVertex("blocks already sum to the zero vector")
    out = tuple(_bits(kept >> (i * rows) & mask, rows) for i in range(p))
    sources = {t: i for t in range(rows) for i, b in enumerate(out) if b[t]}
    return out, sources


def standard_decompose(s: PeriodicSequence) -> Decomposition:
    """Peel hypercubes with strictly decreasing linear complexities.

    parts[0] keeps the full complexity of s; XOR of all parts equals s.
    """
    require_nonzero(s)
    modulus = s.modulus
    p, n = modulus.p, modulus.n
    complexities: list[int] = []
    parts: list[PeriodicSequence] = []
    residue = s.value
    for _ in range(modulus.period + 1):
        if residue == 0:
            break
        desc = _descend(residue, p, n, rewrite=True)
        h = desc.vecs[0]
        complexities.append(_hypercube_lc(p, n, desc.q, desc.edges))
        parts.append(PeriodicSequence(modulus, h))
        residue ^= h
    else:  # pragma: no cover - descent always strictly reduces the residue
        raise AssertionError("decomposition failed to terminate")
    # strictly decreasing: no repeat, and already in descending order
    assert complexities == sorted(set(complexities), reverse=True)
    assert complexities[0] == _lc_value(s.value, p, n)
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
    desc = _descend(s.value, 2, n, rewrite=False)
    if not desc.ok:
        raise NotACube(f"cancellation at halving depth {len(desc.vecs)}")
    return len(desc.edges), desc.edges, _hypercube_lc(2, n, None, desc.edges)

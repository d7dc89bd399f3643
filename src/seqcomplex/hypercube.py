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

with eps = 1 for element vertices and (1-p)*(p^0+...+p^(q-1)) for tuple
vertices of length q, which is 0 at q = 0 (the empty sum).

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence as Seq

from .errors import EvenP, IsVertex, NoEligibleExponent, NotACube, NotAHypercube, OddP
from .lincomp import _lc_value, _steps
from .sequences import _TO_BIT, Modulus, PeriodicSequence, require_nonzero

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
    """

    kind: VertexKind
    q: int | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind is VertexKind.ELEMENT:
            if self.q is not None or self.blocks is not None:
                raise ValueError("element vertex carries no blocks")
            return
        if self.q is None or self.blocks is None:
            raise ValueError("tuple vertex needs q and blocks")
        p = len(self.blocks)
        if p < 2:
            raise ValueError("tuple vertex needs at least 2 blocks")
        size = p**self.q
        if any(len(b) != size for b in self.blocks):
            raise ValueError(f"blocks must all have length p^q = {size}")
        # one byte per row: byte u of the XOR of the blocks is row u's parity
        rows = _bit_rows(self.blocks)
        if not any(1 in r for r in rows):
            raise ValueError("tuple vertex must be nonzero")
        odd = 0
        for r in rows:
            odd ^= int.from_bytes(r, "little")
        if odd:
            u = ((odd & -odd).bit_length() - 1) // 8
            raise ValueError(f"row {u} has odd parity; blocks do not sum to zero")

    @property
    def l(self) -> int:
        """Nonzero count: 1 for element vertices, total ones for tuples."""
        if self.kind is VertexKind.ELEMENT:
            return 1
        assert self.blocks is not None
        return sum(sum(b) for b in self.blocks)

    @property
    def epsilon(self) -> int:
        if self.kind is VertexKind.ELEMENT:
            return 1
        assert self.q is not None and self.blocks is not None
        return _epsilon(len(self.blocks), self.q)

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
        if self.m != len(self.edges):
            raise ValueError(f"m={self.m} but {len(self.edges)} edges")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(f"edges not strictly increasing: {self.edges}")

    @property
    def epsilon(self) -> int:
        return self.vertex.epsilon

    def __str__(self) -> str:
        edges = ",".join(map(str, self.edges)) if self.edges else "-"
        return f"m={self.m} edges={edges} vertex={self.vertex}"


@dataclass(frozen=True)
class Decomposition:
    """Hypercube parts of a sequence: XOR of parts reconstructs the input.

    ``structures`` is built from the parts' descents on first read.
    """

    parts: tuple[PeriodicSequence, ...]
    complexities: tuple[int, ...]
    _descents: tuple[_Descent, ...] = field(repr=False, compare=False)

    @cached_property
    def structures(self) -> tuple[HypercubeStructure, ...]:
        return tuple(d.structure for d in self._descents)


# -- descent machinery -------------------------------------------------------
#
# Level vectors are int bitmasks: vecs[k] holds p^(n-k) bits, and records[k]
# = (plen, split) says how vecs[k+1] was derived from the p parts of plen
# bits of vecs[k]; the levels come from lincomp._steps.  A split kept part 0
# of p equal parts, so each row of vecs[k+1] comes from all p copies.  A sum
# XORed p parts that share no row, so each 1 of vecs[k+1] comes from the one
# part holding it in vecs[k].
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
# of a tuple vertex of length q otherwise; l is its weight either way.  The
# VertexDescriptor and HypercubeStructure are built on first read of .vertex
# or .structure, at most once, so callers that read only ok, edges, q, l or
# epsilon (is_hypercube, standard_decompose's complexities) never build them.
#
# After a rewrite descent of s, vecs[0] is the leading hypercube h_1 of s and
# the descent equals the plain descent of h_1 (vecs, records, edges, vertex);
# s is a hypercube iff vecs[0] == s.  kerror's closed forms rely on this.


@dataclass
class _Descent:
    p: int
    vecs: list[int]
    records: list[tuple[int, bool]] = field(default_factory=list)
    ok: bool = True
    edges: tuple[int, ...] = ()
    q: int | None = None
    fail_depth: int | None = None

    @property
    def l(self) -> int:
        return self.vecs[-1].bit_count()

    @property
    def epsilon(self) -> int:
        return _epsilon(self.p, self.q)

    @cached_property
    def vertex(self) -> VertexDescriptor:
        assert self.ok
        if self.q is None:
            return VertexDescriptor(VertexKind.ELEMENT)
        size = self.p**self.q
        a, mask = self.vecs[-1], (1 << size) - 1
        blocks = tuple(_bits((a >> (i * size)) & mask, size) for i in range(self.p))
        return VertexDescriptor(VertexKind.TUPLE, self.q, blocks)

    @cached_property
    def structure(self) -> HypercubeStructure:
        return HypercubeStructure(len(self.edges), self.edges, self.vertex)


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


_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def _bits(mask: int, length: int) -> tuple[int, ...]:
    return tuple(format(mask, f"0{length}b")[::-1].encode().translate(_TO_BIT))


def _bit_rows(blocks: Seq[Seq[int]]) -> list[bytes]:
    """Each block as bytes, one per entry; ValueError unless every entry is an
    integer (an int or a bool) equal to 0 or 1."""
    try:
        rows = [bytes(b) for b in blocks]
    except (TypeError, ValueError):  # an entry that is no int, or outside 0..255
        raise ValueError("block entries must be 0 or 1") from None
    if any(r.translate(None, b"\x00\x01") for r in rows):
        raise ValueError("block entries must be 0 or 1")
    return rows


def _epsilon(p: int, q: int | None) -> int:
    """1 for an element vertex (q None); (1-p)(p^0+...+p^(q-1)) = 1 - p^q for
    a tuple vertex of length q."""
    return 1 if q is None else 1 - p**q


def _descend(value: int, p: int, n: int, rewrite: bool) -> _Descent:
    """Run the descent; with rewrite=True cancellations are repaired in place."""
    desc = _Descent(p, [value])
    vecs, records = desc.vecs, desc.records
    edges: list[int] = []
    deepest = -1
    for depth, (plen, split, a) in enumerate(_steps(value, p, n), 1):
        if split:
            edges.insert(0, n - depth)
        elif a == 0:
            # terminating zero-sum: the parts of vecs[-1] are the vertex
            desc.q = n - depth
            break
        elif a.bit_count() != vecs[-1].bit_count():
            if not rewrite:
                desc.ok, desc.fail_depth = False, depth
                return desc
            vecs[-1] = _kept(vecs[-1], p, plen)
            deepest = len(vecs) - 1
        records.append((plen, split))
        vecs.append(a)
    else:
        assert vecs[-1] == 1
    # the pass up: each level keeps the sources of the ones below it
    for k in range(deepest, -1, -1):
        vecs[k] &= _spread(vecs[k + 1], p, records[k][0])
    desc.edges = tuple(edges)
    return desc


def _expand_flip(desc: _Descent, flips: int) -> int:
    """Period positions that must toggle so the terminal-level bits in flips do.

    A split record repeats each bit in all p parts; at a sum record a 1 traces
    back to its unique source and a zero row is routed through part 0.
    """
    vecs = desc.vecs
    for k in range(len(vecs) - 2, -1, -1):
        plen, split = desc.records[k]
        spread = _spread(flips, desc.p, plen)
        flips = spread if split else (spread & vecs[k]) | (flips & ~vecs[k + 1])
    return flips


def _require_odd_nonzero(s: PeriodicSequence) -> None:
    if s.modulus.p == 2:
        raise EvenP("hypercube structure is defined for odd p; use cube_lc for p = 2")
    require_nonzero(s)


def is_hypercube(s: PeriodicSequence) -> bool:
    """True iff no XOR step of the descent cancels ones, except the zero-sum
    step that terminates in a tuple vertex."""
    _require_odd_nonzero(s)
    return _descend(s.value, s.modulus.p, s.modulus.n, rewrite=False).ok


def extract_structure(s: PeriodicSequence) -> HypercubeStructure:
    """Structure (m, edges, vertex) of a hypercube; NotAHypercube otherwise."""
    _require_odd_nonzero(s)
    desc = _descend(s.value, s.modulus.p, s.modulus.n, rewrite=False)
    if not desc.ok:
        raise NotAHypercube(
            f"cancellation at depth {desc.fail_depth} of the descent"
        )
    return desc.structure


def _hypercube_lc(p: int, n: int, eps: int, edges: Seq[int]) -> int:
    """L = eps - 1 + p^n - (p-1) * sum(p^i for i in edges)."""
    return eps - 1 + p**n - (p - 1) * sum(p**i for i in edges)


def lc_from_structure(h: HypercubeStructure, modulus: Modulus) -> int:
    """Closed-form linear complexity of a hypercube with structure h."""
    return _hypercube_lc(modulus.p, modulus.n, h.epsilon, h.edges)


def _eligible_exponents(h: HypercubeStructure, n: int) -> list[int]:
    v = h.vertex
    if v.kind is VertexKind.ELEMENT:
        lo = 0
    else:
        assert v.q is not None
        lo = v.q + 1
    return [i for i in range(lo, n) if i not in h.edges]

def next_lower_hypercube_lc(h: HypercubeStructure, modulus: Modulus) -> int:
    """Largest LC below lc_from_structure(h) attainable by a hypercube with
    the same vertex and an edge set extending h's: add the smallest eligible
    exponent.  Hypercubes with unrelated edge sets can land in between."""
    candidates = _eligible_exponents(h, modulus.n)
    if not candidates:
        raise NoEligibleExponent(f"no exponent available beyond edges {h.edges}")
    return _hypercube_lc(modulus.p, modulus.n, h.epsilon, (candidates[0], *h.edges))


def rebalance_blocks(
    blocks: Seq[Seq[int]],
) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """Rewrite p blocks so their supports are disjoint, preserving the XOR.

    Rows with odd parity keep their first 1 and lose the rest; even rows are
    cleared entirely.  Returns the rewritten blocks and the map from each
    surviving row to the block that kept its 1.  Raises IsVertex when the
    XOR is already zero (nothing survives a rewrite) and ValueError when there
    are fewer than 2 blocks, an entry is not 0 or 1, or the blocks are all
    equal (the descent would not XOR them).
    """
    if len(blocks) < 2:
        raise ValueError("rewrite needs at least 2 blocks")
    rows = len(blocks[0])
    if any(len(b) != rows for b in blocks):
        raise ValueError("blocks must have equal length")
    bits = _bit_rows(blocks)
    if all(b == bits[0] for b in bits[1:]):
        raise ValueError("blocks are all equal; rewrite applies to the XOR branch")
    parts = [sum(1 << t for t, bit in enumerate(b) if bit) for b in bits]
    x = 0
    for part in parts:
        x ^= part
    p = len(parts)
    packed = sum(v << (i * rows) for i, v in enumerate(parts))
    kept = _kept(packed, p, rows) & _spread(x, p, rows)
    if kept == 0:
        raise IsVertex("blocks already sum to the zero vector")
    mask = (1 << rows) - 1
    out = tuple(_bits(kept >> (i * rows) & mask, rows) for i in range(p))
    sources = {t: i for t in range(rows) for i, b in enumerate(out) if b[t]}
    return out, sources


def standard_decompose(s: PeriodicSequence) -> Decomposition:
    """Peel hypercubes with strictly decreasing linear complexities.

    parts[0] keeps the full complexity of s; XOR of all parts equals s.
    """
    _require_odd_nonzero(s)
    p, n = s.modulus.p, s.modulus.n
    descents: list[_Descent] = []
    complexities: list[int] = []
    residue = s.value
    for _ in range(s.modulus.period + 1):
        if residue == 0:
            break
        desc = _descend(residue, p, n, rewrite=True)
        assert desc.ok
        descents.append(desc)
        complexities.append(_hypercube_lc(p, n, desc.epsilon, desc.edges))
        residue ^= desc.vecs[0]
    else:  # pragma: no cover - descent always strictly reduces the residue
        raise AssertionError("decomposition failed to terminate")
    assert all(a > b for a, b in zip(complexities, complexities[1:]))
    acc = 0
    for desc in descents:
        acc ^= desc.vecs[0]
    assert acc == s.value
    assert complexities[0] == _lc_value(s.value, p, n)
    parts = tuple(PeriodicSequence(s.modulus, d.vecs[0]) for d in descents)
    return Decomposition(parts, tuple(complexities), tuple(descents))


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
        raise NotACube(f"cancellation at halving depth {desc.fail_depth}")
    return len(desc.edges), desc.edges, _hypercube_lc(2, n, 1, desc.edges)

"""How many sequences share a complexity, and how many hypercubes a shape.

For odd p the number of p^n-periodic binary sequences with complexity
L = eps + (p-1) * sum(p^(v-1), v in V) factors over the exponent set:

    N(L) = prod(2^((p-1) * p^(v-1)) - 1, v in V)

Hypercube counts depend only on the edge exponents and the vertex class.
With edges i_1 < ... < i_m the *capacity*

    E = p^m * n - sum((p^t - p^(t-1)) * i_t) - (p + p^2 + ... + p^m)

gives p^E hypercubes with an element vertex, and C(p, l) * p^((E-1)*l) with
a length-0 tuple vertex of weight l (l even, edges all >= 1).  The 2^n cubes
are the p = 2 case, whose only class is the element one: 2^E cubes (an even l
in (1, 2) does not exist).  So every function here but the per-complexity
count serves every p, the 2^n cubes included.  The counted classes are
defined here alone: ``_classes`` lists them and ``_class_key`` names one.

``enumerate_hypercubes`` is the one enumerator (the command line's ``count
hypercubes`` and ``count cubes`` and the counting suite all call it).  It
builds every member of a class constructively, bottom-up from the vertex: an
edge level repeats the current vector p times, any other level splits each 1
into one of the p blocks.  Every public function here refuses a modulus that
is not a ``Modulus``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator

from .errors import (
    _EXACT_UP_TO,
    ENUM_CAP,
    BudgetExceeded,
    EvenP,
    InvalidL,
    _check_cap,
)
from .hypercube import _descend, _hypercube_lc, _spread, _valid_edges
from .lincomp import lc_form_decompose
from .sequences import Modulus, PeriodicSequence, _require_modulus

__all__ = [
    "CountResult",
    "class_lc",
    "count_hypercubes",
    "count_sequences_with_lc",
    "enumerate_hypercubes",
]


@dataclass(frozen=True)
class CountResult:
    """A count together with the factored expression it came from."""

    value: int
    expression: str

    def __str__(self) -> str:
        return f"{self.value} = {self.expression}"


def _capacity(p: int, n: int, edges: tuple[int, ...]) -> int:
    m = len(edges)
    E = p**m * n - sum(p**t for t in range(1, m + 1))
    for t, i in enumerate(edges, start=1):
        E -= (p**t - p ** (t - 1)) * i
    return E


def _classes(modulus: Modulus) -> Iterator[tuple[tuple[int, ...], int | None]]:
    """Every counted class (edges, l): edge sets by size, and for each the
    element class (l None), then each even l in (1, p) if every edge is >= 1."""
    for r in range(modulus.n + 1):
        for edges in combinations(range(modulus.n), r):
            yield edges, None
            yield from ((edges, l) for l in range(2, modulus.p, 2) if 0 not in edges)


def _class_edges(modulus: Modulus, edges, l: int | None) -> tuple[int, ...]:
    """The sorted edges of the class (edges, l), once the modulus, l and edges
    are valid."""
    _require_modulus(modulus)
    if l is not None and not (type(l) is int and 1 < l < modulus.p and l % 2 == 0):
        raise InvalidL(f"length-0 vertex weight must be even in (1, {modulus.p}); got {l}")
    return _valid_edges(edges, 0 if l is None else 1, modulus.n)


def count_sequences_with_lc(modulus: Modulus, L: int) -> CountResult:
    """Number of sequences of the given period with complexity exactly L.

    Odd p only.  L must be an attainable int (canonically representable);
    the counts over all attainable L sum to 2^(p^n).
    """
    _require_modulus(modulus)
    if modulus.p == 2:
        raise EvenP("per-complexity counting is an odd-p result")
    form = lc_form_decompose(L, modulus)
    p = modulus.p
    value = 1
    factors = []
    for v in sorted(form.exponents):
        e = (p - 1) * p ** (v - 1)
        value *= (1 << e) - 1
        factors.append(f"(2^{e} - 1)")
    return CountResult(value, " * ".join(factors) if factors else "1")


def _class_key(value: int, mod: Modulus) -> tuple | None:
    """(edges, l) of a counted class holding value, from one plain descent.

    l is None for an element vertex and the vertex weight for a length-0
    tuple vertex; other sequences belong to no counted class.
    """
    desc = _descend(value, mod.p, mod.n)
    if not desc.ok:
        return None
    if desc.q is None:
        return desc.edges, None
    if desc.q == 0:
        return desc.edges, desc.l
    return None  # longer vertices have no closed-form count here


def count_hypercubes(modulus: Modulus, edges, l: int | None = None) -> CountResult:
    """Number of hypercubes with the given edge exponents and vertex class.

    l=None counts the element-vertex class; an even l in (1, p) counts the
    length-0 tuple class of vertex weight l (its edges must all be >= 1).
    """
    return _class_count(modulus, _class_edges(modulus, edges, l), l)


def _class_count(modulus: Modulus, edges: tuple[int, ...], l: int | None) -> CountResult:
    """count_hypercubes of a class whose modulus, l and sorted edges are
    valid (see _class_edges)."""
    p = modulus.p
    E = _capacity(p, modulus.n, edges)
    if l is None:
        return CountResult(p**E, f"{p}^{E}")
    assert E >= 1
    return CountResult(comb(p, l) * p ** ((E - 1) * l), f"C({p},{l}) * {p}^{(E - 1) * l}")


def class_lc(modulus: Modulus, edges, l: int | None = None) -> int:
    """Linear complexity shared by every member of a counted class."""
    es = _class_edges(modulus, edges, l)
    return _hypercube_lc(modulus.p, modulus.n, None if l is None else 0, es)


def _grow(values: list[int], p: int, start: int, n: int, edges: tuple[int, ...]) -> list[int]:
    """Lift vectors of length p^start to length p^n, one exponent at a time."""
    for e in range(start, n):
        size = p**e
        if e in edges:
            values = [_spread(v, p, size) for v in values]
            continue
        grown: list[int] = []
        for v in values:
            # each 1, lowest first, goes to one of p blocks; the last varies fastest
            options = [0]
            while v:
                low = v & -v
                options = [o | low << (i * size) for o in options for i in range(p)]
                v ^= low
            grown += options
        values = grown
    return values


def enumerate_hypercubes(
    modulus: Modulus, edges, l: int | None = None, cap: int = ENUM_CAP
) -> tuple[PeriodicSequence, ...]:
    """Every hypercube of a counted class, built from the vertex up.  A class
    over the cap is refused by its size, or past 10^18 its expression."""
    _check_cap(cap)
    edges = _class_edges(modulus, edges, l)  # read once: edges may be an iterator
    count = _class_count(modulus, edges, l)
    if count.value > cap:
        noun = "cubes" if modulus.p == 2 else "hypercubes"
        size = count.value if count.value <= _EXACT_UP_TO else count.expression
        raise BudgetExceeded(f"class holds {size} {noun}, cap is {cap}")
    p = modulus.p
    if l is None:
        base, start = [1], 0
    else:
        base = [sum(1 << i for i in combo) for combo in combinations(range(p), l)]
        start = 1
    values = _grow(base, p, start, modulus.n, edges)
    assert len(values) == count.value
    return tuple(PeriodicSequence(modulus, v) for v in values)

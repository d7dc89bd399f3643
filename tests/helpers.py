"""Reference implementations used only by the tests.

Deliberately naive and independent of the package internals: linear
complexity via GF(2) polynomial gcd, and exhaustive searches phrased
directly from the definitions.  The one exception is the scalar class scan,
which runs the package's own descent on each pattern: it is the reference
for the bit-sliced enumeration around that descent, not for the descent.
The bit-sliced number layout is built and read one lane and one bit at a
time.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from seqcomplex import Modulus, PeriodicSequence, VertexDescriptor, VertexKind
from seqcomplex.lincomp import _lc_value


def poly_deg(a: int) -> int:
    return a.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    db = poly_deg(b)
    while poly_deg(a) >= db:
        a ^= b << (poly_deg(a) - db)
    return a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def gcd_lc(s: PeriodicSequence) -> int:
    """L(s) = N - deg gcd(x^N + 1, S(x)) over GF(2), S(x) = sum s_i x^i."""
    if s.value == 0:
        return 0
    N = s.modulus.period
    return N - poly_deg(poly_gcd((1 << N) | 1, s.value))


def gcd_k_error_lc(s: PeriodicSequence, k: int) -> int:
    """Definitional L_k: minimum gcd_lc over all patterns of weight <= k."""
    N = s.modulus.period
    best = gcd_lc(s)
    for w in range(1, min(k, N) + 1):
        for combo in combinations(range(N), w):
            e = 0
            for i in combo:
                e |= 1 << i
            best = min(best, gcd_lc(PeriodicSequence(s.modulus, s.value ^ e)))
    return best


def stepwise_bm(stream: int, length: int) -> int:
    """Bit-packed Berlekamp-Massey that visits every step, zero discrepancy
    or not: the reference for the package's run-skipping loop."""
    sb = sc = stream
    deg = 0
    m = 0
    for i in range(length):
        disc = (sc >> m) & 1
        m += 1
        if disc:
            sc >>= m
            m = 0
            if 2 * deg <= i:
                sb, sc = sc, sb
                deg = i + 1 - deg
            sc ^= sb
    return deg


def scalar_class_min(value: int, p: int, n: int, k: int, below: int = 1) -> int:
    """Least complexity over the error patterns of weight exactly k, one
    pattern at a time, or the first found below ``below``: the reference for
    the package's bit-sliced class scan."""
    N = p**n
    best = N
    for combo in combinations([1 << i for i in range(N)], k):
        L = _lc_value(value ^ sum(combo), p, n)
        if L < best:
            best = L
            if L < below:
                break
    return best


def _list_kept(parts: list[int]) -> list[int]:
    """Per part, the rows of odd parity whose first 1 lies in that part."""
    x = 0
    for part in parts:
        x ^= part
    seen = 0
    kept = []
    for part in parts:
        kept.append(part & x & ~seen)
        seen |= part
    return kept


def list_rewrite_descent(value: int, p: int, n: int) -> tuple:
    """The rewrite descent with the parts split out as a list of ints, one
    per part: (vecs, records, edges, q, ok).  The reference for the
    package's rewrite on the packed vector."""
    vecs, records, edges, q = [value], [], [], None

    def pull_back(k: int, rows: int) -> int:
        plen, split = records[k - 1]
        spread = rows
        for i in range(1, p):
            spread |= rows << (i * plen)
        if split:
            return spread
        return (spread & vecs[k - 1]) | (rows & ~vecs[k])

    a = value
    for depth in range(1, n + 1):
        plen = p ** (n - depth)
        parts = [(a >> (i * plen)) & ((1 << plen) - 1) for i in range(p)]
        split = all(part == parts[0] for part in parts)
        if split:
            edges.append(n - depth)
            a = parts[0]
        else:
            x = 0
            for part in parts:
                x ^= part
            if x == 0:
                q = n - depth
                break
            if x.bit_count() != a.bit_count():
                kept = _list_kept(parts)
                clear = a ^ sum(k << (i * plen) for i, k in enumerate(kept))
                for k in range(len(vecs) - 1, -1, -1):
                    lower = pull_back(k, clear) if k else 0
                    vecs[k] ^= clear
                    clear = lower
            a = x
        records.append((plen, split))
        vecs.append(a)
    return vecs, records, tuple(sorted(edges)), q, True


def list_plain_trace(value: int, p: int, n: int) -> tuple:
    """The plain descent with the parts split out as a list of ints, one per
    part, through all n depths: ([(branch, pre, post, increment)], final_one)
    with pre and post the weights before and after each depth.  The
    reference for ``xwli_lc``'s trace."""
    steps = []
    a = value
    for depth in range(1, n + 1):
        plen = p ** (n - depth)
        parts = [(a >> (i * plen)) & ((1 << plen) - 1) for i in range(p)]
        pre = a.bit_count()
        if all(part == parts[0] for part in parts):
            branch, increment, a = "split", 0, parts[0]
        else:
            branch, increment, a = "sum", (p - 1) * plen, 0
            for part in parts:
                a ^= part
        steps.append((branch, pre, a.bit_count(), increment))
    return steps, a == 1


def product_grow(values: list[int], p: int, start: int, n: int, edges) -> list[int]:
    """The members grown from vertices of length p^start, placing every 1 of a
    non-edge level by one itertools.product over its positions: the reference
    for the member order of ``counting._grow``."""
    for e in range(start, n):
        size = p**e
        if e in edges:
            values = [sum(v << (i * size) for i in range(p)) for v in values]
            continue
        grown: list[int] = []
        for v in values:
            positions = [u for u in range(size) if (v >> u) & 1]
            for choice in product(range(p), repeat=len(positions)):
                nv = 0
                for u, i in zip(positions, choice):
                    nv |= 1 << (i * size + u)
                grown.append(nv)
        values = grown
    return values


def seq(mod, text: str) -> PeriodicSequence:
    return PeriodicSequence.from_text(text, mod)


def p2_universe(exhaustive_up_to: int = 4, sampled_up_to: int = 8, count: int = 300):
    """Every nonzero 2^n-periodic sequence for n up to exhaustive_up_to, then
    count seeded ones at each larger n up to sampled_up_to, alternately dense
    and sparse (1, 2 or 4 ones, so often a cube)."""
    for n in range(1, exhaustive_up_to + 1):
        mod = Modulus(2, n)
        yield from (PeriodicSequence(mod, v) for v in range(1, 1 << mod.period))
    rng = random.Random(2)
    for n in range(exhaustive_up_to + 1, sampled_up_to + 1):
        mod = Modulus(2, n)
        for i in range(count):
            if i % 2:
                v = rng.randrange(1, 1 << mod.period)
            else:
                v = sum({1 << rng.randrange(mod.period) for _ in range(rng.choice((1, 2, 4)))})
            yield PeriodicSequence(mod, v)


def random_tuple_vertex(rng: random.Random, p: int, q: int) -> VertexDescriptor:
    """A random valid tuple vertex: every row has even parity, some row is set."""
    rows = p**q
    while True:
        counts = [rng.choice(range(0, p + 1, 2)) for _ in range(rows)]
        if any(counts):
            break
    blocks = [[0] * rows for _ in range(p)]
    for u, c in enumerate(counts):
        for i in rng.sample(range(p), c):
            blocks[i][u] = 1
    return VertexDescriptor(VertexKind.TUPLE, q, tuple(tuple(b) for b in blocks))


def exhaustive_min_change(v: VertexDescriptor) -> int:
    """Fewest bit flips turning every block into one shared nonzero target."""
    rows = len(v.blocks[0])
    best = None
    for target in product((0, 1), repeat=rows):
        if not any(target):
            continue
        cost = sum(sum(b[u] != target[u] for u in range(rows)) for b in v.blocks)
        if best is None or cost < best:
            best = cost
    return best


def to_planes(values: list[int], planes: int) -> list[int]:
    """The bit-sliced layout, built one lane and one bit at a time: plane b
    holds bit b of values[j] at lane j."""
    out = [0] * planes
    for j, v in enumerate(values):
        for b in range(planes):
            out[b] |= (v >> b & 1) << j
    return out


def lane_values(planes: list[int], width: int) -> list[int]:
    """Each lane's value, read back one lane and one bit at a time."""
    return [sum((plane >> j & 1) << b for b, plane in enumerate(planes)) for j in range(width)]

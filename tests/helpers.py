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
from math import comb

from seqcomplex import Modulus, PeriodicSequence, VertexDescriptor
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


def halving_lc(a: int, n: int) -> int:
    """Games-Chan complexity of the 2^n-bit vector a, halving down to one
    bit: the reference for the package's table-finished p = 2 descent."""
    L = 0
    for j in range(n - 1, -1, -1):
        plen = 1 << j
        hi, lo = a >> plen, a & ((1 << plen) - 1)
        if hi != lo:
            a = hi ^ lo
            L += plen
        else:
            a = lo
    return L + a


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


def budget_refusal(N: int, k: int, cap: int) -> str | None:
    """The refusal of more than cap error patterns of weight <= k, or None
    when they fit: the C(N, i) are summed term by term, and the sum stops
    once it passes max(cap, 10^18), the refusal then stating that bound."""
    bound = max(cap, 10**18)
    total = 1
    for i in range(1, k + 1):
        if total > bound:
            return f"more than {bound} error patterns exceed cap {cap}"
        total += comb(N, i)
    return f"{total} error patterns exceed cap {cap}" if total > cap else None


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


def list_plain_descent(value: int, p: int, n: int) -> tuple:
    """The plain descent read off ``list_plain_trace``: (weights, edges, q,
    ok), the weight of each level vector it keeps, down to the first sum
    that cancels ones (ok False, with no edges or q) or the zero sum that
    ends in a tuple vertex of length q."""
    steps, final_one = list_plain_trace(value, p, n)
    weights, edges, q = [value.bit_count()], [], None
    for depth, (branch, pre, post, _) in enumerate(steps, 1):
        if branch == "split":
            edges.append(n - depth)
        elif post == 0:
            q = n - depth
            break
        elif post != pre:
            return weights, (), None, False
        weights.append(post)
    else:
        assert final_one
    return weights, tuple(sorted(edges)), q, True


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


# Every admitted odd p above 13 (19 to 197), which the other sampled inputs never reach.
LARGE_P_MODULI = tuple(Modulus(p, n) for p, n in (
    (19, 1), (29, 1), (37, 1), (53, 1), (59, 1), (61, 1), (67, 1), (83, 1), (101, 1),
    (107, 1), (131, 1), (139, 1), (149, 1), (163, 1), (173, 1), (179, 1), (181, 1),
    (197, 1), (19, 2), (29, 2), (19, 3),
))


def large_p_values(seed: int):
    """Seeded (modulus, value) pairs at every modulus of LARGE_P_MODULI: 16
    dense values, 8 sparse ones of each weight 1, 2, 3, 4, p and 2p that the
    period holds, all ones and a single one."""
    rng = random.Random(seed)
    for mod in LARGE_P_MODULI:
        N, p = mod.period, mod.p
        values = [rng.randrange(1, 1 << N) for _ in range(16)]
        for w in (1, 2, 3, 4, p, 2 * p):
            if w <= N:
                values += [sum(1 << i for i in rng.sample(range(N), w)) for _ in range(8)]
        values += [(1 << N) - 1, 1]
        yield from ((mod, v) for v in values)


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
    return VertexDescriptor(q, tuple(tuple(b) for b in blocks))


def vertex_sequence(v: VertexDescriptor) -> PeriodicSequence:
    """The p^(q+1)-periodic sequence that is the tuple vertex v alone: its
    blocks one after another, so the sequence is a hypercube of dimension 0
    whose vertex is v."""
    bits = [b for block in v.blocks for b in block]
    return PeriodicSequence.from_bits(bits, Modulus(len(v.blocks), v.q + 1))


def pn_distance(i: int, j: int, p: int) -> int:
    """The p-adic distance of two distinct positions: p^(v_p(|j - i|))."""
    assert i != j
    d = abs(j - i)
    power = 1
    while d % p == 0:
        d //= p
        power *= p
    return power


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

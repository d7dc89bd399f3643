import hashlib
import random
import re
import tracemalloc
from itertools import combinations, islice, product
from math import comb

import pytest

from helpers import (
    budget_refusal,
    exhaustive_min_change,
    gcd_k_error_lc,
    p2_universe,
    random_tuple_vertex,
    scalar_class_min,
    seq,
    vertex_sequence,
)
from seqcomplex import (
    CelcsPoint,
    Modulus,
    PeriodicSequence,
    VertexDescriptor,
    celcs,
    construct_stable,
    enumerate_hypercubes,
    first_critical_bruteforce,
    first_critical_m,
    is_hypercube,
    k_error_lc_bruteforce,
    kerror,
    kurosawa_m,
    lc,
    meidl_upper_bound,
    standard_decompose,
)
from seqcomplex.errors import (
    BudgetExceeded,
    EvenP,
    FormulaInapplicable,
    KOutOfRange,
    OddP,
    ZeroSequence,
)
from seqcomplex.lincomp import _lc_value

MOD9 = Modulus(3, 2)
MOD27 = Modulus(3, 3)
MOD25 = Modulus(5, 2)


def test_k_error_lc_pinned():
    s = seq(MOD9, "110000000")
    assert [k_error_lc_bruteforce(s, k) for k in range(3)] == [8, 7, 0]
    d = seq(MOD9, "010000000")
    assert k_error_lc_bruteforce(d, 0) == 9
    assert k_error_lc_bruteforce(d, 1) == 0


def test_k_error_lc_guards():
    s = seq(MOD9, "110000000")
    with pytest.raises(KOutOfRange):
        k_error_lc_bruteforce(s, -1)
    with pytest.raises(BudgetExceeded):
        k_error_lc_bruteforce(s, 4, cap=10)
    with pytest.raises(BudgetExceeded, match=r"^256 error patterns exceed cap 10$"):
        k_error_lc_bruteforce(seq(MOD9, "111111111"), 4, cap=10)
    assert k_error_lc_bruteforce(s, 100) == 0  # k clamps to weight(s)


@pytest.mark.parametrize("k", [True, 1.0, "1"])
def test_k_error_lc_refuses_a_non_int_k(k):
    with pytest.raises(KOutOfRange, match=r"^k must be an int; got "):
        k_error_lc_bruteforce(seq(MOD9, "110000000"), k)


def test_k_error_lc_budgets_only_classes_below_the_weight():
    # L_k = 0 for k >= weight(s): the scan of 110000000 stops at class 2 (46 patterns)
    s = seq(MOD9, "110000000")
    assert k_error_lc_bruteforce(s, 12, cap=46) == 0
    with pytest.raises(BudgetExceeded, match=r"^46 error patterns exceed cap 45$"):
        k_error_lc_bruteforce(s, 12, cap=45)
    assert k_error_lc_bruteforce(PeriodicSequence.zeros(MOD9), 3, cap=1) == 0


def test_spectrum_stops_at_zero_before_budgeting_the_next_class():
    """Once a class reaches L = 0 no later class is counted against the cap:
    class 3 of 110000000 alone would be refused at cap 46."""
    s = seq(MOD9, "110000000")
    assert list(kerror._spectrum(s, 46, 9)) == [CelcsPoint(0, 8), CelcsPoint(1, 7), CelcsPoint(2, 0)]
    with pytest.raises(BudgetExceeded, match=r"^130 error patterns exceed cap 46$"):
        kerror._check_budget(9, 3, 46)


def test_budget_count_stops_past_its_bound():
    """The pattern count stops once it passes max(cap, 10^18), so a dense
    period-2^14 row is refused after a few terms, with that bound as its text;
    a count that ends on its last term is still written out exactly."""
    big = f"more than {10**18} error patterns exceed cap {10**8}"
    with pytest.raises(BudgetExceeded, match=rf"^{big}$"):
        kerror._check_budget(1 << 14, 5000, 10**8)
    with pytest.raises(BudgetExceeded, match=rf"^more than {2**64 - 2} error patterns"):
        kerror._check_budget(64, 64, 2**64 - 2)
    with pytest.raises(BudgetExceeded, match=rf"^{2**64} error patterns exceed cap {2**64 - 1}$"):
        kerror._check_budget(64, 64, 2**64 - 1)
    kerror._check_budget(64, 64, 2**64)
    dense = PeriodicSequence(Modulus(2, 14), random.Random(0).getrandbits(1 << 14))
    for refused in (lambda: celcs(dense), lambda: k_error_lc_bruteforce(dense, 5000)):
        with pytest.raises(BudgetExceeded, match=rf"^{big}$"):
            refused()


def test_budget_refusals_match_the_term_by_term_sum():
    """A cap of at least 2^N is never summed against, as all 2^N patterns
    fit; every refusal and its text stay those of the term-by-term sum."""
    for N in range(1, 41):
        for k in {0, 1, 2, N // 2, N}:
            for cap in {1, 45, 46, 2**N - 1, 2**N, 2**N + 1, 10**8, 2**64}:
                want = budget_refusal(N, k, cap)
                if want is None:
                    kerror._check_budget(N, k, cap)
                    continue
                with pytest.raises(BudgetExceeded) as refused:
                    kerror._check_budget(N, k, cap)
                assert str(refused.value) == want, (N, k, cap)


def test_k_error_lc_against_definitional_minimum():
    rng = random.Random(13)
    for _ in range(40):
        s = PeriodicSequence(MOD9, rng.randrange(1, 512))
        for k in (1, 2):
            assert k_error_lc_bruteforce(s, k) == gcd_k_error_lc(s, k)


def test_first_critical_bruteforce_pinned():
    rep = first_critical_bruteforce(seq(MOD9, "110000000"))
    assert (rep.m_s, rep.L_after, rep.m1_s, rep.method) == (1, 7, 2, "brute")
    rep = first_critical_bruteforce(seq(MOD9, "010000000"))
    assert (rep.m_s, rep.L_after, rep.m1_s) == (1, 0, None)
    with pytest.raises(ZeroSequence):
        first_critical_bruteforce(PeriodicSequence.zeros(MOD9))



def test_first_critical_bruteforce_budget_carries_into_m1_search():
    # classes 0 and 1 (1 + 9 patterns) give m(s) = 1; class 2 brings the count to 46
    with pytest.raises(BudgetExceeded, match=r"^46 error patterns exceed cap 20$"):
        first_critical_bruteforce(seq(MOD9, "110000000"), cap=20)


def _agrees_with_scalar_scan(value, p, n, k):
    want = kerror._class_min(value, p, n, k)
    assert want == scalar_class_min(value, p, n, k), (p, n, value, k)
    # with a bound, both scans agree on whether some pattern falls below it
    for below in (want, want + 1):
        got = kerror._class_min(value, p, n, k, below=below) < below
        assert got == (scalar_class_min(value, p, n, k, below=below) < below)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1), (7, 1)])
def test_class_min_matches_scalar_scan_on_every_class(p, n):
    N = p**n
    for value in range(1 << N):
        for k in range(N + 1):
            _agrees_with_scalar_scan(value, p, n, k)


@pytest.mark.parametrize("p, n, ks, count", [
    (2, 4, range(17), 6),  # every class, C(16, 8) = 12870 patterns split in blocks
    (3, 3, range(4), 12),
    (5, 2, range(4), 12),
    (2, 5, range(4), 8),
])
def test_class_min_matches_scalar_scan_on_sampled_sequences(p, n, ks, count):
    rng = random.Random(1300 + p**n)
    for _ in range(count):
        value = rng.randrange(1 << p**n)
        for k in ks:
            _agrees_with_scalar_scan(value, p, n, k)


def test_table_reads_every_class_of_every_sequence(monkeypatch):
    """Up to period 12 each class minimum is read from the modulus's table,
    one entry per weight and one byte per sequence.  Every (s, k) at 2^2,
    2^3, 3^1, 3^2 and 5^1, and seeded s at 11^1, against the scalar scan;
    no Pascal block is built."""

    def no_blocks(*args):
        raise AssertionError("a Pascal block at a period with a class table")

    monkeypatch.setattr(kerror, "_blocks", no_blocks)
    rng = random.Random(3803)
    for p, n, values in [(3, 1, range(8)), (3, 2, range(512)), (5, 1, range(32)),
                         (2, 2, range(16)), (2, 3, range(256)),
                         (11, 1, [rng.getrandbits(11) for _ in range(12)])]:
        N = p**n
        table = kerror._table(p, n)
        assert len(table) == N + 1 and {len(entry) for entry in table} == {1 << N}
        for value in values:
            for k in range(N + 1):
                want = scalar_class_min(value, p, n, k)
                assert kerror._class_min(value, p, n, k) == want, (p, n, value, k)
    _agrees_with_scalar_scan(0b10110100101, 11, 1, 4)


def test_class_zero_is_the_complexity_on_every_path(monkeypatch):
    """Class 0 is L(s): a table byte up to period 12, every sequence at 2^3,
    3^2, 5^1 and 11^1; above it one descent, never a Pascal block or the
    pattern scan.  The formula spectrum builds no table."""
    for p, n in [(2, 3), (3, 2), (5, 1), (11, 1)]:
        for value in range(1 << p**n):
            assert kerror._class_min(value, p, n, 0) == _lc_value(value, p, n), (p, n, value)

    def no_scan(*args):
        raise AssertionError("class 0 scanned as error patterns")

    monkeypatch.setattr(kerror, "_blocks", no_scan)
    monkeypatch.setattr(kerror, "combinations", no_scan)
    rng = random.Random(4002)
    for p, n in [(2, 4), (13, 1), (5, 2), (2, 9)]:
        for _ in range(30):
            value = rng.getrandbits(p**n)
            assert kerror._class_min(value, p, n, 0) == _lc_value(value, p, n), (p, n, value)
    kerror._table.cache_clear()
    assert celcs(seq(MOD9, "110000000"), mode="formula") == (
        CelcsPoint(0, 8), CelcsPoint(1, 7), CelcsPoint(2, 0))
    assert kerror._table.cache_info().misses == 0


def test_every_brute_force_answer_reads_the_spectrum():
    """celcs(mode="brute") is the whole spectrum, L_k its least L up to k,
    and m(s) with L_{m(s)} its second point, on every nonzero s at 2^3, 3^2
    and 5^1 and on seeded s at 2^4, 3^3 (at most 5 ones) and 11^1."""
    cap = kerror.DEFAULT_CAP
    rng = random.Random(4003)
    few_ones = [sum(1 << t for t in rng.sample(range(27), rng.randint(1, 5))) for _ in range(8)]
    for p, n, values in [(2, 3, range(1, 256)), (3, 2, range(1, 512)), (5, 1, range(1, 32)),
                         (2, 4, [rng.randrange(1, 1 << 16) for _ in range(8)]),
                         (3, 3, few_ones),
                         (11, 1, [rng.randrange(1, 1 << 11) for _ in range(12)])]:
        for value in values:
            s = PeriodicSequence(Modulus(p, n), value)
            spectrum = tuple(kerror._spectrum(s, cap, s.weight))
            assert celcs(s) == spectrum, s.to01()
            for k in range(s.weight + 1):
                want = min(pt.L for pt in spectrum if pt.k <= k)
                assert k_error_lc_bruteforce(s, k) == want, (s.to01(), k)
            first = kerror._first_drop(s, cap)
            assert first == spectrum[1], s.to01()
            rep = first_critical_bruteforce(s)
            assert (rep.m_s, rep.L_after) == (first.k, first.L), s.to01()
            assert all(tuple(pt) == (pt.k, pt.L) for pt in spectrum), s.to01()
    assert CelcsPoint._fields == ("k", "L")
    with pytest.raises(AttributeError):
        first.L = 0


def test_class_tables_descend_the_shared_identity_planes(monkeypatch):
    """_table builds its universe from bitslice.identity, and its bytes at
    2^3, 3^2 and 11^1 are those of the tables built before the planes moved
    there (sha256 of the entries joined)."""
    identity = kerror.identity
    sizes = []
    monkeypatch.setattr(kerror, "identity", lambda bits: sizes.append(bits) or identity(bits))
    digests = {
        (2, 3): "26dd24b507c8cad10e10e724a4d3bf3a5fc691788bed5eb8a758e655bcd34617",
        (3, 2): "12836e10b8ececd81e7b783c915b2733630e199713430b64715ff3782022e10a",
        (11, 1): "bbafe8012ee49e11050308d7be1f885b433f912c9b230d5681942791aa6c1fe5",
    }
    kerror._table.cache_clear()
    try:
        for (p, n), digest in digests.items():
            assert hashlib.sha256(b"".join(kerror._table(p, n))).hexdigest() == digest, (p, n)
    finally:
        kerror._table.cache_clear()
    assert sizes == [8, 9, 11]


def test_a_modulus_builds_its_table_once():
    """_spectrum, celcs(mode="brute") and first_critical_bruteforce, m1 search
    included, all read one table per modulus, built on first use, and none
    above period 12."""
    kerror._table.cache_clear()
    s = seq(MOD9, "111111000")  # drops at k = 3, then L = 0 only at k = 6
    assert list(kerror._spectrum(s, kerror.DEFAULT_CAP, 9)) == [
        CelcsPoint(0, 6), CelcsPoint(3, 1), CelcsPoint(6, 0)]
    assert celcs(s) == (CelcsPoint(0, 6), CelcsPoint(3, 1), CelcsPoint(6, 0))
    rep = first_critical_bruteforce(s)
    assert (rep.m_s, rep.L_after, rep.m1_s) == (3, 1, 6)
    info = kerror._table.cache_info()
    assert info.misses == 1 and info.hits > 1
    assert kerror._first_drop(PeriodicSequence(Modulus(2, 4), 0b1011), kerror.DEFAULT_CAP)
    assert first_critical_bruteforce(PeriodicSequence(Modulus(2, 4), 0b1011)).method == "brute"
    assert kerror._table.cache_info() == info


def test_class_min_splits_large_classes_and_reads_every_block(monkeypatch):
    """C(16, 8) runs as several blocks of at most _LANES patterns; the least
    complexity is read from all of them, and a bound ends the scan after the
    first block below it."""
    blocks = list(kerror._blocks(16, 8))
    assert len(blocks) > 1
    assert sum(comb(m, j) for m, j, _ in blocks) == comb(16, 8)
    assert all(comb(m, j) <= kerror._LANES for m, j, _ in blocks)
    lanes_min = kerror._lanes_min
    scanned = []

    def counted(*args):
        scanned.append(lanes_min(*args))
        return scanned[-1]

    monkeypatch.setattr(kerror, "_lanes_min", counted)
    value = 0b1011_0000_0110_0001
    assert kerror._class_min(value, 2, 4, 8) == scalar_class_min(value, 2, 4, 8)
    assert len(scanned) == len(blocks)
    scanned.clear()
    assert kerror._class_min(value, 2, 4, 8, below=17) < 17
    assert len(scanned) == 1


def test_first_critical_bruteforce_matches_scalar_scans():
    """m(s), L_m and m1 read from scalar class scans; the m1 search is the
    scan that stops early, at the first class reaching below L_m."""
    rng = random.Random(1316)
    for p, n, values in [(2, 3, range(1, 256)), (3, 2, range(1, 512)),
                         (2, 4, [rng.randrange(1, 1 << 16) for _ in range(12)]),
                         (5, 1, range(1, 32)),
                         (11, 1, [rng.randrange(1, 1 << 11) for _ in range(12)])]:
        N = p**n
        for value in values:
            L0 = scalar_class_min(value, p, n, 0)
            m = next(k for k in range(1, N + 1) if scalar_class_min(value, p, n, k) < L0)
            L_m = scalar_class_min(value, p, n, m)
            m1 = next((k for k in range(m + 1, N + 1)
                       if scalar_class_min(value, p, n, k, below=L_m) < L_m), None)
            rep = first_critical_bruteforce(PeriodicSequence(Modulus(p, n), value))
            assert (rep.m_s, rep.L_after, rep.m1_s) == (m, L_m, m1)


def test_class_scan_above_the_sliced_periods_builds_each_pattern_alone():
    """At period 4096 a list of every 1 << i would take over 1 MB; the scan
    holds one pattern at a time."""
    s = PeriodicSequence(Modulus(2, 12), (1 << 4095) | 1)
    tracemalloc.start()
    try:
        assert k_error_lc_bruteforce(s, 1) == 4095
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_first_critical_formula_pinned_reference_cases():
    # weight-2 vertex, repeated: fill the third row
    rep = first_critical_m(seq(MOD27, "110000000" * 3))
    assert rep.m_s == 3 and rep.method == "formula" and rep.vertex_j is None
    # weight-4 vertex at p=5: fill the single zero row
    rep = first_critical_m(seq(MOD25, "11110" * 5))
    assert rep.m_s == 5 and rep.vertex_j is None
    # length-1 vertex: equalizing one row beats erasing
    rep = first_critical_m(seq(MOD27, "000100100" * 3))
    assert rep.m_s == 3 and rep.vertex_j == 1 and rep.L_after == 3
    # sum of two hypercubes: one flip rejoins the repeats
    rep = first_critical_m(seq(MOD27, "110000000" + "111000000" * 2))
    assert rep.m_s == 1 and rep.L_after == 7 and rep.m1_s is None
    assert first_critical_bruteforce(seq(MOD27, "110000000" + "111000000" * 2)).m1_s == 8


def test_first_critical_formula_guards():
    rep = first_critical_m(PeriodicSequence.from_text("1100", Modulus(2, 2)))
    assert (rep.m_s, rep.L_after, rep.m1_s, rep.vertex_j) == (2, 0, None, None)
    with pytest.raises(ZeroSequence):
        first_critical_m(PeriodicSequence.zeros(MOD9))


def test_formula_is_exact_on_hypercubes_exhaustive_n9():
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        if not is_hypercube(s):
            continue
        form = first_critical_m(s)
        brute = first_critical_bruteforce(s)
        assert form.m_s == brute.m_s, v
        assert form.L_after == brute.L_after, v
        assert form.m1_s == brute.m1_s, v


def test_formula_is_exact_on_period11_hypercubes():
    """At p = 11 a length-0 vertex of weight l is erased (l <= 4) or filled
    (l >= 6); every element vertex and every 9th tuple vertex of each even
    weight l is checked against brute force."""
    mod = Modulus(11, 1)
    cubes = [(1, 1 << i) for i in range(11)]
    for l in range(2, 11, 2):
        for ones in islice(combinations(range(11), l), 0, None, 9):
            cubes.append((min(l, 11 - l), sum(1 << i for i in ones)))
    for m, v in cubes:
        s = PeriodicSequence(mod, v)
        assert is_hypercube(s), v
        form = first_critical_m(s)
        brute = first_critical_bruteforce(s)
        assert form.m_s == m, v
        assert (form.m_s, form.L_after, form.m1_s) == (brute.m_s, brute.L_after, brute.m1_s), v


def test_formula_never_undershoots_exhaustive_n9():
    """For sums of hypercubes the leading-part change is an upper bound on
    the true first critical point; its witness is a genuine drop."""
    mismatches = []
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        form = first_critical_m(s)
        brute = first_critical_bruteforce(s)
        assert form.m_s >= brute.m_s, v
        assert form.L_after < lc(s), v
        assert k_error_lc_bruteforce(s, form.m_s) <= form.L_after, v
        if form.m_s != brute.m_s:
            mismatches.append(s.to01())
    # the closed form is not exact for every multi-part sequence
    assert len(mismatches) == 36
    assert "111100100" in mismatches
    assert all(
        len(standard_decompose(seq(MOD9, t)).parts) >= 2 for t in mismatches
    )


def test_closed_form_m_is_the_exact_m_of_the_leading_hypercube():
    """The paper's formula computes m(h_1), the first critical point of the
    leading hypercube alone, on every input at 3^2, 5^1, 11^1 and 2^3;
    brute force on h_1 is the oracle."""
    for mod in (MOD9, Modulus(5, 1), Modulus(11, 1), Modulus(2, 3)):
        for v in range(1, 1 << mod.period):
            s = PeriodicSequence(mod, v)
            h1 = standard_decompose(s).parts[0]
            exact = kerror._first_drop(h1, kerror.DEFAULT_CAP)
            assert first_critical_m(s).m_s == exact.k, s.to01()


def test_overshoot_witness_111100100():
    """Two flips rejoin this sum of two hypercubes into {100100100} at L=3,
    beating any change confined to its leading part."""
    s = seq(MOD9, "111100100")
    assert lc(s) == 7
    assert first_critical_m(s).m_s == 3
    assert k_error_lc_bruteforce(s, 2) == 3
    assert first_critical_bruteforce(s).m_s == 2
    flipped = s ^ seq(MOD9, "011000000")
    assert flipped.to01() == "100100100" and lc(flipped) == 3


@pytest.mark.parametrize(
    "mod, text, m, L_m, m1, L_m1",
    [
        (MOD25, "1010001100011111010000011", 9, 5, 10, 4),
        (MOD27, "110101001110101001000000000", 5, 9, 6, 6),
    ],
)
def test_closed_form_m1_overshoots_on_single_hypercubes(mod, text, m, L_m, m1, L_m1):
    """The closed-form m1 is the hypercube's erase cost, its weight: an upper
    bound that brute force beats on these single hypercubes, so the formula
    spectrum skips the point (m1, L_m1)."""
    s = seq(mod, text)
    assert is_hypercube(s)
    assert (first_critical_m(s).m_s, first_critical_m(s).L_after) == (m, L_m)
    assert first_critical_m(s).m1_s == s.weight
    assert first_critical_bruteforce(s).m1_s == m1 < s.weight
    formula, brute = celcs(s, mode="formula"), celcs(s, mode="brute")
    assert CelcsPoint(m1, L_m1) in brute
    assert CelcsPoint(m1, L_m1) not in formula
    assert formula == tuple(pt for pt in brute if pt != CelcsPoint(m1, L_m1))


def test_vertex_j_pinned():
    v = VertexDescriptor(1, ((0, 0, 0), (1, 0, 0), (1, 0, 0)))
    assert first_critical_m(vertex_sequence(v)).vertex_j == 1


def test_vertex_j_matches_exhaustive_search():
    rng = random.Random(17)
    for _ in range(300):
        v = random_tuple_vertex(rng, 3, rng.choice([1, 2]))
        assert first_critical_m(vertex_sequence(v)).vertex_j == exhaustive_min_change(v)
    for _ in range(100):
        v = random_tuple_vertex(rng, 5, 1)
        assert first_critical_m(vertex_sequence(v)).vertex_j == exhaustive_min_change(v)


def _every_length1_vertex_at_p3():
    """All 63 tuple vertices of length 1 at p = 3: each of the 3 rows is one
    of the 4 even-parity columns, and some row is set."""
    columns = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    for rows in product(columns, repeat=3):
        if any(map(any, rows)):
            blocks = tuple(tuple(row[i] for row in rows) for i in range(3))
            yield VertexDescriptor(1, blocks)


@pytest.mark.parametrize(
    "p, q, count",
    [(3, 1, None), (3, 2, 60), (5, 1, 60), (11, 1, 12), (13, 1, 4)],
    ids=["3^2", "3^3", "5^2", "11^2", "13^2"],
)
def test_vertex_j_is_the_fewest_equalizing_flips(p, q, count):
    """On the sequence that is a tuple vertex alone, vertex_j is the fewest
    flips to p equal nonzero blocks, never the vertex's weight, and m is the
    cheaper of erasing and equalizing; at periods up to 25 the first ten
    vertices also meet brute force on m and L_after (m1 may overshoot, see
    test_closed_form_m1_overshoots_on_single_hypercubes)."""
    if count is None:
        vertices = list(_every_length1_vertex_at_p3())
        assert len(vertices) == 63
    else:
        rng = random.Random(p**q)
        vertices = [random_tuple_vertex(rng, p, q) for _ in range(count)]
    for i, v in enumerate(vertices):
        s = vertex_sequence(v)
        rep = first_critical_m(s)
        j = exhaustive_min_change(v)
        assert rep.vertex_j == j != s.weight, v
        assert rep.m_s == min(j, s.weight), v
        if i < 10 and s.modulus.period <= 25:
            brute = first_critical_bruteforce(s)
            assert (rep.m_s, rep.L_after) == (brute.m_s, brute.L_after), v


def test_celcs_pinned_spectrum():
    pts = celcs(seq(MOD27, "000100100" * 3), mode="formula")
    assert pts == (CelcsPoint(0, 6), CelcsPoint(3, 3), CelcsPoint(6, 0))
    assert celcs(seq(MOD27, "000100100" * 3), mode="brute") == pts


def test_celcs_brute_invariants_random_n9():
    rng = random.Random(19)
    for _ in range(60):
        s = PeriodicSequence(MOD9, rng.randrange(1, 512))
        pts = celcs(s)
        assert pts[0] == CelcsPoint(0, lc(s))
        assert pts[-1] == CelcsPoint(s.weight, 0)
        assert all(a.k < b.k and a.L > b.L for a, b in zip(pts, pts[1:]))
        ks = [p.k for p in pts]
        # every critical k really is where the spectrum first reaches its L
        for pt in pts[1:]:
            assert k_error_lc_bruteforce(s, pt.k) == pt.L
            assert k_error_lc_bruteforce(s, pt.k - 1) > pt.L
        assert ks == sorted(ks)


def test_celcs_modes_and_guards():
    assert celcs(PeriodicSequence.zeros(MOD9)) == (CelcsPoint(0, 0),)
    with pytest.raises(FormulaInapplicable, match=r"^formula mode needs a hypercube$"):
        celcs(seq(MOD9, "110100100"), mode="formula")
    with pytest.raises(FormulaInapplicable, match=r"^formula mode needs a hypercube$"):
        celcs(seq(Modulus(2, 2), "1101"), mode="formula")
    with pytest.raises(ValueError):
        celcs(seq(MOD9, "110000000"), mode="nope")
    with pytest.raises(BudgetExceeded, match=r"^512 error patterns exceed cap 3$"):
        celcs(seq(MOD9, "111111111"), cap=3)


def test_celcs_checks_its_mode_before_the_zero_shortcut():
    zero = PeriodicSequence.zeros(MOD9)
    assert celcs(zero, mode="formula") == celcs(zero, mode="brute") == (CelcsPoint(0, 0),)
    with pytest.raises(ValueError, match=r"^unknown mode 'bogus'$"):
        celcs(zero, mode="bogus")


@pytest.mark.parametrize("cap", ["x", 0], ids=repr)
def test_the_zero_sequence_checks_its_cap(cap):
    """A brute-force spectrum of s = 0 refuses a bad cap, as at any other s."""
    zero = PeriodicSequence.zeros(MOD9)
    text = rf"^cap must be an int >= 1; got {re.escape(repr(cap))}$"
    for call in (lambda: celcs(zero, cap=cap), lambda: k_error_lc_bruteforce(zero, 1, cap=cap)):
        with pytest.raises(BudgetExceeded, match=text):
            call()
    assert celcs(zero, cap=1) == ((0, 0),)


@pytest.mark.parametrize("cap", ["x", 0], ids=repr)
def test_closed_forms_check_their_cap(cap):
    """Formula celcs refuses a bad cap before the closed form, on a hypercube
    and on s = 0, as the brute-force m1 of a sum of two hypercubes does."""
    text = rf"^cap must be an int >= 1; got {re.escape(repr(cap))}$"
    cube, pair = seq(MOD9, "110110110"), seq(MOD9, "110100100")
    zero = PeriodicSequence.zeros(MOD9)
    calls = [lambda s=s: celcs(s, mode="formula", cap=cap) for s in (cube, zero)]
    calls.append(lambda: first_critical_bruteforce(pair, cap=cap))
    for call in calls:
        with pytest.raises(BudgetExceeded, match=text):
            call()
    assert celcs(cube, mode="formula", cap=1) == ((0, 2), (3, 1), (6, 0))


def test_second_critical_formula_cases():
    assert first_critical_m(seq(MOD27, "110000000" * 3)).m1_s == 6
    assert first_critical_m(seq(MOD9, "010000000")).m1_s is None  # erased to zero
    assert first_critical_m(seq(MOD9, "110000000")).m1_s == 2
    assert first_critical_m(seq(MOD25, "11110" * 5)).m1_s == 20


def test_second_critical_matches_brute_exhaustive_n9():
    """The closed-form m1 is exact on every hypercube at 3^2."""
    cubes = 0
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        if is_hypercube(s):
            cubes += 1
            assert first_critical_m(s).m1_s == first_critical_bruteforce(s).m1_s, v
    assert cubes == 133



def celcs_formula(s):
    return celcs(s, mode="formula")


@pytest.mark.parametrize(
    "closed_form, text",
    [
        (first_critical_m, "110100100"),  # two hypercubes
        (first_critical_m, "110000000"),
        (celcs_formula, "110000000"),
        (celcs_formula, "000100100"),
        (first_critical_m, "000100100"),
        (celcs_formula, "110110110"),
    ],
)
def test_closed_forms_descend_once(monkeypatch, closed_form, text):
    import seqcomplex.hypercube as hypercube
    import seqcomplex.kerror as kerror

    calls = []
    descend = hypercube._descend

    def counted(*args, **kwargs):
        calls.append(args)
        return descend(*args, **kwargs)

    monkeypatch.setattr(hypercube, "_descend", counted)
    monkeypatch.setattr(kerror, "_descend", counted)
    closed_form(seq(MOD9, text))
    assert len(calls) == 1


def test_closed_forms_scan_no_error_patterns(monkeypatch):
    """No closed-form name falls back on a brute-force class scan: with both
    scans raising, every closed form still answers, on every nonzero s at
    3^2, 5^1 and 2^3 and on seeded s at 3^3."""

    def brute(*args, **kwargs):
        raise AssertionError("brute-force scan reached")

    monkeypatch.setattr(kerror, "_class_min", brute)
    monkeypatch.setattr(kerror, "_spectrum", brute)
    rng = random.Random(56)
    for mod in (MOD9, Modulus(5, 1), Modulus(2, 3), MOD27):
        N = mod.period
        values = range(1, 1 << N) if N < 27 else [rng.randrange(1, 1 << N) for _ in range(200)]
        for v in values:
            s = PeriodicSequence(mod, v)
            first_critical_m(s)
            if is_hypercube(s):
                assert celcs(s, mode="formula")[-1] == (s.weight, 0)
            if mod.p == 2:
                kurosawa_m(s)
            else:
                meidl_upper_bound(s)
        for k in range(N):
            construct_stable(mod, k)
    with pytest.raises(AssertionError, match="brute-force scan reached"):
        first_critical_bruteforce(seq(MOD9, "110000000"))


def test_kurosawa_pinned():
    mod4 = Modulus(2, 2)
    assert kurosawa_m(PeriodicSequence.from_text("1100", mod4)) == 2
    assert kurosawa_m(PeriodicSequence.from_text("1010", mod4)) == 2
    assert kurosawa_m(PeriodicSequence.from_text("1000", mod4)) == 1
    with pytest.raises(OddP):
        kurosawa_m(seq(MOD9, "110000000"))


def test_p2_closed_form_m_is_kurosawa_m():
    """At p = 2 the closed-form m, read from the leading cube, is exact for
    every s, not only for cubes."""
    for s in p2_universe():
        assert first_critical_m(s).m_s == kurosawa_m(s), s.to01()


def test_p2_formula_celcs_is_exact_on_every_cube():
    cubes = 0
    for s in p2_universe(sampled_up_to=4):
        if is_hypercube(s):
            cubes += 1
            assert celcs(s, mode="formula") == celcs(s, mode="brute"), s.to01()
            assert first_critical_m(s).m1_s is None, s.to01()
    assert cubes == 3 + 11 + 59 + 795


def test_kurosawa_matches_brute_exhaustive_n4():
    mod4 = Modulus(2, 2)
    for v in range(1, 16):
        s = PeriodicSequence(mod4, v)
        assert kurosawa_m(s) == first_critical_bruteforce(s).m_s, v


def test_meidl_bound_pinned():
    assert meidl_upper_bound(seq(MOD25, "11110" * 5)) == 10
    assert meidl_upper_bound(seq(MOD27, "000100100" * 3)) == 9
    with pytest.raises(EvenP):
        meidl_upper_bound(PeriodicSequence(Modulus(2, 2), 0b0011))


def test_meidl_bound_holds_exhaustive_n9():
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        assert first_critical_bruteforce(s).m_s <= meidl_upper_bound(s), v


def test_construct_stable_table():
    expected = {
        0: ("100000000", 9),
        1: ("111000000", 7),
        2: ("111000000", 7),
        3: ("111111111", 1),
        8: ("111111111", 1),
    }
    for k, (text, L) in expected.items():
        s = construct_stable(MOD9, k)
        assert s.to01() == text and lc(s) == L, k
    with pytest.raises(KOutOfRange):
        construct_stable(MOD9, 9)
    with pytest.raises(KOutOfRange):
        construct_stable(MOD9, -1)


def test_constructed_sequences_first_drop_at_their_weight():
    """At every accepted modulus up to period 12 and every k, the construction
    is p^l ones with p^(l-1) <= k < p^l, of complexity N - p^l + 1, which holds
    until p^l errors and then falls to 0."""
    moduli = [Modulus(2, 1), Modulus(2, 2), Modulus(2, 3), Modulus(3, 1), MOD9,
              Modulus(5, 1), Modulus(11, 1)]
    for mod in moduli:
        p, N = mod.p, mod.period
        for k in range(N):
            s = construct_stable(mod, k)
            ones = next(p**l for l in range(mod.n + 1) if k < p**l)
            assert s.value == (1 << ones) - 1, (mod, k)
            assert celcs(s) == (CelcsPoint(0, N - ones + 1), CelcsPoint(ones, 0)), (mod, k)


def test_some_stable_sequences_beat_the_construction():
    """At odd p the construction need not have the largest L_k."""
    for text, mod, k, L_k in [("11000", Modulus(5, 1), 1, 4),
                              ("11000000000", Modulus(11, 1), 1, 10)]:
        s = seq(mod, text)
        assert k_error_lc_bruteforce(s, k) == lc(s) == L_k
        assert k_error_lc_bruteforce(construct_stable(mod, k), k) == 1
    assert k_error_lc_bruteforce(seq(MOD9, "111100000"), 3) == 3
    assert k_error_lc_bruteforce(construct_stable(MOD9, 3), 3) == 1


@pytest.mark.parametrize("k", [True, 1.0, "1"])
def test_construct_stable_refuses_a_non_int_k(k):
    with pytest.raises(KOutOfRange, match=r"^k must be an int; got "):
        construct_stable(MOD9, k)


def test_constructed_sequences_hold_their_complexity():
    s = construct_stable(MOD9, 2)
    assert [k_error_lc_bruteforce(s, k) for k in range(4)] == [7, 7, 7, 0]
    t = construct_stable(Modulus(2, 3), 1)
    assert t.to01() == "11000000" and lc(t) == 7
    assert k_error_lc_bruteforce(t, 1) == 7
    assert k_error_lc_bruteforce(t, 2) < 7


def test_stable_complexity_is_maximal_n9():
    # no 9-periodic sequence keeps a complexity above 7 through 2 errors
    best = max(k_error_lc_bruteforce(PeriodicSequence(MOD9, v), 2) for v in range(512))
    assert best == 7 == k_error_lc_bruteforce(construct_stable(MOD9, 2), 2)


@pytest.mark.parametrize("cap", ["5", None, 2.5, True, 0, -3], ids=repr)
def test_a_cap_must_be_an_int_of_at_least_one(cap):
    """Every place that compares a cap refuses one that is no int >= 1, and
    an int cap still meets its budget text."""
    s = seq(MOD9, "110000000")
    text = rf"^cap must be an int >= 1; got {re.escape(repr(cap))}$"
    for call in (
        lambda cap: k_error_lc_bruteforce(s, 1, cap=cap),
        lambda cap: first_critical_bruteforce(s, cap=cap),
        lambda cap: celcs(s, mode="brute", cap=cap),
        lambda cap: enumerate_hypercubes(MOD9, (1,), cap=cap),
        lambda cap: enumerate_hypercubes(Modulus(2, 3), (1,), cap=cap),
    ):
        with pytest.raises(BudgetExceeded, match=text):
            call(cap)
        with pytest.raises(BudgetExceeded, match=r"exceed cap 1$|, cap is 1$"):
            call(1)

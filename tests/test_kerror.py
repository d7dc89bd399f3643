import random
import re
import tracemalloc
from itertools import combinations, islice
from math import comb

import pytest

from helpers import (
    exhaustive_min_change,
    gcd_k_error_lc,
    p2_universe,
    random_tuple_vertex,
    scalar_class_min,
    seq,
)
from seqcomplex import (
    CelcsPoint,
    Modulus,
    PeriodicSequence,
    VertexDescriptor,
    VertexKind,
    celcs,
    construct_stable,
    enumerate_cubes,
    enumerate_hypercubes,
    first_critical_bruteforce,
    first_critical_m,
    is_hypercube,
    k_error_lc_bruteforce,
    kerror,
    kurosawa_m,
    lc,
    meidl_upper_bound,
    second_critical_m1,
    standard_decompose,
    vertex_min_change,
)
from seqcomplex.errors import (
    BudgetExceeded,
    EvenP,
    FormulaInapplicable,
    KOutOfRange,
    NotTupleVertex,
    OddP,
    ZeroLengthVertex,
    ZeroSequence,
)

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
                         (2, 4, [rng.randrange(1, 1 << 16) for _ in range(12)])]:
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
    assert rep.m_s == 3 and rep.method == "formula"
    # weight-4 vertex at p=5: fill the single zero row
    rep = first_critical_m(seq(MOD25, "11110" * 5))
    assert rep.m_s == 5
    # length-1 vertex: equalizing one row beats erasing
    rep = first_critical_m(seq(MOD27, "000100100" * 3))
    assert rep.m_s == 3 and rep.vertex_j == 1 and rep.L_after == 3
    # sum of two hypercubes: one flip rejoins the repeats
    rep = first_critical_m(seq(MOD27, "110000000" + "111000000" * 2))
    assert rep.m_s == 1 and rep.L_after == 7 and rep.m1_s is None
    assert second_critical_m1(seq(MOD27, "110000000" + "111000000" * 2)) == 8


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
            exact = next(kerror._drops(h1, kerror.DEFAULT_CAP, mod.period))
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
    assert second_critical_m1(s) == first_critical_m(s).m1_s == s.weight
    assert first_critical_bruteforce(s).m1_s == m1 < s.weight
    formula, brute = celcs(s, mode="formula"), celcs(s, mode="brute")
    assert CelcsPoint(m1, L_m1) in brute
    assert CelcsPoint(m1, L_m1) not in formula
    assert formula == tuple(pt for pt in brute if pt != CelcsPoint(m1, L_m1))


def test_vertex_min_change_pinned():
    v = VertexDescriptor(VertexKind.TUPLE, 1, ((0, 0, 0), (1, 0, 0), (1, 0, 0)))
    assert vertex_min_change(v) == 1
    with pytest.raises(NotTupleVertex):
        vertex_min_change(VertexDescriptor(VertexKind.ELEMENT))
    with pytest.raises(ZeroLengthVertex):
        vertex_min_change(VertexDescriptor(VertexKind.TUPLE, 0, ((1,), (1,), (0,))))


def test_vertex_min_change_matches_exhaustive_search():
    rng = random.Random(17)
    for _ in range(300):
        v = random_tuple_vertex(rng, 3, rng.choice([1, 2]))
        assert vertex_min_change(v) == exhaustive_min_change(v)
    for _ in range(100):
        v = random_tuple_vertex(rng, 5, 1)
        assert vertex_min_change(v) == exhaustive_min_change(v)


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


def test_second_critical_formula_cases():
    assert second_critical_m1(seq(MOD27, "110000000" * 3)) == 6
    assert second_critical_m1(seq(MOD9, "010000000")) is None  # erased to zero
    assert second_critical_m1(seq(MOD9, "110000000")) == 2
    assert second_critical_m1(seq(MOD25, "11110" * 5)) == 20


def test_second_critical_matches_brute_exhaustive_n9():
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        assert second_critical_m1(s) == first_critical_bruteforce(s).m1_s, v



def celcs_formula(s):
    return celcs(s, mode="formula")


@pytest.mark.parametrize(
    "closed_form, text",
    [
        (first_critical_m, "110100100"),  # two hypercubes
        (first_critical_m, "110000000"),
        (celcs_formula, "110000000"),
        (celcs_formula, "000100100"),
        (second_critical_m1, "110000000"),
        (second_critical_m1, "000100100"),
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
            assert second_critical_m1(s) is None, s.to01()
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
        lambda cap: enumerate_cubes(Modulus(2, 3), (1,), cap=cap),
    ):
        with pytest.raises(BudgetExceeded, match=text):
            call(cap)
        with pytest.raises(BudgetExceeded, match=r"exceed cap 1$|, cap is 1$"):
            call(1)

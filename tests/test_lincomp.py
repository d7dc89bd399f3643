import dataclasses
import random

import pytest

from functools import cache

from helpers import (
    gcd_lc,
    halving_lc,
    large_p_values,
    list_plain_descent,
    list_plain_trace,
    list_rewrite_descent,
    p2_universe,
    seq,
    stepwise_bm,
)
from seqcomplex import (
    LCForm,
    Modulus,
    PeriodicSequence,
    XwliStep,
    XwliTrace,
    berlekamp_massey_lc,
    is_hypercube,
    lc,
    lc_form_decompose,
    xwli_lc,
)
from seqcomplex.errors import NotRepresentable
from seqcomplex import hypercube, lincomp
from seqcomplex.hypercube import _descend, _peel
from seqcomplex.lincomp import _bm_value, _bm_values, _lc_value, _levels, _walk

MOD9 = Modulus(3, 2)
MOD27 = Modulus(3, 3)

# reference complexities for fixed one-period literals
PINNED_9 = {
    "100100100": 3,
    "010000000": 9,
    "110100100": 8,
    "110000000": 8,
    "010100100": 9,  # XOR of the two lines above it
    "111000000": 7,
    "000111111": 6,
    "111111111": 1,
}


def test_pinned_complexities_period_9():
    for text, L in PINNED_9.items():
        s = seq(MOD9, text)
        assert lc(s) == L, text
        assert berlekamp_massey_lc(s) == L, text
        assert gcd_lc(s) == L, text


def test_pinned_complexities_period_27():
    assert lc(seq(MOD27, "110" * 9)) == 2
    assert lc(seq(MOD27, "000100100" * 3)) == 6
    assert lc(seq(MOD27, "110100100" * 3)) == 8
    assert lc(seq(MOD27, "110000000" + "111000000" * 2)) == 26


def test_xor_can_raise_or_collapse_complexity():
    a = seq(MOD9, "111000000")
    b = seq(MOD9, "000111111")
    assert (lc(a), lc(b), lc(a ^ b)) == (7, 6, 1)
    c = seq(MOD9, "100100100")
    d = seq(MOD9, "110000000")
    assert lc(c ^ d) == 9 > max(lc(c), lc(d))


def test_zero_sequence_has_complexity_zero():
    for mod in (MOD9, Modulus(2, 3), Modulus(5, 1)):
        z = PeriodicSequence.zeros(mod)
        assert lc(z) == 0
        assert berlekamp_massey_lc(z) == 0
        assert gcd_lc(z) == 0


def test_single_one_has_full_complexity():
    for mod in (MOD9, MOD27, Modulus(5, 1), Modulus(2, 4)):
        for i in (0, mod.period - 1):
            assert lc(PeriodicSequence(mod, 1 << i)) == mod.period


def test_odd_p_lc_value_matches_bm_on_every_value_at_13_1():
    """At n = 1 the only level is a sum over 13 one-bit parts, or a split
    of 13 equal ones."""
    for v in range(1 << 13):
        assert _lc_value(v, 13, 1) == _bm_value(v | v << 13, 26), v


def test_three_way_agreement_exhaustive_n9():
    for v in range(512):
        s = PeriodicSequence(MOD9, v)
        assert lc(s) == berlekamp_massey_lc(s) == gcd_lc(s), v


def test_three_way_agreement_p2_exhaustive():
    for n in (1, 2, 3, 4):
        mod = Modulus(2, n)
        for v in range(1 << mod.period):
            s = PeriodicSequence(mod, v)
            L = halving_lc(v, n)
            assert lc(s) == berlekamp_massey_lc(s) == gcd_lc(s) == L, (n, v)


def test_three_way_agreement_p2_sampled_n32():
    mod = Modulus(2, 5)
    rng = random.Random(7)
    for _ in range(200):
        s = PeriodicSequence(mod, rng.randrange(1, 1 << 32))
        assert lc(s) == berlekamp_massey_lc(s) == gcd_lc(s)


def test_p2_engines_match_bm_at_both_weight_parities():
    # up to 2^12 an odd weight returns 2^n before the halving; above it,
    # and at every even weight, the value halves (every value up to 2^4 is
    # checked above)
    rng = random.Random(22)
    for n in range(5, 15):
        N = 1 << n
        dense = [rng.getrandbits(N) for _ in range(4)]
        sparse = [sum(1 << i for i in rng.sample(range(N), 3)) for _ in range(4)]
        # a block repeated 2^j times has complexity at most N / 2^j
        repeated = [int(f"{rng.getrandbits(N >> j):0{N >> j}b}" * (1 << j), 2)
                    for j in (1, 2, 3, 4)]
        for i, v in enumerate(dense + sparse + repeated):
            if v.bit_count() % 2 != i % 2:
                v ^= 1 << rng.randrange(N)
            s = PeriodicSequence(Modulus(2, n), v)
            L = berlekamp_massey_lc(s)
            assert lc(s) == L, (n, v)
            assert (L == N) == (v.bit_count() % 2 == 1), (n, v)


def _p2_agree(v: int, n: int, oracle: bool = True) -> None:
    N = 1 << n
    L = _lc_value(v, 2, n)
    assert L == halving_lc(v, n), (n, v)
    if oracle:
        assert L == _bm_value(v | v << N, 2 * N), (n, v)


def test_p2_tables_hold_the_halving_complexity_of_every_short_vector():
    tables = [lincomp._tail_lc(2, t) for t in range(4)]
    assert [len(t) for t in tables] == [2, 4, 16, 256]
    for k, table in enumerate(tables):
        assert table == [halving_lc(a, k) for a in range(1 << (1 << k))], k
    for n in range(1, 21):
        # _P2[n] is filled on the first halving at 2^n (an even weight)
        assert _lc_value(0b11, 2, n) == halving_lc(0b11, n), n
        # every period finishes from the table of 2^min(n, 3) bits
        assert lincomp._P2[n][1] is tables[min(n, 3)], n
        # and halves at the levels above it, with their _levels geometry
        halvings = [(plen, mask) for _, plen, mask, _, _ in _levels(2, n)[: n - min(n, 3)]]
        assert list(lincomp._P2[n][0]) == halvings, n


def test_tail_lc_holds_each_tail_rows_complexity():
    """Row a of _tail_lc(p, t) is the increments of _tail(p, t)'s row a plus
    its final scalar, and the complexity of the p^t-bit vector a; with no
    level (t = 0) it is the scalar itself.  _lc_value, which finishes from
    it, equals the sum of the full walk's records on every value where the
    table holds the whole descent, and on seeded values where levels are
    walked or no table exists (13^1)."""
    for p, t in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (11, 1)):
        rows, table = lincomp._tail(p, t), lincomp._tail_lc(p, t)
        assert type(table) is list and len(table) == len(rows) == 1 << p**t, (p, t)
        for a, (row, L) in enumerate(zip(rows, table)):
            assert L == sum(increment for _, increment, _ in row) + row[-1][2], (p, t, a)
            assert L == berlekamp_massey_lc(PeriodicSequence(Modulus(p, t), a)), (p, t, a)
    assert lincomp._tail_lc(13, 0) == [0, 1]
    # with no level the final scalar is the whole vector, and its rows are empty
    assert lincomp._tail(13, 0) == ((), ())

    def records_sum(v, p, n):
        records = list(_walk(v, _levels(p, n), None))
        return sum(increment for _, increment, _ in records) + records[-1][2]

    for p, n in ((3, 1), (3, 2), (5, 1), (11, 1)):
        for v in range(1 << p**n):
            assert _lc_value(v, p, n) == records_sum(v, p, n), (p, n, v)
    rng = random.Random(5202)
    for p, n in ((3, 3), (3, 5), (5, 2), (11, 2), (13, 1)):
        N = p**n
        for v in [0, 1, (1 << N) - 1] + [rng.getrandbits(N) for _ in range(200)]:
            assert _lc_value(v, p, n) == records_sum(v, p, n), (p, n, v)
    # p = 2's halving reads the same tables, lists, through _P2
    assert all(type(lincomp._tail_lc(2, t)) is list for t in range(4))


def _p2_samples(rng: random.Random, n: int, pairs: int) -> list[int]:
    """Seeded 2^n-bit values: sparse ones of weights 1 to 4, then ``pairs``
    pairs of a dense value and a block repeated 2^j times, the k-th pair of
    weight parity k % 2 (a flipped bit fixes it; a repeated block's weight
    is even)."""
    N = 1 << n
    values = [sum(1 << i for i in rng.sample(range(N), w)) for w in (1, 2, 3, 4)]
    for k in range(pairs):
        j = 1 + (k + 3) % (n - 1)
        pair = [rng.getrandbits(N), int(f"{rng.getrandbits(N >> j):0{N >> j}b}" * (1 << j), 2)]
        values += [v ^ 1 << rng.randrange(N) if v.bit_count() % 2 != k % 2 else v for v in pair]
    return values


def test_p2_lc_value_matches_halving_and_bm_on_seeded_values():
    # Berlekamp-Massey's cost grows as the square of the period, so the
    # largest periods get fewer dense and repeated values
    rng = random.Random(35)
    for n in range(5, 17):
        for v in _p2_samples(rng, n, 6 if n < 13 else 3 if n < 15 else 1):
            _p2_agree(v, n)


def test_p2_lc_value_matches_halving_at_the_period_cap():
    # the oracle runs only where it is quick at 2^20: weights 1 and 2, and a
    # 256-bit block repeated 2^12 times
    rng = random.Random(20)
    for v in _p2_samples(rng, 20, 2):
        _p2_agree(v, 20, oracle=False)
    block = rng.getrandbits(256)
    for v in (1 << 12345, 1 << 5 | 1 << 777777, int(f"{block:0256b}" * 4096, 2)):
        _p2_agree(v, 20)


def test_three_way_agreement_sampled_odd():
    rng = random.Random(11)
    for mod in (MOD27, Modulus(5, 2), Modulus(11, 1)):
        for _ in range(300):
            s = PeriodicSequence(mod, rng.randrange(1, 1 << mod.period))
            form, trace = xwli_lc(s)
            assert lc(s) == form.value == trace.total == berlekamp_massey_lc(s) == gcd_lc(s)
    # dense, sparse and block-repeated values at larger periods
    for mod in (Modulus(3, 5), Modulus(3, 7), Modulus(5, 3), Modulus(11, 2), Modulus(13, 2)):
        N = mod.period
        for _ in range(40):
            w = mod.p ** rng.randrange(mod.n)
            for v in (
                rng.getrandbits(N),
                sum(1 << i for i in rng.sample(range(N), rng.randint(1, 6))),
                rng.getrandbits(w) * ((1 << N) - 1) // ((1 << w) - 1),
            ):
                s = PeriodicSequence(mod, v)
                assert lc(s) == xwli_lc(s)[0].value == berlekamp_massey_lc(s), (mod, v)
    for mod, v in large_p_values(seed=13):
        s = PeriodicSequence(mod, v)
        assert lc(s) == xwli_lc(s)[0].value == berlekamp_massey_lc(s), (mod, v)


def test_trace_matches_list_descent():
    """Every step's branch, weights before and after, and increment, and the
    final scalar, against the descent on a list of parts."""

    def check(mod, v):
        _, trace = xwli_lc(PeriodicSequence(mod, v))
        steps = [(st.branch, st.pre_weight, st.post_weight, st.increment) for st in trace.steps]
        assert (steps, trace.final_one) == list_plain_trace(v, mod.p, mod.n), (mod, v)

    for mod in (MOD9, Modulus(5, 1), Modulus(11, 1), Modulus(13, 1)):
        for v in range(1 << mod.period):
            check(mod, v)
    rng = random.Random(17)
    for mod in (MOD27, Modulus(5, 2), Modulus(3, 5), Modulus(3, 7), Modulus(13, 2)):
        N = mod.period
        for _ in range(100):
            check(mod, rng.randrange(1 << N))
            check(mod, sum(1 << i for i in rng.sample(range(N), 3)))
    for mod, v in large_p_values(seed=19):
        check(mod, v)


def test_p2_trace_is_the_halving_descent():
    """At p = 2 xwli_lc's trace is the Games-Chan halving: its steps and
    final scalar against the list descent, its form's exponents the levels
    that summed (v = e + 1) and its epsilon the final scalar, and its value
    the halving's and Berlekamp-Massey's, on every sequence up to 2^4 and
    seeded ones up to 2^8."""
    for s in p2_universe():
        n, v = s.modulus.n, s.value
        form, trace = xwli_lc(s)
        steps, final_one = list_plain_trace(v, 2, n)
        assert ([tuple(st) for st in trace.steps], trace.final_one) == (steps, final_one), (n, v)
        sums = {n + 1 - depth for depth, (branch, *_) in enumerate(steps, 1) if branch == "sum"}
        assert (form.p, form.epsilon, form.exponents) == (2, final_one, sums), (n, v)
        L = halving_lc(v, n)
        assert form.value == trace.total == L == berlekamp_massey_lc(s), (n, v)
    # a value has more than one form at p = 2; the trace's is the descent's
    s = seq(Modulus(2, 2), "1010")
    assert xwli_lc(s)[0] == LCForm(2, 1, frozenset({1}))
    assert lc_form_decompose(lc(s), s.modulus) == LCForm(2, 0, frozenset({2}))


def test_trace_structure_sum_sum():
    form, trace = xwli_lc(seq(MOD9, "110000000"))
    assert [st.branch for st in trace.steps] == ["sum", "sum"]
    assert [st.increment for st in trace.steps] == [6, 2]
    assert not trace.final_one
    assert form.value == 8 and form.epsilon == 0
    assert sorted(form.exponents) == [1, 2]
    assert str(form) == "8 = 0 + (3-1)*[1,2]"


def test_trace_structure_split_then_sum():
    form, trace = xwli_lc(seq(MOD9, "110110110"))
    assert [st.branch for st in trace.steps] == ["split", "sum"]
    assert [st.increment for st in trace.steps] == [0, 2]
    assert form.value == 2


def test_trace_records_keep_their_fields_repr_and_immutability():
    form, trace = xwli_lc(seq(MOD9, "110000000"))
    assert repr(trace) == (
        "XwliTrace(steps=(XwliStep(branch='sum', pre_weight=2, post_weight=2, increment=6), "
        "XwliStep(branch='sum', pre_weight=2, post_weight=0, increment=2)), final_one=False)"
    )
    assert trace == XwliTrace((XwliStep("sum", 2, 2, 6), XwliStep("sum", 2, 0, 2)), False)
    assert hash(trace) == hash(xwli_lc(seq(MOD9, "110000000"))[1])
    step = trace.steps[0]
    for obj, name in ((step, "branch"), (step, "increment"), (trace, "steps"), (trace, "final_one")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    assert step.increment == 6 and trace.total == form.value == 8
    # xwli_lc builds its records past the namedtuples' own __new__; each
    # trace still equals one built field by field, and behaves as one
    rng = random.Random(36)
    for mod in (MOD9, MOD27, Modulus(5, 2), Modulus(13, 1)):
        for v in [0, 1, (1 << mod.period) - 1] + [rng.getrandbits(mod.period) for _ in range(10)]:
            form, trace = xwli_lc(PeriodicSequence(mod, v))
            built = XwliTrace(
                steps=tuple(
                    XwliStep(branch=st[0], pre_weight=st[1], post_weight=st[2], increment=st[3])
                    for st in list_plain_trace(v, mod.p, mod.n)[0]
                ),
                final_one=trace.final_one,
            )
            assert type(trace) is XwliTrace and trace == built, (mod, v)
            assert all(type(st) is XwliStep for st in trace.steps)
            assert hash(trace) == hash(built) and repr(trace) == repr(built)
            assert trace._asdict() == built._asdict()
            assert [st._asdict() for st in trace.steps] == [st._asdict() for st in built.steps]
            flipped = trace._replace(final_one=not trace.final_one)
            assert flipped == built._replace(final_one=not built.final_one)
            assert type(flipped) is XwliTrace and flipped.steps is trace.steps
            assert trace.steps[0]._replace(increment=7) == built.steps[0]._replace(increment=7)
            assert trace.total == built.total == form.value, (mod, v)


def test_xwli_lc_repeats_its_result_on_one_sequence():
    rng = random.Random(21)
    for mod in (MOD9, MOD27, Modulus(5, 2)):
        for v in [0, 1, (1 << mod.period) - 1] + [rng.getrandbits(mod.period) for _ in range(20)]:
            s = PeriodicSequence(mod, v)
            assert xwli_lc(s) == xwli_lc(s), (mod, v)


def test_trace_delta_keeps_final_one():
    form, trace = xwli_lc(seq(MOD9, "010000000"))
    assert trace.final_one
    assert form.value == 9 and form.epsilon == 1


def test_each_increase_dominates_everything_after_it():
    """A sum step at depth l adds (p-1)p^(n-l), which alone exceeds the sum
    of every increase that can still happen below it."""
    rng = random.Random(3)
    for _ in range(500):
        s = PeriodicSequence(MOD27, rng.randrange(1, 1 << 27))
        _, trace = xwli_lc(s)
        incs = [st.increment for st in trace.steps]
        for i, st in enumerate(trace.steps):
            if st.branch == "sum":
                assert st.increment > sum(incs[i + 1 :]) + int(trace.final_one)


def test_canonical_form_roundtrip_n9():
    attainable = {0, 1, 2, 3, 6, 7, 8, 9}
    for L in range(10):
        if L in attainable:
            form = lc_form_decompose(L, MOD9)
            assert form.value == L
        else:
            with pytest.raises(NotRepresentable):
                lc_form_decompose(L, MOD9)
    with pytest.raises(NotRepresentable):
        lc_form_decompose(10, MOD9)
    with pytest.raises(NotRepresentable):
        lc_form_decompose(-1, MOD9)


@pytest.mark.parametrize("L", [8.0, True, "8"])
def test_canonical_form_refuses_a_non_int_L(L):
    with pytest.raises(NotRepresentable, match=r"^L must be an int; got "):
        lc_form_decompose(L, MOD9)


def test_canonical_form_matches_engine_and_is_one_object_per_form():
    """xwli_lc's form is lc_form_decompose's form of lc, with its str and
    hash, on every value at the whole-table moduli and on seeded values at
    walked ones; every trace of one p with one complexity shares one form,
    at every n."""
    rng = random.Random(5201)
    shared: dict = {}
    for p, n in ((3, 1), (3, 2), (5, 1), (11, 1), (3, 3), (5, 2), (3, 5), (13, 1)):
        mod = Modulus(p, n)
        N = mod.period
        values = range(1 << N) if N <= 11 else [0, 1, (1 << N) - 1] + [
            rng.getrandbits(N) for _ in range(300)
        ]
        for v in values:
            s = PeriodicSequence(mod, v)
            form = xwli_lc(s)[0]
            want = lc_form_decompose(lc(s), mod)
            assert form == want and str(form) == str(want) and hash(form) == hash(want), (mod, v)
            assert shared.setdefault((p, form.value), form) is form, (mod, v)


def test_run_skipping_bm_matches_the_stepwise_loop():
    """Skipping zero-discrepancy runs changes no result: every raw stream of
    length 1..14, and seeded two-period streams at periods 243 and 2187."""
    for length in range(1, 15):
        for stream in range(1 << length):
            assert _bm_value(stream, length) == stepwise_bm(stream, length), (stream, length)
    rng = random.Random(9)
    for N, samples in ((243, 40), (2187, 6)):
        for _ in range(samples):
            v = rng.getrandbits(N)
            stream = v | (v << N)
            assert _bm_value(stream, 2 * N) == stepwise_bm(stream, 2 * N), (N, v)


def _assert_lanes_match(values, N):
    got = _bm_values(values, N)
    assert len(got) == len(values)
    for v, L in zip(values, got):
        stream = v | (v << N)
        assert L == _bm_value(stream, 2 * N) == stepwise_bm(stream, 2 * N), (N, v, L)
    return got


@pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9, 11])
def test_bit_sliced_bm_matches_scalar_on_every_value(N):
    """Every value, zero included, alone and repeated to at least
    max(256, 4N) lanes."""
    values = list(range(1 << N))
    _assert_lanes_match(values, N)
    _assert_lanes_match(values * -(-max(256, 4 * N) >> N), N)


@pytest.mark.parametrize("N", [7, 15, 16, 17, 25, 27, 31, 32, 33, 48, 56, 63, 64, 65, 81, 243])
def test_bit_sliced_bm_matches_scalar_on_random_blocks(N):
    """Seeded blocks of 1 to 4096 lanes; lane 0 holds a single one, whose
    complexity is the full period N."""
    rng = random.Random(N)
    for width in (1, 255, 256, 1000, 4096):
        values = [1] + [rng.getrandbits(N) for _ in range(width - 1)]
        assert _assert_lanes_match(values, N)[0] == N


@pytest.mark.parametrize("N", [255, 256])
def test_bit_sliced_bm_field_holds_the_full_period(N):
    """L = N needs one byte per lane at 255 and two at 256."""
    rng = random.Random(N)
    values = [1, 0] + [rng.getrandbits(N) for _ in range(4 * N - 2)]
    assert _assert_lanes_match(values, N)[:2] == [N, 0]


def test_lc_form_value_is_summed_once_and_is_no_field():
    form, _ = xwli_lc(PeriodicSequence(Modulus(3, 6), 1))
    first = form.value
    assert first == 729 and type(first) is int and form.value is first
    assert [f.name for f in dataclasses.fields(LCForm)] == ["p", "epsilon", "exponents"]
    twin = LCForm(form.p, form.epsilon, form.exponents)
    assert twin == form and hash(twin) == hash(form) and repr(twin) == repr(form)
    form = LCForm(p=3, epsilon=1, exponents=frozenset({2}))
    assert form.value == 7
    assert dataclasses.replace(form, epsilon=0).value == form.value - 1


def test_lc_form_value_is_the_sum_over_every_exponent_set():
    """Each form's value is eps + (p-1) * sum of p^(v-1) over its exponents,
    for every exponent set of {1..n} and both eps, built directly and by
    lc_form_decompose."""
    for p, n in ((3, 1), (3, 4), (5, 3), (11, 2), (13, 2), (3, 7)):
        mod = Modulus(p, n)
        for bits in range(1 << n):
            exps = frozenset(v for v in range(1, n + 1) if bits >> (v - 1) & 1)
            for eps in (0, 1):
                value = eps + (p - 1) * sum(p ** (v - 1) for v in exps)
                form = LCForm(p, eps, exps)
                assert form.value == value and type(form.value) is int, (p, n, exps)
                assert lc_form_decompose(value, mod) == form


def test_levels_record_each_levels_exponent_geometry_and_increment():
    """Row k of _levels(p, n) is the level e = n - 1 - k: its part length
    p^e, the masks of part 0 and of parts 0..p-2, and a sum's increment."""
    moduli = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 6)]
    for p, n in moduli + [(5, 2), (11, 1), (13, 1)]:
        rows = [
            (e, p**e, 2 ** (p**e) - 1, 2 ** ((p - 1) * p**e) - 1, (p - 1) * p**e)
            for e in range(n - 1, -1, -1)
        ]
        assert list(_levels(p, n)) == rows, (p, n)


def test_table_finished_records_match_list_references():
    """Up to p = 11, p = 2 included, the deepest levels' records come from
    a table.  Each record's exponent, branch, increment and weight, and the
    final scalar, against the descent on a list of parts; the plain descent
    of _peel's h_1, which reads them, against the list rewrite."""

    def check(p, n, v):
        steps, final_one = list_plain_trace(v, p, n)
        records = _walk(v, _levels(p, n), None)
        got = [(e, "sum" if inc else "split", inc, a.bit_count()) for e, inc, a in records]
        want = [(n - d, branch, inc, post) for d, (branch, _, post, inc) in enumerate(steps, 1)]
        assert got == want and (got[-1][3] == 1) == final_one, (p, n, v)
        if v:
            desc = _descend(_peel(v, p, n)[0], p, n)
            vecs, _, edges, q, ok = list_rewrite_descent(v, p, n)
            assert (desc.vecs, desc.edges, desc.q, desc.ok) == (vecs, edges, q, ok), (p, n, v)

    for p, n in ((2, 1), (2, 2), (2, 3), (3, 2), (5, 1), (11, 1)):
        for v in range(1 << p**n):
            check(p, n, v)
    rng = random.Random(3801)
    for p, n in ((3, 3), (5, 2), (3, 5), (2, 4), (2, 5), (2, 6)):
        N = p**n
        for _ in range(150):
            check(p, n, rng.getrandbits(N))
            check(p, n, sum(1 << i for i in rng.sample(range(N), rng.randint(1, 4))))
            w = p ** rng.randrange(n)
            check(p, n, rng.getrandbits(w) * ((1 << N) - 1) // ((1 << w) - 1))


def test_whole_table_descents_return_the_tables_row_and_walks_stay_lazy(monkeypatch):
    """Where the plan walks no level (2^1-2^3, 3^1, 3^2, 5^1 and 11^1),
    _descend reads the table's row and walks nothing: with _walk raising,
    every value's descent still matches the list reference.  At a walked
    modulus the walk is lazy: a value whose top sum cancels ones consumes
    exactly one record."""

    def no_walk(*args):
        raise AssertionError("a whole-table descent walked")

    monkeypatch.setattr(hypercube, "_walk", no_walk)
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (11, 1)):
        for v in range(1, 1 << p**n):
            desc = _descend(v, p, n)
            got = ([a.bit_count() for a in desc.vecs], desc.edges, desc.q, desc.ok)
            assert got == list_plain_descent(v, p, n), (p, n, v)
            if desc.ok:
                assert desc.vecs == list_rewrite_descent(v, p, n)[0], (p, n, v)
    consumed = []

    def spy(*args):
        for record in _walk(*args):
            consumed.append(record)
            yield record

    monkeypatch.setattr(hypercube, "_walk", spy)
    for p, n in ((3, 3), (3, 5), (13, 1), (2, 4)):
        # the top sum keeps one of five ones (of three at 13^1, one bit a part)
        v = 0b111 | 0b11 << p ** (n - 1)
        consumed.clear()
        desc = _descend(v, p, n)
        assert not desc.ok and desc.vecs == [v] and len(consumed) == 1, (p, n)


def test_tail_tables_are_built_once_per_depth_and_hold_at_most_2048_rows(monkeypatch):
    """A table covers the deepest t levels whose vectors have at most 11
    bits: t = 3 at p = 2 from 2^3 on, t = 2 at p = 3 (t = 1 at 3^1), t = 1
    at p = 5 and 11, none at p = 13.  Every plan of one (p, t), lc's,
    xwli_lc's, _descend's, _peel's and is_hypercube's included, shares the
    table built first, and at p = 13 each t = 0 table, built from zero
    levels, is the final scalar's base rows; the records _descend reads sum
    to the complexity.  p = 2's halvings are those of the same plan, filled
    in _P2 on first use."""
    built = []
    build = lincomp._tail.__wrapped__

    def counted(p, t):
        built.append((p, t))
        return build(p, t)

    for plans in ("_LC_PLANS", "_TRACE_PLANS"):
        monkeypatch.setattr(lincomp, plans, {})
    for plans in ("_DESCENT_PLANS", "_PEEL_PLANS", "_TEST_PLANS"):
        monkeypatch.setattr(hypercube, plans, {})
    monkeypatch.setattr(lincomp, "_P2", [None] * 21)
    for table in ("_tail_lc", "_tail_traces"):
        monkeypatch.setattr(lincomp, table, cache(getattr(lincomp, table).__wrapped__))
    counted_tail = cache(counted)
    monkeypatch.setattr(lincomp, "_tail", counted_tail)
    monkeypatch.setattr(hypercube, "_tail", counted_tail)
    rng = random.Random(3802)
    # deepest first: a table built for a longer period must leave the plan
    # of its own depth to be made when that period is first used
    moduli = [(3, n) for n in range(7, 0, -1)] + [(5, 3), (5, 2), (5, 1), (11, 2), (11, 1), (2, 4)]
    for p, n in moduli + [(13, 1), (13, 2)]:
        for v in [0, 1] + [rng.getrandbits(p**n) for _ in range(20)]:
            s = PeriodicSequence(Modulus(p, n), v)
            L = berlekamp_massey_lc(s)
            assert lc(s) == L, (p, n, v)
            assert xwli_lc(s)[0].value == L, (p, n, v)
            if v:
                assert _peel(v, p, n)[1] == L, (p, n, v)
                assert is_hypercube(s) == _descend(v, p, n).ok, (p, n, v)
                levels, tail = hypercube._DESCENT_PLANS[p, n]
                records = list(_walk(v, levels, tail) if levels else tail[v])
                assert sum(record[1] for record in records) + records[-1][2] == L, (p, n, v)
    assert sorted(built) == [(2, 3), (3, 1), (3, 2), (5, 1), (11, 1), (13, 0)]
    assert [n for n, plan in enumerate(lincomp._P2) if plan] == [4]
    halvings = tuple(row[1:3] for row in _levels(2, 4)[:1])
    assert lincomp._P2[4] == (halvings, lincomp._tail_lc(2, 3))
    assert lincomp._P2[4][1] is lincomp._tail_lc(2, 3)
    for p, n in moduli:
        t = min(n, 3 if p == 2 else 2 if p == 3 else 1)
        levels, tail = hypercube._DESCENT_PLANS[p, n]
        assert levels == _levels(p, n)[: n - t], (p, n)
        assert tail is lincomp._tail(p, t) and len(tail) == 2 ** p**t <= 2**11, (p, n)
        assert hypercube._PEEL_PLANS[p, n] == (levels, hypercube._peel_table(p, t)), (p, n)
        assert hypercube._PEEL_PLANS[p, n][1] is hypercube._peel_table(p, t), (p, n)
        assert hypercube._TEST_PLANS[p, n][1] is hypercube._verdict_table(p, t), (p, n)
    for p, n in ((13, 1), (13, 2)):
        assert hypercube._DESCENT_PLANS[p, n] == (_levels(p, n), ((), ()))
        assert hypercube._DESCENT_PLANS[p, n][1] is lincomp._tail(p, 0)
        assert lincomp._LC_PLANS[p, n] == (_levels(p, n), [0, 1])
        scalar_traces = [(XwliTrace((), False), 0), (XwliTrace((), True), 1)]
        assert lincomp._TRACE_PLANS[p, n][:2] == (_levels(p, n), scalar_traces)
        assert hypercube._PEEL_PLANS[p, n] == (_levels(p, n), [(0, 0), (1, 1)])
        assert hypercube._TEST_PLANS[p, n] == (_levels(p, n), b"\x01\x01")


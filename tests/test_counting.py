from collections import Counter
from itertools import combinations

import pytest
from helpers import product_grow

from seqcomplex import (
    Modulus,
    PeriodicSequence,
    class_lc,
    count_hypercubes,
    count_sequences_with_lc,
    counting,
    cube_lc,
    enumerate_hypercubes,
    extract_structure,
    is_hypercube,
    lc,
    lc_form_decompose,
    verify,
)
from seqcomplex.errors import (
    BudgetExceeded,
    EvenP,
    InvalidEdges,
    InvalidL,
    NotACube,
    NotRepresentable,
)

MOD9 = Modulus(3, 2)
MOD27 = Modulus(3, 3)

ELEMENT_CLASSES_9 = [(), (0,), (1,), (0, 1)]
TUPLE_CLASSES_9 = [(), (1,)]


def test_count_sequences_with_lc_pinned():
    r = count_sequences_with_lc(MOD9, 8)
    assert r.value == 189
    assert str(r) == "189 = (2^2 - 1) * (2^6 - 1)"
    assert count_sequences_with_lc(MOD9, 9).value == 189
    assert count_sequences_with_lc(MOD9, 3).value == 3
    assert count_sequences_with_lc(MOD9, 1).value == 1
    assert count_sequences_with_lc(MOD9, 0).value == 1


def test_count_sequences_with_lc_covers_everything():
    tally = Counter(lc(PeriodicSequence(MOD9, v)) for v in range(512))
    assert sorted(tally) == [0, 1, 2, 3, 6, 7, 8, 9]
    for L, n in tally.items():
        assert count_sequences_with_lc(MOD9, L).value == n, L
    assert sum(tally.values()) == 512


def test_count_sequences_with_lc_guards():
    with pytest.raises(NotRepresentable):
        count_sequences_with_lc(MOD9, 4)
    with pytest.raises(NotRepresentable):
        count_sequences_with_lc(MOD9, 10)
    with pytest.raises(NotRepresentable):
        count_sequences_with_lc(MOD9, -1)
    with pytest.raises(EvenP):
        count_sequences_with_lc(Modulus(2, 3), 5)


@pytest.mark.parametrize("L", [8.0, True, "8"])
def test_count_sequences_with_lc_refuses_a_non_int_L(L):
    with pytest.raises(NotRepresentable, match=r"^L must be an int; got "):
        count_sequences_with_lc(MOD9, L)


def test_count_hypercubes_pinned():
    assert count_hypercubes(MOD9, ()).value == 9
    r = count_hypercubes(MOD9, (0,))
    assert r.value == 27 and str(r) == "27 = 3^3"
    assert count_hypercubes(MOD9, (1,)).value == 3
    assert count_hypercubes(MOD9, (0, 1)).value == 1
    assert count_hypercubes(MOD9, (), l=2).value == 27
    assert count_hypercubes(MOD9, (1,), l=2).value == 3


def test_count_hypercubes_guards():
    with pytest.raises(InvalidEdges):
        count_hypercubes(MOD9, (0, 0))
    with pytest.raises(InvalidEdges):
        count_hypercubes(MOD9, (2,))
    with pytest.raises(InvalidEdges):
        count_hypercubes(MOD9, (0,), l=2)  # tuple-vertex edges start at 1
    with pytest.raises(InvalidL):
        count_hypercubes(MOD9, (), l=1)
    with pytest.raises(InvalidL):
        count_hypercubes(MOD9, (), l=3)
    with pytest.raises(InvalidL):
        count_hypercubes(MOD27, (), l=5)
    assert str(count_hypercubes(Modulus(2, 2), ())) == "4 = 2^2"
    with pytest.raises(InvalidL):
        count_hypercubes(Modulus(2, 2), (1,), l=2)  # no even l in (1, 2)


def test_class_lc_pinned():
    assert class_lc(MOD9, ()) == 9
    assert class_lc(MOD9, (0,)) == 7
    assert class_lc(MOD9, (1,)) == 3
    assert class_lc(MOD9, (0, 1)) == 1
    assert class_lc(MOD9, (), l=2) == 8
    assert class_lc(MOD9, (1,), l=2) == 2


def test_scan_census_matches_formulas_n9():
    """Both counted families match an exhaustive scan; the remaining
    hypercubes all carry longer tuple vertices."""
    tally = Counter()
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        if not is_hypercube(s):
            continue
        st = extract_structure(s)
        tally[(st.vertex.q, st.edges)] += 1
    assert sum(tally.values()) == 133
    covered = 0
    for edges in ELEMENT_CLASSES_9:
        n = count_hypercubes(MOD9, edges).value
        assert tally[(None, edges)] == n
        covered += n
    for edges in TUPLE_CLASSES_9:
        n = count_hypercubes(MOD9, edges, l=2).value
        assert tally[(0, edges)] == n
        covered += n
    rest = sum(c for (q, _), c in tally.items() if q)
    assert covered + rest == 133


def test_enumeration_matches_formula_every_class_n9():
    for edges, l in [(e, None) for e in ELEMENT_CLASSES_9] + [
        (e, 2) for e in TUPLE_CLASSES_9
    ]:
        members = enumerate_hypercubes(MOD9, edges, l=l)
        assert len(members) == count_hypercubes(MOD9, edges, l=l).value
        assert len({m.value for m in members}) == len(members)
        want = class_lc(MOD9, edges, l=l)
        for s in members:
            st = extract_structure(s)
            assert st.edges == edges
            assert lc(s) == want


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_hypercubes(MOD9, (0,), cap=5)


def test_count_hypercubes_at_p2_pinned_period4():
    mod4 = Modulus(2, 2)
    assert count_hypercubes(mod4, ()).value == 4
    assert count_hypercubes(mod4, (0,)).value == 4
    assert count_hypercubes(mod4, (1,)).value == 2
    assert count_hypercubes(mod4, (0, 1)).value == 1
    scan = 0
    for v in range(1, 16):
        try:
            cube_lc(PeriodicSequence(mod4, v))
            scan += 1
        except NotACube:
            pass
    assert scan == 4 + 4 + 2 + 1 == 11


def test_count_hypercubes_at_p2_matches_enumeration_period8():
    mod8 = Modulus(2, 3)
    edge_sets = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    total = 0
    for edges in edge_sets:
        n = count_hypercubes(mod8, edges).value
        members = enumerate_hypercubes(mod8, edges)
        assert len(members) == n, edges
        for s in members:
            m, got_edges, L = cube_lc(s)
            assert got_edges == edges
            assert s.weight == 2**m
        total += n
    assert total == 59


def test_count_hypercubes_at_p2_guards_its_edges():
    with pytest.raises(InvalidEdges):
        count_hypercubes(Modulus(2, 2), (3,))


def test_attainable_complexities_have_canonical_forms():
    for L in [0, 1, 2, 3, 6, 7, 8, 9]:
        assert lc_form_decompose(L, MOD9).value == L


def test_budget_texts_name_cubes_or_hypercubes():
    with pytest.raises(BudgetExceeded, match=r"^class holds 8 cubes, cap is 5$"):
        enumerate_hypercubes(Modulus(2, 3), (), cap=5)
    with pytest.raises(BudgetExceeded, match=r"^class holds 27 hypercubes, cap is 5$"):
        enumerate_hypercubes(MOD9, (0,), cap=5)


def test_an_oversized_class_is_refused_by_its_expression():
    """Past 10^18 members a refusal names the class size by its factored
    expression, not its digits (2^32768 has 9865)."""
    with pytest.raises(BudgetExceeded, match=r"^class holds 2\^32768 cubes, cap is 1000000$"):
        enumerate_hypercubes(Modulus(2, 20), range(12))
    with pytest.raises(BudgetExceeded, match=r"^class holds 3\^2187 hypercubes, cap is 1000000$"):
        enumerate_hypercubes(Modulus(3, 9), range(6))
    with pytest.raises(BudgetExceeded, match=r"^class holds C\(3,2\) \* 3\^2916 hypercubes, "):
        enumerate_hypercubes(Modulus(3, 9), range(1, 7), l=2)


@pytest.mark.parametrize(
    "edges", [(0.5,), (1.0,), (True,), (False, 1), ("1",), (None,), 1, None], ids=repr
)
def test_edge_exponents_must_be_plain_ints(edges):
    """An edge exponent that is not an int (a bool included), or edges that
    are no iterable, are refused, not read as numbers or left to a TypeError:
    (0.5,) used to count 3^2.0 and (True,) edge 1."""
    want = r"^edge exponents must be ints; got "
    with pytest.raises(InvalidEdges, match=want):
        count_hypercubes(MOD9, edges)
    with pytest.raises(InvalidEdges, match=want):
        class_lc(MOD9, edges)
    with pytest.raises(InvalidEdges, match=want):
        enumerate_hypercubes(MOD9, edges)
    with pytest.raises(InvalidEdges, match=want):
        count_hypercubes(Modulus(2, 2), edges)
    with pytest.raises(InvalidL, match=r"^length-0 vertex weight must be even in \(1, 3\); got 2.0$"):
        count_hypercubes(MOD9, (1,), l=2.0)


def test_edges_are_read_once():
    """An iterator of edges is named by what it held, not by what is left."""
    with pytest.raises(InvalidEdges, match=r"^duplicate edge exponents in \(1, 1\)$"):
        count_hypercubes(MOD27, iter((1, 1)))
    assert count_hypercubes(MOD27, iter((2, 1))) == count_hypercubes(MOD27, (1, 2))
    assert class_lc(MOD27, iter((1,)), l=2) == class_lc(MOD27, (1,), l=2)


def _nested_class_loop(mod):
    """The class loop the counting suite ran before the class table existed."""
    for r in range(mod.n + 1):
        for edges in combinations(range(mod.n), r):
            classes = [None]
            if all(i >= 1 for i in edges):
                classes += range(2, mod.p, 2)
            for l in classes:
                yield edges, l


TABLE_MODULI = [Modulus(2, n) for n in range(1, 6)] + [
    Modulus(p, n) for p in (3, 5, 11, 13) for n in range(1, 5)
]


@pytest.mark.parametrize("mod", TABLE_MODULI, ids=str)
def test_class_table_lists_exactly_the_counted_classes(mod):
    """``_classes`` yields the old nested loop's classes in its order, and
    ``count_hypercubes`` accepts exactly those among every edge set (out-of-range
    exponents included) and every l in {None, 0, ..., p + 1}."""
    table = list(counting._classes(mod))
    assert table == list(_nested_class_loop(mod))
    counted = set(table)
    assert len(counted) == len(table)
    exponents = range(-1, mod.n + 1)
    for r in range(len(exponents) + 1):
        for edges in combinations(exponents, r):
            for l in (None, *range(mod.p + 2)):
                if (edges, l) in counted:
                    assert count_hypercubes(mod, edges, l).value >= 1
                else:
                    with pytest.raises((InvalidEdges, InvalidL)):
                        count_hypercubes(mod, edges, l)
    assert verify._class_key is counting._class_key


GROW_MODULI = [Modulus(2, n) for n in range(1, 5)] + [Modulus(3, n) for n in range(1, 5)] + [
    Modulus(5, 1), Modulus(5, 2), Modulus(11, 1),
]


@pytest.mark.parametrize("mod", GROW_MODULI, ids=str)
def test_grower_matches_the_product_reference(mod):
    """The set-bit grower builds every class of at most 2*10^5 members in the
    itertools.product order, which the --enumerate goldens pin."""
    p, n = mod.p, mod.n
    for edges, l in counting._classes(mod):
        if count_hypercubes(mod, edges, l).value > 2 * 10**5:
            continue
        if l is None:
            base, start = [1], 0
        else:
            base, start = [sum(1 << i for i in c) for c in combinations(range(p), l)], 1
        got = counting._grow(base, p, start, n, edges)
        assert got == product_grow(base, p, start, n, edges), (edges, l)


def test_enumerate_reads_edges_once():
    """An iterator of edges enumerates the class it names, as a tuple does."""
    want = enumerate_hypercubes(MOD27, (1, 2))
    assert enumerate_hypercubes(MOD27, iter((2, 1))) == want
    assert enumerate_hypercubes(MOD27, iter((1,)), l=2) == enumerate_hypercubes(MOD27, (1,), l=2)
    mod = Modulus(2, 3)
    assert enumerate_hypercubes(mod, iter((0, 2))) == enumerate_hypercubes(mod, (0, 2))
    with pytest.raises(InvalidEdges, match=r"^duplicate edge exponents in \(1, 1\)$"):
        enumerate_hypercubes(MOD27, iter((1, 1)))

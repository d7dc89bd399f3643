from collections import Counter

import pytest

from seqcomplex import (
    Modulus,
    PeriodicSequence,
    VertexKind,
    class_lc,
    count_cubes,
    count_hypercubes,
    count_sequences_with_lc,
    cube_lc,
    enumerate_cubes,
    enumerate_hypercubes,
    extract_structure,
    is_hypercube,
    lc,
    lc_form_decompose,
)
from seqcomplex.errors import (
    BudgetExceeded,
    EvenP,
    InvalidEdges,
    InvalidL,
    NotACube,
    NotRepresentable,
    OddP,
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
    with pytest.raises(EvenP):
        count_hypercubes(Modulus(2, 2), ())


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
        tally[(st.vertex.kind, st.vertex.q, st.edges)] += 1
    assert sum(tally.values()) == 133
    covered = 0
    for edges in ELEMENT_CLASSES_9:
        n = count_hypercubes(MOD9, edges).value
        assert tally[(VertexKind.ELEMENT, None, edges)] == n
        covered += n
    for edges in TUPLE_CLASSES_9:
        n = count_hypercubes(MOD9, edges, l=2).value
        assert tally[(VertexKind.TUPLE, 0, edges)] == n
        covered += n
    rest = sum(c for (kind, q, _), c in tally.items() if kind is VertexKind.TUPLE and q)
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


def test_count_cubes_pinned_n4():
    mod4 = Modulus(2, 2)
    assert count_cubes(mod4, ()).value == 4
    assert count_cubes(mod4, (0,)).value == 4
    assert count_cubes(mod4, (1,)).value == 2
    assert count_cubes(mod4, (0, 1)).value == 1
    scan = 0
    for v in range(1, 16):
        try:
            cube_lc(PeriodicSequence(mod4, v))
            scan += 1
        except NotACube:
            pass
    assert scan == 4 + 4 + 2 + 1 == 11


def test_count_cubes_matches_enumeration_n8():
    mod8 = Modulus(2, 3)
    edge_sets = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    total = 0
    for edges in edge_sets:
        n = count_cubes(mod8, edges).value
        members = enumerate_cubes(mod8, edges)
        assert len(members) == n, edges
        for s in members:
            m, got_edges, L = cube_lc(s)
            assert got_edges == edges
            assert s.weight == 2**m
        total += n
    assert total == 59


def test_count_cubes_guards():
    with pytest.raises(OddP):
        count_cubes(MOD9, ())
    with pytest.raises(EvenP):
        count_hypercubes(Modulus(2, 3), ())
    with pytest.raises(InvalidEdges):
        count_cubes(Modulus(2, 2), (3,))


def test_attainable_complexities_have_canonical_forms():
    for L in [0, 1, 2, 3, 6, 7, 8, 9]:
        assert lc_form_decompose(L, MOD9).value == L


def test_budget_texts_name_cubes_or_hypercubes():
    with pytest.raises(BudgetExceeded, match=r"^class holds 8 cubes, cap is 5$"):
        enumerate_cubes(Modulus(2, 3), (), cap=5)
    with pytest.raises(BudgetExceeded, match=r"^class holds 27 hypercubes, cap is 5$"):
        enumerate_hypercubes(MOD9, (0,), cap=5)


def test_an_oversized_class_is_refused_by_its_expression():
    """Past 10^18 members a refusal names the class size by its factored
    expression, not its digits (2^32768 has 9865)."""
    with pytest.raises(BudgetExceeded, match=r"^class holds 2\^32768 cubes, cap is 1000000$"):
        enumerate_cubes(Modulus(2, 20), range(12))
    with pytest.raises(BudgetExceeded, match=r"^class holds 3\^2187 hypercubes, cap is 1000000$"):
        enumerate_hypercubes(Modulus(3, 9), range(6))
    with pytest.raises(BudgetExceeded, match=r"^class holds C\(3,2\) \* 3\^2916 hypercubes, "):
        enumerate_hypercubes(Modulus(3, 9), range(1, 7), l=2)

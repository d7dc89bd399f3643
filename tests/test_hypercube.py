import random

import pytest

from helpers import list_rewrite_descent, seq
from seqcomplex import (
    HypercubeStructure,
    Modulus,
    PeriodicSequence,
    VertexDescriptor,
    VertexKind,
    cube_lc,
    extract_structure,
    games_chan_lc,
    is_hypercube,
    lc,
    lc_from_structure,
    next_lower_hypercube_lc,
    rebalance_blocks,
    standard_decompose,
)
from seqcomplex.errors import (
    EvenP,
    IsVertex,
    NoEligibleExponent,
    NotACube,
    NotAHypercube,
    OddP,
    ZeroSequence,
)
from seqcomplex.hypercube import _descend

MOD9 = Modulus(3, 2)
MOD27 = Modulus(3, 3)


def test_repeated_pair_is_a_2_hypercube():
    st = extract_structure(seq(MOD27, "110" * 9))
    assert st.m == 2 and st.edges == (1, 2)
    assert st.vertex.kind is VertexKind.TUPLE and st.vertex.q == 0
    assert st.vertex.blocks == ((1,), (1,), (0,))
    assert st.vertex.l == 2 and st.epsilon == 0
    assert lc_from_structure(st, MOD27) == 2 == lc(seq(MOD27, "110" * 9))


def test_repeated_block_pair_has_a_length_1_vertex():
    st = extract_structure(seq(MOD27, "000100100" * 3))
    assert st.m == 1 and st.edges == (2,)
    assert st.vertex.q == 1 and st.vertex.l == 2
    assert st.epsilon == -2
    assert lc_from_structure(st, MOD27) == 6


def test_single_one_is_a_0_hypercube_element():
    st = extract_structure(seq(MOD9, "010000000"))
    assert st.m == 0 and st.edges == () and st.vertex.kind is VertexKind.ELEMENT
    assert st.vertex.l == 1 and st.epsilon == 1
    assert lc_from_structure(st, MOD9) == 9


def test_all_ones_is_the_full_hypercube():
    st = extract_structure(seq(MOD9, "111111111"))
    assert st.m == 2 and st.edges == (0, 1)
    assert lc_from_structure(st, MOD9) == 1


def test_is_hypercube_detects_cancellation():
    assert not is_hypercube(seq(MOD9, "110100100"))
    assert is_hypercube(seq(MOD9, "110000000"))
    with pytest.raises(NotAHypercube):
        extract_structure(seq(MOD9, "110100100"))
    with pytest.raises(ZeroSequence):
        is_hypercube(PeriodicSequence.zeros(MOD9))
    with pytest.raises(EvenP):
        is_hypercube(PeriodicSequence(Modulus(2, 2), 0b0011))


def test_hypercube_census_n9():
    # 4 element classes + 2 weight-2 vertex classes + the 63 length-1 ones
    found = sum(is_hypercube(PeriodicSequence(MOD9, v)) for v in range(1, 512))
    assert found == 9 + 27 + 3 + 1 + 27 + 3 + 63 == 133


def test_structure_complexity_matches_engine_exhaustive_n9():
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        if not is_hypercube(s):
            continue
        st = extract_structure(s)
        assert lc_from_structure(st, MOD9) == lc(s), v


def test_weight_of_a_hypercube_is_l_times_p_to_m():
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        if is_hypercube(s):
            st = extract_structure(s)
            assert s.weight == st.vertex.l * 3**st.m, v


def test_next_lower_lc_element():
    st = extract_structure(seq(MOD9, "010000000"))
    assert next_lower_hypercube_lc(st, MOD9) == 7  # smallest exponent is 0


def test_next_lower_lc_tuple_skips_exponent_zero():
    st = extract_structure(seq(MOD9, "110000000"))
    assert next_lower_hypercube_lc(st, MOD9) == 2  # exponent 1, not 0


def test_next_lower_lc_exhausted_raises():
    with pytest.raises(NoEligibleExponent):
        next_lower_hypercube_lc(extract_structure(seq(MOD9, "111111111")), MOD9)
    # a length-q vertex blocks every exponent <= q
    with pytest.raises(NoEligibleExponent):
        next_lower_hypercube_lc(extract_structure(seq(MOD9, "000100100")), MOD9)
    with pytest.raises(NoEligibleExponent):
        next_lower_hypercube_lc(extract_structure(seq(MOD27, "000100100" * 3)), MOD27)


def test_next_lower_is_maximal_over_edge_refinements_n9():
    """next_lower_hypercube_lc is the largest LC below L(h) among hypercubes
    with the same vertex shape and an edge set extending h's, and some
    hypercube attains it.  The scoping matters: without it the element cube
    at L=3 (edges {1}) falls strictly between edges-{0}'s L=7 and its
    next-lower 1, and the weight-2 vertex at L=8 falls between the element
    family's 9 and 7."""
    families: dict[tuple, dict[tuple, int]] = {}
    handles: dict[tuple, HypercubeStructure] = {}
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        if not is_hypercube(s):
            continue
        st = extract_structure(s)
        key = (st.vertex.kind, st.vertex.q, st.vertex.l)
        families.setdefault(key, {})[st.edges] = lc_from_structure(st, MOD9)
        handles[key + (st.edges,)] = st
    all_lcs = {L for fam in families.values() for L in fam.values()}
    assert all_lcs == {9, 8, 7, 6, 3, 2, 1}
    eligible = 0
    for key, fam in families.items():
        for edges, L in fam.items():
            try:
                lower = next_lower_hypercube_lc(handles[key + (edges,)], MOD9)
            except NoEligibleExponent:
                continue
            eligible += 1
            refinements = [x for e2, x in fam.items() if set(e2) > set(edges)]
            assert refinements and max(refinements) == lower, (key, edges)
    assert eligible == 4
    # the documented gaps that force the refinement scoping
    assert 1 < 3 < 7 and 7 < 8 < 9


def test_vertex_descriptor_validation():
    with pytest.raises(ValueError):
        VertexDescriptor(VertexKind.ELEMENT, q=0)
    with pytest.raises(ValueError):
        VertexDescriptor(VertexKind.TUPLE, q=0)  # blocks missing
    with pytest.raises(ValueError):
        VertexDescriptor(VertexKind.TUPLE, 0, ((1,), (1,), (1,)))  # odd row
    with pytest.raises(ValueError):
        VertexDescriptor(VertexKind.TUPLE, 0, ((0,), (0,), (0,)))  # zero
    v = VertexDescriptor(VertexKind.TUPLE, 1, ((0, 0, 0), (1, 0, 0), (1, 0, 0)))
    assert v.l == 2 and v.epsilon == -2
    assert str(v) == "tuple(q=1, [000,100,100])"


def test_vertex_descriptor_names_the_first_odd_row():
    with pytest.raises(ValueError, match=r"^row 2 has odd parity; blocks do not sum to zero$"):
        VertexDescriptor(VertexKind.TUPLE, 1, ((1, 0, 0), (0, 1, 0), (1, 1, 1)))
    with pytest.raises(ValueError, match="blocks must all have length"):
        VertexDescriptor(VertexKind.TUPLE, 1, ((1, 0, 0), (1, 0), (0, 0, 0)))


def test_vertex_descriptor_entries_are_bits():
    with pytest.raises(ValueError, match=r"^block entries must be 0 or 1$"):
        VertexDescriptor(VertexKind.TUPLE, 0, ((2,), (0,), (0,)))
    v = VertexDescriptor(VertexKind.TUPLE, 1, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert str(v) == "tuple(q=1, [110,011,101])"


@pytest.mark.parametrize("bad", [2, -1, 256, "x", 1.0, None], ids=repr)
def test_block_entries_are_checked_alike(bad):
    """A vertex and a rewrite refuse the same entries with the same error; an
    entry passes only as an int or bool equal to 0 or 1."""
    with pytest.raises(ValueError, match=r"^block entries must be 0 or 1$"):
        VertexDescriptor(VertexKind.TUPLE, 0, ((1,), (1,), (bad,)))
    with pytest.raises(ValueError, match=r"^block entries must be 0 or 1$"):
        rebalance_blocks([[1, 1], [0, bad]])
    with pytest.raises(ValueError, match=r"^block entries must be 0 or 1$"):
        rebalance_blocks([[1, 0], [bad, 0], [1, 0]])


def test_bool_block_entries_are_bits():
    v = VertexDescriptor(VertexKind.TUPLE, 0, ((True,), (True,), (False,)))
    assert str(v) == "tuple(q=0, [1,1,0])" and v.l == 2
    out, sources = rebalance_blocks([[True, True], [True, False], [True, False]])
    assert out == ((1, 1), (0, 0), (0, 0)) and sources == {0: 0, 1: 0}


def test_vertex_and_structures_are_built_once():
    desc = _descend(seq(MOD9, "110000000").value, 3, 2, rewrite=False)
    assert desc.vertex is desc.vertex and desc.structure is desc.structure
    dec = standard_decompose(seq(MOD27, "110100100" * 3))
    assert dec.structures is dec.structures
    assert [str(st) for st in dec.structures] == [
        "m=1 edges=2 vertex=tuple(q=0, [1,1,0])",
        "m=1 edges=2 vertex=tuple(q=1, [000,100,100])",
    ]


def test_structure_validation():
    el = VertexDescriptor(VertexKind.ELEMENT)
    with pytest.raises(ValueError):
        HypercubeStructure(2, (0,), el)
    with pytest.raises(ValueError):
        HypercubeStructure(2, (1, 0), el)
    assert str(HypercubeStructure(0, (), el)) == "m=0 edges=- vertex=element"


def test_rebalance_blocks():
    out, sources = rebalance_blocks([[1, 1], [1, 0], [1, 0]])
    assert out == ((1, 1), (0, 0), (0, 0))
    assert sources == {0: 0, 1: 0}
    with pytest.raises(IsVertex):
        rebalance_blocks([[1, 0], [1, 0], [0, 0]])
    with pytest.raises(ValueError):
        rebalance_blocks([[1, 0], [1, 0], [1, 0]])
    for blocks in ([], [[1, 0]]):
        with pytest.raises(ValueError, match=r"^rewrite needs at least 2 blocks$"):
            rebalance_blocks(blocks)


def test_decompose_reference_case():
    dec = standard_decompose(seq(MOD27, "110100100" * 3))
    assert dec.complexities == (8, 6)
    assert [p.to01() for p in dec.parts] == ["110000000" * 3, "000100100" * 3]
    assert (dec.parts[0] ^ dec.parts[1]).to01() == "110100100" * 3
    assert dec.complexities[0] == lc(seq(MOD27, "110100100" * 3))


def test_decompose_period_9_analogue():
    dec = standard_decompose(seq(MOD9, "110100100"))
    assert dec.complexities == (8, 6)
    assert [p.to01() for p in dec.parts] == ["110000000", "000100100"]


def test_decompose_of_a_hypercube_is_itself():
    for text in ("110000000", "010000000", "111111111", "000100100"):
        dec = standard_decompose(seq(MOD9, text))
        assert len(dec.parts) == 1 and dec.parts[0].to01() == text


def test_decompose_invariants_random_n27():
    rng = random.Random(5)
    for _ in range(400):
        s = PeriodicSequence(MOD27, rng.randrange(1, 1 << 27))
        dec = standard_decompose(s)
        acc = 0
        for part, st, L in zip(dec.parts, dec.structures, dec.complexities):
            assert is_hypercube(part)
            assert lc_from_structure(st, MOD27) == L == lc(part)
            acc ^= part.value
        assert acc == s.value
        assert all(a > b for a, b in zip(dec.complexities, dec.complexities[1:]))
        assert dec.complexities[0] == lc(s)



def _check_rewrite_descent_leads_with_h1(s):
    p, n = s.modulus.p, s.modulus.n
    desc = _descend(s.value, p, n, rewrite=True)
    plain = _descend(desc.vecs[0], p, n, rewrite=False)
    assert plain.ok
    assert desc.vecs == plain.vecs and desc.records == plain.records
    assert desc.vertex == plain.vertex and desc.edges == plain.edges
    assert (desc.vecs[0] == s.value) == is_hypercube(s)


def test_rewrite_descent_is_the_plain_descent_of_h1_exhaustive():
    for mod in (MOD9, Modulus(11, 1), Modulus(13, 1)):
        for v in range(1, 1 << mod.period):
            _check_rewrite_descent_leads_with_h1(PeriodicSequence(mod, v))


def test_rewrite_descent_is_the_plain_descent_of_h1_sampled():
    rng = random.Random(23)
    samples = ((MOD27, 150), (Modulus(5, 2), 150), (Modulus(3, 5), 60), (Modulus(3, 7), 12))
    for mod, count in samples:
        for i in range(count):
            if i % 2:
                v = rng.randrange(1, 1 << mod.period)
            else:  # sparse: often a hypercube itself
                v = sum({1 << rng.randrange(mod.period) for _ in range(3)})
            s = PeriodicSequence(mod, v)
            _check_rewrite_descent_leads_with_h1(s)
            for part in standard_decompose(s).parts:  # planted hypercubes
                assert is_hypercube(part)
                _check_rewrite_descent_leads_with_h1(part)

def test_cube_lc_pinned():
    mod4 = Modulus(2, 2)
    assert cube_lc(PeriodicSequence.from_text("1100", mod4)) == (1, (0,), 3)
    assert cube_lc(PeriodicSequence.from_text("1010", mod4)) == (1, (1,), 2)
    assert cube_lc(PeriodicSequence.from_text("1111", mod4)) == (2, (0, 1), 1)
    assert cube_lc(PeriodicSequence.from_text("1000", mod4)) == (0, (), 4)
    with pytest.raises(NotACube):
        cube_lc(PeriodicSequence.from_text("1101", mod4))
    with pytest.raises(NotACube):
        cube_lc(PeriodicSequence.zeros(mod4))
    with pytest.raises(OddP):
        cube_lc(seq(MOD9, "110000000"))


def test_cube_lc_agrees_with_games_chan_exhaustive_n8():
    mod8 = Modulus(2, 3)
    cubes = 0
    for v in range(1, 256):
        s = PeriodicSequence(mod8, v)
        try:
            m, edges, L = cube_lc(s)
        except NotACube:
            continue
        cubes += 1
        assert L == games_chan_lc(s)
        assert s.weight == 1 << m
        assert L == 8 - sum(1 << i for i in edges)
    assert cubes == 8 + (16 + 8 + 4) + (16 + 4 + 2) + 1  # by (m, edges) class


def _check_decomposition_matches_extraction(s):
    dec = standard_decompose(s)
    mod = s.modulus
    assert len(dec.structures) == len(dec.parts) == len(dec.complexities)
    for part, st, L in zip(dec.parts, dec.structures, dec.complexities):
        assert st == extract_structure(part)
        assert L == lc_from_structure(st, mod)


def test_decompose_structures_match_extraction_exhaustive():
    for mod in (MOD9, Modulus(11, 1), Modulus(13, 1)):
        for v in range(1, 1 << mod.period):
            _check_decomposition_matches_extraction(PeriodicSequence(mod, v))


def test_decompose_structures_match_extraction_sampled():
    rng = random.Random(29)
    samples = ((MOD27, 150), (Modulus(5, 2), 150), (Modulus(3, 5), 60), (Modulus(3, 7), 12))
    for mod, count in samples:
        for i in range(count):
            if i % 2:
                v = rng.randrange(1, 1 << mod.period)
            else:  # sparse: few parts, often with long tuple vertices
                v = sum({1 << rng.randrange(mod.period) for _ in range(4)})
            _check_decomposition_matches_extraction(PeriodicSequence(mod, v))


def _check_against_list_rewrite(s):
    p, n = s.modulus.p, s.modulus.n
    desc = _descend(s.value, p, n, rewrite=True)
    got = (desc.vecs, desc.records, desc.edges, desc.q, desc.ok)
    assert got == list_rewrite_descent(s.value, p, n), s.to01()


def test_packed_rewrite_matches_list_rewrite_exhaustive():
    for mod in (MOD9, Modulus(5, 1), Modulus(11, 1)):
        for v in range(1, 1 << mod.period):
            _check_against_list_rewrite(PeriodicSequence(mod, v))


def test_packed_rewrite_matches_list_rewrite_sampled():
    rng = random.Random(41)
    samples = (
        (MOD27, 300), (Modulus(5, 2), 300), (Modulus(3, 5), 100), (Modulus(11, 2), 100),
        (Modulus(3, 7), 20), (Modulus(3, 9), 6),  # deep: long, many-rewrite histories
    )
    for mod, count in samples:
        for i in range(count):
            if i % 2:
                v = rng.randrange(1, 1 << mod.period)
            else:  # sparse: few cancellations, often a hypercube
                v = sum({1 << rng.randrange(mod.period) for _ in range(4)})
            _check_against_list_rewrite(PeriodicSequence(mod, v))

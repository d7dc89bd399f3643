import dataclasses
import random
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import (
    exhaustive_min_change,
    large_p_values,
    list_plain_descent,
    list_plain_trace,
    list_rewrite_descent,
    p2_universe,
    random_tuple_vertex,
    seq,
    vertex_sequence,
)
from seqcomplex import (
    Decomposition,
    HypercubeStructure,
    Modulus,
    PeriodicSequence,
    VertexDescriptor,
    berlekamp_massey_lc,
    cube_lc,
    extract_structure,
    first_critical_m,
    is_hypercube,
    lc,
    lc_from_structure,
    next_lower_hypercube_lc,
    standard_decompose,
)
from seqcomplex.errors import (
    InvalidEdges,
    ModulusMismatch,
    NoEligibleExponent,
    NotACube,
    NotAHypercube,
    OddP,
    ZeroSequence,
)
from seqcomplex.hypercube import (
    _Descent,
    _descend,
    _kept,
    _peel,
    _peel_table,
    _spread,
    _verdict_table,
)

MOD9 = Modulus(3, 2)
MOD27 = Modulus(3, 3)


def test_repeated_pair_is_a_2_hypercube():
    st = extract_structure(seq(MOD27, "110" * 9))
    assert st.m == 2 and st.edges == (1, 2)
    assert st.vertex.q == 0
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
    assert st.m == 0 and st.edges == () and st.vertex.q is None
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
    assert is_hypercube(PeriodicSequence.from_text("1100", Modulus(2, 2)))
    assert not is_hypercube(PeriodicSequence.from_text("1101", Modulus(2, 2)))


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
        key = (st.vertex.q, st.vertex.l)
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
        VertexDescriptor(blocks=((1,), (1,), (0,)))  # element with blocks
    with pytest.raises(ValueError):
        VertexDescriptor(q=0)  # blocks missing
    with pytest.raises(ValueError):
        VertexDescriptor(0, ((1,), (1,), (1,)))  # odd row
    with pytest.raises(ValueError):
        VertexDescriptor(0, ((0,), (0,), (0,)))  # zero
    v = VertexDescriptor(1, ((0, 0, 0), (1, 0, 0), (1, 0, 0)))
    assert v.l == 2 and v.epsilon == -2
    assert str(v) == "tuple(q=1, [000,100,100])"


def test_vertex_descriptor_names_the_first_odd_row():
    with pytest.raises(ValueError, match=r"^row 2 has odd parity; blocks do not sum to zero$"):
        VertexDescriptor(1, ((1, 0, 0), (0, 1, 0), (1, 1, 1)))
    with pytest.raises(ValueError, match="blocks must all have length"):
        VertexDescriptor(1, ((1, 0, 0), (1, 0), (0, 0, 0)))


def test_vertex_descriptor_entries_are_bits():
    with pytest.raises(ValueError, match=r"^block entries must be 0 or 1$"):
        VertexDescriptor(0, ((2,), (0,), (0,)))
    v = VertexDescriptor(1, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert str(v) == "tuple(q=1, [110,011,101])"


@pytest.mark.parametrize("bad", [2, -1, 256, "x", 1.0, None], ids=repr)
def test_a_vertex_refuses_block_entries_other_than_0_or_1(bad):
    """A vertex refuses an entry with the one error; an entry passes only as
    an int or bool equal to 0 or 1."""
    with pytest.raises(ValueError, match=r"^block entries must be 0 or 1$"):
        VertexDescriptor(0, ((1,), (1,), (bad,)))


def test_bool_block_entries_are_bits():
    v = VertexDescriptor(0, ((True,), (True,), (False,)))
    assert str(v) == "tuple(q=0, [1,1,0])" and v.l == 2


def test_decomposition_structures_are_built_once():
    dec = standard_decompose(seq(MOD27, "110100100" * 3))
    assert dec.structures is dec.structures
    assert [str(st) for st in dec.structures] == [
        "m=1 edges=2 vertex=tuple(q=0, [1,1,0])",
        "m=1 edges=2 vertex=tuple(q=1, [000,100,100])",
    ]


def test_a_decomposition_is_rebuilt_from_its_public_fields():
    dec = standard_decompose(seq(MOD27, "110100100" * 3))
    again = Decomposition(dec.parts, dec.complexities)
    assert again == dec and again.structures == dec.structures
    assert [f.name for f in dataclasses.fields(Decomposition)] == ["parts", "complexities"]
    keyword = Decomposition(complexities=dec.complexities, parts=dec.parts)
    assert keyword == dec and hash(keyword) == hash(dec) and repr(keyword) == repr(dec)
    assert dataclasses.replace(dec, complexities=(1, 0)).parts is dec.parts
    for name in ("parts", "complexities"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dec, name, getattr(dec, name))


@pytest.mark.parametrize("seed", range(5))
def test_a_decomposition_holds_its_parts_and_no_descents(seed):
    """What standard_decompose leaves allocated is the parts' ints plus
    small change: each part's descent, with all its level vectors, is gone."""
    s = PeriodicSequence(Modulus(2, 12), random.Random(seed).getrandbits(4096))
    tracemalloc.start()
    try:
        dec = standard_decompose(s)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(dec.parts) > 150
    assert held <= 2 * sum(sys.getsizeof(part.value) for part in dec.parts)


def test_structure_validation():
    el = VertexDescriptor()
    with pytest.raises(ValueError):
        HypercubeStructure((1, 0), el)
    assert str(HypercubeStructure((), el)) == "m=0 edges=- vertex=element"
    assert [f.name for f in dataclasses.fields(HypercubeStructure)] == ["edges", "vertex"]
    h = HypercubeStructure((0, 2), el)
    assert h.m == 2 and repr(h) == (
        "HypercubeStructure(edges=(0, 2), vertex=VertexDescriptor(q=None, blocks=None))"
    )


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
    """The plain descent of h_1 = _peel(s)[0] is the list reference's rewrite
    descent of s, and s is a hypercube iff h_1 = s."""
    _check_against_list_rewrite(s)
    h1 = _peel(s.value, s.modulus.p, s.modulus.n)[0]
    assert (h1 == s.value) == is_hypercube(s)


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
    for mod, v in large_p_values(seed=23):
        _check_rewrite_descent_leads_with_h1(PeriodicSequence(mod, v))


def _check_peel_and_test_against_the_descent(v, p, n):
    s = PeriodicSequence(Modulus(p, n), v)
    assert is_hypercube(s) == _descend(v, p, n).ok, (p, n, v)
    assert _peel(v, p, n) == (list_rewrite_descent(v, p, n)[0][0], lc(s)), (p, n, v)


# the moduli whose tables hold the whole descent, as (p, t)
WHOLE_TABLE = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (11, 1))


def test_peel_and_verdict_tables_hold_each_vectors_peel_and_verdict():
    """Row v of _peel_table(p, t) is the list rewrite's h_1 and the lc of the
    p^t-bit vector v, and row v of _verdict_table(p, t) the plain descent's
    verdict, on every row at each whole-table modulus, where _peel and
    is_hypercube are those rows.  With no level (t = 0) each table is the
    final scalar's."""
    for p, t in WHOLE_TABLE:
        peels, verdicts = _peel_table(p, t), _verdict_table(p, t)
        assert type(verdicts) is bytes and len(peels) == len(verdicts) == 1 << p**t, (p, t)
        assert peels[0] == (0, 0) and verdicts[0] == 1, (p, t)
        mod = Modulus(p, t)
        for v in range(1, 1 << p**t):
            s = PeriodicSequence(mod, v)
            assert peels[v] == (list_rewrite_descent(v, p, t)[0][0], lc(s)), (p, t, v)
            assert verdicts[v] == _descend(v, p, t).ok, (p, t, v)
            assert _peel(v, p, t) is peels[v], (p, t, v)
            assert is_hypercube(s) is (verdicts[v] == 1), (p, t, v)
    assert _peel_table(13, 0) == [(0, 0), (1, 1)] and _verdict_table(13, 0) == b"\x01\x01"


def _planted(rng, p, n, d):
    """A p^n-bit value whose only cancelling sum lies in its last d levels:
    a hypercube of p^d bits with one of its p^d positions flipped, so that
    its own descent cancels ones, grown to p^n bits by levels that cancel
    nothing (each repeats the vector p times or puts each 1 in one of the p
    parts)."""
    while True:
        u = list_rewrite_descent(rng.getrandbits(p**d) or 1, p, d)[0][0]
        u ^= 1 << rng.randrange(p**d)
        if u and list_rewrite_descent(u, p, d)[0][0] != u:
            break
    for e in range(d, n):
        size = p**e
        if rng.randrange(2):
            u = sum(u << i * size for i in range(p))
        else:
            u = sum(1 << rng.randrange(p) * size + i for i in range(size) if u >> i & 1)
    return u


def test_peel_and_hypercube_test_match_the_descent():
    """_peel gives the list rewrite's h_1 and L(s), and is_hypercube the
    plain descent's verdict: every value at 2^4 and 13^1 (the whole-table
    moduli are checked row by row above), and seeded values where levels
    are walked or no table exists: dense, sparse (often a hypercube) and
    planted, whose only cancelling sum lies inside the table (in the last
    level where there is none)."""
    for p, n in ((2, 4), (13, 1)):
        for v in range(1, 1 << p**n):
            _check_peel_and_test_against_the_descent(v, p, n)
    rng = random.Random(4201)
    for p, n in ((3, 3), (5, 2), (3, 5), (2, 8)):
        N = p**n
        for i in range(300):
            if i % 2:
                v = rng.randrange(1, 1 << N)
            else:
                v = sum({1 << rng.randrange(N) for _ in range(4)})
            _check_peel_and_test_against_the_descent(v, p, n)
    rng = random.Random(5301)
    for p, n in ((3, 7), (11, 2), (13, 2), (2, 5), (2, 6)):
        N = p**n
        for i in range(150):
            _check_peel_and_test_against_the_descent(rng.randrange(1, 1 << N), p, n)
            v = sum({1 << rng.randrange(N) for _ in range(4)})
            _check_peel_and_test_against_the_descent(v, p, n)
    depth = {2: 3, 3: 2, 5: 1, 11: 1, 13: 1}
    for p, n in ((3, 3), (5, 2), (3, 5), (2, 8), (3, 7), (11, 2), (13, 2), (2, 5), (2, 6)):
        for _ in range(100):
            v = _planted(rng, p, n, depth[p])
            assert _peel(v, p, n)[0] != v, (p, n, v)
            _check_peel_and_test_against_the_descent(v, p, n)


def test_peel_and_hypercube_test_build_no_descent_record(monkeypatch):
    import seqcomplex.hypercube as hypercube

    def no_record(*args, **kwargs):
        raise AssertionError("a descent record was built")

    monkeypatch.setattr(hypercube, "_Descent", no_record)
    for v in range(1, 512):
        s = PeriodicSequence(MOD9, v)
        dec = standard_decompose(s)
        assert all(map(is_hypercube, dec.parts))
        assert is_hypercube(s) == (len(dec.parts) == 1), v


def test_a_descent_record_holds_vecs_ok_edges_and_q():
    assert [f.name for f in dataclasses.fields(_Descent)] == ["vecs", "ok", "edges", "q"]


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


def test_p2_hypercubes_are_the_cubes_of_cube_lc():
    """At p = 2, is_hypercube holds exactly where cube_lc answers, and
    extract_structure gives its (m, edges, L)."""
    cubes = 0
    for s in p2_universe():
        try:
            cube = cube_lc(s)
        except NotACube:
            cube = None
        assert is_hypercube(s) == (cube is not None), s.to01()
        if cube is not None:
            cubes += 1
            st = extract_structure(s)
            assert (st.m, st.edges, lc_from_structure(st, s.modulus)) == cube, s.to01()
    assert cubes == 868 + 421  # every cube at periods 2-16, and those sampled


def test_p2_decomposition_parts_are_cubes():
    for s in p2_universe():
        dec = standard_decompose(s)
        for part, L in zip(dec.parts, dec.complexities):
            assert cube_lc(part)[2] == L, s.to01()


def test_cube_lc_agrees_with_berlekamp_massey_exhaustive_n8():
    mod8 = Modulus(2, 3)
    cubes = 0
    for v in range(1, 256):
        s = PeriodicSequence(mod8, v)
        try:
            m, edges, L = cube_lc(s)
        except NotACube:
            continue
        cubes += 1
        assert L == berlekamp_massey_lc(s)
        assert s.weight == 1 << m
        assert L == 8 - sum(1 << i for i in edges)
    assert cubes == 8 + (16 + 8 + 4) + (16 + 4 + 2) + 1  # by (m, edges) class


def _check_decomposition_matches_extraction(s):
    """Each part's structure is the one the list-based reference descent of
    that part ends in: m, edges, q and the vertex blocks."""
    dec = standard_decompose(s)
    mod = s.modulus
    p, n = mod.p, mod.n
    assert len(dec.structures) == len(dec.parts) == len(dec.complexities)
    for part, st, L in zip(dec.parts, dec.structures, dec.complexities):
        vecs, _, edges, q, ok = list_rewrite_descent(part.value, p, n)
        assert ok and vecs[0] == part.value
        assert (st.m, st.edges, st.vertex.q) == (len(edges), edges, q)
        if q is None:
            assert vecs[-1] == 1
        else:
            size = p**q
            blocks = tuple(
                tuple(vecs[-1] >> (i * size + u) & 1 for u in range(size)) for i in range(p)
            )
            assert st.vertex.blocks == blocks
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
    for mod, v in large_p_values(seed=29):
        _check_decomposition_matches_extraction(PeriodicSequence(mod, v))


def _check_against_list_rewrite(s):
    """The plain descent of _peel's h_1, which kerror's closed forms read as
    the rewrite descent of s, against the list rewrite of s."""
    p, n = s.modulus.p, s.modulus.n
    desc = _descend(_peel(s.value, p, n)[0], p, n)
    vecs, _, edges, q, ok = list_rewrite_descent(s.value, p, n)
    assert (desc.vecs, desc.edges, desc.q, desc.ok) == (vecs, edges, q, ok), s.to01()


def test_packed_rewrite_matches_list_rewrite_exhaustive():
    for mod in (MOD9, Modulus(5, 1), Modulus(11, 1)):
        for v in range(1, 1 << mod.period):
            _check_rewrite_descent_leads_with_h1(PeriodicSequence(mod, v))


def _check_plain_against_list_trace(value: int, p: int, n: int) -> None:
    """The plain descent's level weights, edges, vertex length and verdict
    against the list-based trace, and its levels against the list rewrite
    when nothing cancels."""
    desc = _descend(value, p, n)
    got = ([v.bit_count() for v in desc.vecs], desc.edges, desc.q, desc.ok)
    assert got == list_plain_descent(value, p, n), value
    if desc.ok:
        assert desc.vecs == list_rewrite_descent(value, p, n)[0], value


def test_plain_and_rewrite_descents_match_list_references_at_p13():
    """Every value at 13^1, and seeded dense and sparse values at 13^2: at
    p = 13 a sum over one-bit parts folds 13 bits, the most of any small p."""
    mod = Modulus(13, 1)
    for v in range(1, 1 << mod.period):
        _check_plain_against_list_trace(v, 13, 1)
        _check_rewrite_descent_leads_with_h1(PeriodicSequence(mod, v))
    rng = random.Random(1302)
    mod = Modulus(13, 2)
    for i in range(300):
        if i % 2:
            v = rng.randrange(1, 1 << mod.period)
        else:  # sparse: few cancellations, often a hypercube
            v = sum({1 << rng.randrange(mod.period) for _ in range(rng.choice((1, 2, 4)))})
        _check_plain_against_list_trace(v, 13, 2)
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
    for mod, v in large_p_values(seed=41):
        _check_against_list_rewrite(PeriodicSequence(mod, v))


class _Index:
    """An integer by __index__ alone, as a numpy integer is."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v

    def __repr__(self):
        return f"_Index({self.v})"


def _accepts(make) -> bool:
    try:
        make()
    except ValueError as e:
        text = str(e)
        assert text == "block entries must be 0 or 1" or text.startswith("bit at index 0 is ")
        return False
    return True


@pytest.mark.parametrize(
    "entry",
    [0, 1, False, True, _Index(1), 1.0, Fraction(1), Decimal(1), None, "1", 2, -1, 256,
     _Index(2)],
    ids=repr,
)
def test_from_bits_and_vertices_share_one_entry_rule(entry):
    """Each call below is valid for an entry of 0 or 1, so it refuses exactly
    the entries the shared rule refuses."""
    outcomes = {
        _accepts(lambda: PeriodicSequence.from_bits([entry] + [1] * 8, MOD9)),
        _accepts(lambda: VertexDescriptor(1, ((entry, 1, 0), (entry, 1, 0), (0, 0, 0)))),
    }
    want = type(entry) in (int, bool, _Index) and entry.__index__() in (0, 1)
    assert outcomes == {want}


def test_a_vertex_of_index_integers_counts_its_ones():
    """The blocks are packed once; l, the parity check and the closed form's
    equalizing count (vertex_j) all read that mask, so __index__ entries
    count like ints.  The packed mask is no field: fields, equality, hash
    and repr see q and blocks."""
    I = _Index
    v = VertexDescriptor(1, ((I(1), I(1), I(0)), (I(1), I(0), I(0)), (0, 1, 0)))
    assert str(v) == "tuple(q=1, [110,100,010])"
    assert v.l == 4 and first_critical_m(vertex_sequence(v)).vertex_j == 2 and v.epsilon == -2
    assert [f.name for f in dataclasses.fields(VertexDescriptor)] == ["q", "blocks"]
    w = VertexDescriptor(0, ((1,), (1,), (0,)))
    assert dataclasses.asdict(w) == {"q": 0, "blocks": ((1,), (1,), (0,))}
    assert repr(w) == "VertexDescriptor(q=0, blocks=((1,), (1,), (0,)))"
    twin = dataclasses.replace(w)
    assert twin == w and hash(twin) == hash(w) and twin.l == 2
    el = VertexDescriptor()
    assert el.l == 1 and repr(el) == "VertexDescriptor(q=None, blocks=None)"


@pytest.mark.parametrize("p, q", [(3, 1), (3, 2), (5, 1)])
def test_packed_vertex_matches_the_descent_and_exhaustive_search(p, q):
    """On seeded tuple vertices, rebuilt from __index__ entries: l is the
    descent's l of the sequence made of the vertex alone, and that
    sequence's vertex_j is the exhaustive minimum."""
    rng = random.Random(2800 + 10 * p + q)
    for _ in range(60):
        v = random_tuple_vertex(rng, p, q)
        w = VertexDescriptor(q, tuple(tuple(map(_Index, b)) for b in v.blocks))
        s = vertex_sequence(v)
        desc = _descend(s.value, p, q + 1)
        assert desc.ok and extract_structure(s).vertex == v
        assert w.l == v.l == desc.l == s.weight
        assert w._mask == v._mask
        assert (first_critical_m(vertex_sequence(w)).vertex_j
                == first_critical_m(s).vertex_j == exhaustive_min_change(v))


_BLOCKS1 = ((1, 0, 0), (1, 0, 0), (0, 0, 0))


@pytest.mark.parametrize(
    "q, blocks, text",
    [
        (None, ((1,), (1,), (0,)), "element vertex carries no blocks"),
        (0, None, "tuple vertex needs q and blocks"),
        (1.0, _BLOCKS1, "tuple vertex q must be an int >= 0; got 1.0"),
        (True, _BLOCKS1, "tuple vertex q must be an int >= 0; got True"),
        (-1, ((1,), (1,), (0,)), "tuple vertex q must be an int >= 0; got -1"),
        ("1", _BLOCKS1, "tuple vertex q must be an int >= 0; got '1'"),
        (0, ((1,),), "tuple vertex needs at least 2 blocks"),
    ],
    ids=[
        "element-with-blocks", "tuple-without-blocks", "q-float", "q-bool", "q-negative",
        "q-str", "one-block",
    ],
)
def test_vertex_refuses_a_bad_q_or_blocks(q, blocks, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        VertexDescriptor(q, blocks)


_EL = VertexDescriptor()
_T0 = VertexDescriptor(0, ((1,), (1,), (0,)))
_T0_OF_5 = VertexDescriptor(0, ((1,), (1,), (0,), (0,), (0,)))
_T2 = VertexDescriptor(2, ((1,) + (0,) * 8,) * 2 + ((0,) * 9,))


@pytest.mark.parametrize(
    "h, error, text",
    [
        (HypercubeStructure((7,), _EL), InvalidEdges, "edge exponents (7,) outside [0, 1]"),
        (HypercubeStructure((-1,), _EL), InvalidEdges, "edge exponents (-1,) outside [0, 1]"),
        (HypercubeStructure((0,), _T0), InvalidEdges, "edge exponents (0,) outside [1, 1]"),
        (
            HypercubeStructure((), _T0_OF_5),
            ModulusMismatch,
            "tuple vertex of 5 blocks, q=0, does not fit 3^2",
        ),
        (
            HypercubeStructure((), _T2),
            ModulusMismatch,
            "tuple vertex of 3 blocks, q=2, does not fit 3^2",
        ),
    ],
    ids=["edge-7", "edge-minus-1", "tuple-edge-0", "5-blocks", "q-equals-n"],
)
def test_structures_must_fit_their_modulus(h, error, text):
    """lc_from_structure and next_lower_hypercube_lc price only shapes that
    fit the modulus, by the edge rule the counted classes use."""
    for price in (lc_from_structure, next_lower_hypercube_lc):
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            price(h, MOD9)


@pytest.mark.parametrize(
    "edges, text",
    [
        ((1, 0), "edges not strictly increasing: (1, 0)"),
        ((0, 0), "edges not strictly increasing: (0, 0)"),
        ((0.5,), "edge exponents must be ints; got (0.5,)"),
        ((True,), "edge exponents must be ints; got (True,)"),
        ((0, "1"), "edge exponents must be ints; got (0, '1')"),
    ],
    ids=repr,
)
def test_hypercube_structure_refuses_a_bad_edge(edges, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        HypercubeStructure(edges, _EL)


def _first_cancelling_sum(value: int, p: int, n: int) -> int | None:
    """The first depth whose sum changes the weight without reaching zero,
    read from the list-based trace; None for a hypercube."""
    steps, _ = list_plain_trace(value, p, n)
    for depth, (branch, pre, post, _) in enumerate(steps, 1):
        if branch == "sum" and post not in (pre, 0):
            return depth
    return None


def test_every_non_cube_at_2_4_names_its_first_cancelling_depth():
    """cube_lc and extract_structure name the depth a failed descent stopped
    at, for every nonzero 2^4-periodic sequence, past depth 1 too."""
    mod = Modulus(2, 4)
    fails = {}
    for v in range(1, 1 << mod.period):
        s = PeriodicSequence(mod, v)
        depth = _first_cancelling_sum(v, 2, 4)
        if depth is None:
            assert cube_lc(s)[1] == extract_structure(s).edges
            continue
        fails[depth] = fails.get(depth, 0) + 1
        with pytest.raises(NotACube, match=f"^cancellation at halving depth {depth}$"):
            cube_lc(s)
        with pytest.raises(
            NotAHypercube, match=f"^cancellation at depth {depth} of the descent$"
        ):
            extract_structure(s)
    assert fails == {1: 58720, 2: 5472, 3: 548}


@pytest.mark.parametrize("p, n", [(3, 3), (5, 2)])
def test_non_hypercubes_name_their_first_cancelling_depth(p, n):
    """On seeded sparse rows, extract_structure fails exactly where the
    list-based trace first cancels ones, and is_hypercube agrees."""
    rng = random.Random(2900 + 10 * p + n)
    mod = Modulus(p, n)
    depths = set()
    for _ in range(400):
        v = sum({1 << rng.randrange(mod.period) for _ in range(rng.choice((2, 3, 4, 6)))})
        s = PeriodicSequence(mod, v)
        depth = _first_cancelling_sum(v, p, n)
        assert is_hypercube(s) == (depth is None)
        if depth is None:
            extract_structure(s)
            continue
        depths.add(depth)
        with pytest.raises(
            NotAHypercube, match=f"^cancellation at depth {depth} of the descent$"
        ):
            extract_structure(s)
    assert max(depths) > 1


@pytest.mark.parametrize("vertex", [None, "element", ((1,), (1,), (0,)), 1], ids=repr)
def test_hypercube_structure_refuses_a_vertex_that_is_no_descriptor(vertex):
    text = f"vertex must be a VertexDescriptor; got {vertex!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        HypercubeStructure((), vertex)


@pytest.mark.parametrize(
    "blocks",
    [[[1], [1], [0]], [(1,), (1,), (0,)], ([1], [1], [0]), ((1,), [1], (0,))],
    ids=repr,
)
def test_vertex_blocks_must_be_a_tuple_of_tuples(blocks):
    text = f"blocks must be a tuple of tuples; got {blocks!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        VertexDescriptor(0, blocks)


@pytest.mark.parametrize("edges", [[0], range(1), None], ids=repr)
def test_hypercube_structure_edges_must_be_a_tuple(edges):
    text = f"edge exponents must be a tuple; got {edges!r}"
    with pytest.raises(InvalidEdges, match=f"^{re.escape(text)}$"):
        HypercubeStructure(edges, _EL)


def test_spread_and_kept_by_doubling_match_part_by_part_loops():
    """_spread makes exactly p copies and _kept keeps the first 1 of each
    row, at p = 2 (one shift) and at odd and even p whose copies do not
    double up to p."""
    rng = random.Random(3804)
    for p in (2, 3, 4, 5, 6, 7, 11, 13, 19):
        for plen in (1, 2, 3, 9, 27, 100):
            mask = (1 << plen) - 1
            for _ in range(5):
                rows, a = rng.getrandbits(plen), rng.getrandbits(p * plen)
                assert _spread(rows, p, plen) == sum(rows << i * plen for i in range(p))
                kept = seen = 0
                for i in range(p):
                    part = a >> i * plen & mask
                    kept |= (part & ~seen) << i * plen
                    seen |= part
                assert _kept(a, p, plen) == kept, (p, plen, a)


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
    list_plain_trace,
    list_rewrite_descent,
    p2_universe,
    random_tuple_vertex,
    seq,
)
from seqcomplex import (
    Decomposition,
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
    vertex_min_change,
)
from seqcomplex.errors import (
    InvalidEdges,
    IsVertex,
    ModulusMismatch,
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
    assert desc.vecs == plain.vecs
    assert (desc.q, desc.edges) == (plain.q, plain.edges)
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
            assert st.vertex.kind is VertexKind.ELEMENT and vecs[-1] == 1
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


def _check_against_list_rewrite(s):
    p, n = s.modulus.p, s.modulus.n
    desc = _descend(s.value, p, n, rewrite=True)
    vecs, _, edges, q, ok = list_rewrite_descent(s.value, p, n)
    assert (desc.vecs, desc.edges, desc.q, desc.ok) == (vecs, edges, q, ok), s.to01()


def test_packed_rewrite_matches_list_rewrite_exhaustive():
    for mod in (MOD9, Modulus(5, 1), Modulus(11, 1)):
        for v in range(1, 1 << mod.period):
            _check_against_list_rewrite(PeriodicSequence(mod, v))


def _check_plain_against_list_trace(value: int, p: int, n: int) -> None:
    """The plain descent's level weights, edges, vertex length and verdict
    against the list-based trace, and its levels against the list rewrite
    when nothing cancels."""
    steps, final_one = list_plain_trace(value, p, n)
    weights, edges, q, ok = [value.bit_count()], [], None, True
    for depth, (branch, pre, post, _) in enumerate(steps, 1):
        if branch == "split":
            edges.append(n - depth)
        elif post == 0:
            q = n - depth
            break
        elif post != pre:
            ok = False
            break
        weights.append(post)
    else:
        assert final_one
    desc = _descend(value, p, n, rewrite=False)
    got = ([v.bit_count() for v in desc.vecs], desc.edges, desc.q, desc.ok)
    assert got == (weights, tuple(sorted(edges)) if ok else (), q if ok else None, ok), value
    if ok:
        assert desc.vecs == list_rewrite_descent(value, p, n)[0], value


def test_plain_and_rewrite_descents_match_list_references_at_p13():
    """Every value at 13^1, and seeded dense and sparse values at 13^2: at
    p = 13 a sum over one-bit parts folds 13 bits, the most of any small p."""
    mod = Modulus(13, 1)
    for v in range(1, 1 << mod.period):
        _check_plain_against_list_trace(v, 13, 1)
        _check_against_list_rewrite(PeriodicSequence(mod, v))
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
def test_from_bits_vertices_and_rewrites_share_one_entry_rule(entry):
    """Each call below is valid for an entry of 0 or 1, so it refuses exactly
    the entries the shared rule refuses."""
    outcomes = {
        _accepts(lambda: PeriodicSequence.from_bits([entry] + [1] * 8, MOD9)),
        _accepts(lambda: VertexDescriptor(
            VertexKind.TUPLE, 1, ((entry, 1, 0), (entry, 1, 0), (0, 0, 0)))),
        _accepts(lambda: rebalance_blocks([[entry, 1], [entry, 0], [0, 0]])),
    }
    want = type(entry) in (int, bool, _Index) and entry.__index__() in (0, 1)
    assert outcomes == {want}


def test_a_vertex_of_index_integers_counts_its_ones():
    """The blocks are packed once; l, the parity check and vertex_min_change
    all read that mask, so __index__ entries count like ints.  The packed
    mask is no field: fields, equality, hash and repr see kind, q, blocks."""
    I = _Index
    v = VertexDescriptor(
        VertexKind.TUPLE, 1, ((I(1), I(1), I(0)), (I(1), I(0), I(0)), (0, 1, 0))
    )
    assert str(v) == "tuple(q=1, [110,100,010])"
    assert v.l == 4 and vertex_min_change(v) == 2 and v.epsilon == -2
    assert [f.name for f in dataclasses.fields(VertexDescriptor)] == ["kind", "q", "blocks"]
    w = VertexDescriptor(VertexKind.TUPLE, 0, ((1,), (1,), (0,)))
    assert dataclasses.asdict(w) == {
        "kind": VertexKind.TUPLE, "q": 0, "blocks": ((1,), (1,), (0,))
    }
    assert repr(w) == (
        "VertexDescriptor(kind=<VertexKind.TUPLE: 'tuple'>, q=0, blocks=((1,), (1,), (0,)))"
    )
    twin = dataclasses.replace(w)
    assert twin == w and hash(twin) == hash(w) and twin.l == 2
    assert VertexDescriptor(VertexKind.ELEMENT).l == 1


@pytest.mark.parametrize("p, q", [(3, 1), (3, 2), (5, 1)])
def test_packed_vertex_matches_the_descent_and_exhaustive_search(p, q):
    """On seeded tuple vertices, rebuilt from __index__ entries: l is the
    descent's l of the sequence made of the vertex alone, and
    vertex_min_change is the exhaustive minimum."""
    rng = random.Random(2800 + 10 * p + q)
    mod = Modulus(p, q + 1)
    for _ in range(60):
        v = random_tuple_vertex(rng, p, q)
        w = VertexDescriptor(
            VertexKind.TUPLE, q, tuple(tuple(map(_Index, b)) for b in v.blocks)
        )
        s = PeriodicSequence.from_bits([bit for b in v.blocks for bit in b], mod)
        desc = _descend(s.value, p, q + 1, rewrite=False)
        assert desc.ok and extract_structure(s).vertex == v
        assert w.l == v.l == desc.l == s.weight
        assert vertex_min_change(w) == vertex_min_change(v) == exhaustive_min_change(v)


_BLOCKS1 = ((1, 0, 0), (1, 0, 0), (0, 0, 0))


@pytest.mark.parametrize(
    "kind, q, blocks, text",
    [
        ("tuple", 0, ((1,), (1,), (0,)), "vertex kind must be a VertexKind; got 'tuple'"),
        ("element", None, None, "vertex kind must be a VertexKind; got 'element'"),
        (VertexKind.TUPLE, 1.0, _BLOCKS1, "tuple vertex q must be an int >= 0; got 1.0"),
        (VertexKind.TUPLE, True, _BLOCKS1, "tuple vertex q must be an int >= 0; got True"),
        (VertexKind.TUPLE, -1, ((1,), (1,), (0,)), "tuple vertex q must be an int >= 0; got -1"),
        (VertexKind.TUPLE, "1", _BLOCKS1, "tuple vertex q must be an int >= 0; got '1'"),
    ],
    ids=["kind-tuple-str", "kind-element-str", "q-float", "q-bool", "q-negative", "q-str"],
)
def test_vertex_refuses_a_bad_kind_or_q(kind, q, blocks, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        VertexDescriptor(kind, q, blocks)


_EL = VertexDescriptor(VertexKind.ELEMENT)
_T0 = VertexDescriptor(VertexKind.TUPLE, 0, ((1,), (1,), (0,)))
_T0_OF_5 = VertexDescriptor(VertexKind.TUPLE, 0, ((1,), (1,), (0,), (0,), (0,)))
_T2 = VertexDescriptor(VertexKind.TUPLE, 2, ((1,) + (0,) * 8,) * 2 + ((0,) * 9,))


@pytest.mark.parametrize(
    "h, error, text",
    [
        (HypercubeStructure(1, (7,), _EL), InvalidEdges, "edge exponents (7,) outside [0, 1]"),
        (HypercubeStructure(1, (-1,), _EL), InvalidEdges, "edge exponents (-1,) outside [0, 1]"),
        (HypercubeStructure(1, (0,), _T0), InvalidEdges, "edge exponents (0,) outside [1, 1]"),
        (
            HypercubeStructure(0, (), _T0_OF_5),
            ModulusMismatch,
            "tuple vertex of 5 blocks, q=0, does not fit 3^2",
        ),
        (
            HypercubeStructure(0, (), _T2),
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
    "m, edges, text",
    [
        (1.0, (0,), "m must be an int; got 1.0"),
        (True, (0,), "m must be an int; got True"),
        (1, (0.5,), "edge exponents must be ints; got (0.5,)"),
        (1, (True,), "edge exponents must be ints; got (True,)"),
        (2, (0, "1"), "edge exponents must be ints; got (0, '1')"),
    ],
    ids=repr,
)
def test_hypercube_structure_refuses_a_non_int_m_or_edge(m, edges, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        HypercubeStructure(m, edges, _EL)


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


@pytest.mark.parametrize("vertex", [None, "element", VertexKind.ELEMENT, 1], ids=repr)
def test_hypercube_structure_refuses_a_vertex_that_is_no_descriptor(vertex):
    text = f"vertex must be a VertexDescriptor; got {vertex!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        HypercubeStructure(0, (), vertex)


@pytest.mark.parametrize(
    "blocks",
    [[[1], [1], [0]], [(1,), (1,), (0,)], ([1], [1], [0]), ((1,), [1], (0,))],
    ids=repr,
)
def test_vertex_blocks_must_be_a_tuple_of_tuples(blocks):
    text = f"blocks must be a tuple of tuples; got {blocks!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        VertexDescriptor(VertexKind.TUPLE, 0, blocks)


@pytest.mark.parametrize("edges", [[0], range(1), None], ids=repr)
def test_hypercube_structure_edges_must_be_a_tuple(edges):
    text = f"edge exponents must be a tuple; got {edges!r}"
    with pytest.raises(InvalidEdges, match=f"^{re.escape(text)}$"):
        HypercubeStructure(1, edges, _EL)


@pytest.mark.parametrize(
    "blocks",
    [[1, 0, 1], 5, [[1, 0], 7, [1, 0]], [iter((1, 0)), [1, 0]], {1, 2}],
    ids=["ints", "int", "int-block", "iterator-block", "set"],
)
def test_rebalance_blocks_refuses_blocks_that_are_no_sequences(blocks):
    text = re.escape(f"blocks must be a sequence of sequences; got {blocks!r}")
    with pytest.raises(ValueError, match=f"^{text}$"):
        rebalance_blocks(blocks)

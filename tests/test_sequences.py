import copy
import dataclasses
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import seqcomplex as sc
from seqcomplex import (
    Modulus,
    PeriodicSequence,
    hamming_weight,
    parse_corpus,
    parse_sequence,
    pn_distance,
    validate_modulus,
    xor_sequences,
)
from seqcomplex.errors import (
    EqualPositions,
    InvalidCharacter,
    LengthMismatch,
    ModulusMismatch,
    NotPrime,
    NotPrimitiveRoot,
    PeriodTooLarge,
)
from seqcomplex.sequences import PERIOD_CAP

MOD9 = Modulus(3, 2)


def test_modulus_accepts_supported_primes():
    for p in (3, 5, 11, 13, 19, 29, 37, 53, 59, 61):
        assert validate_modulus(p, 1).period == p
    assert Modulus(2, 20).period == 1 << 20
    assert str(Modulus(5, 2)) == "5^2"
    assert [f.name for f in dataclasses.fields(Modulus)] == ["p", "n"]
    assert dataclasses.replace(Modulus(3, 2), n=3).period == 27


def test_modulus_rejects_primes_without_the_order_property():
    # ord(2 mod p^2) < p(p-1) for these, so the descent formulas break
    for p in (7, 17, 23, 31, 41, 43, 47):
        with pytest.raises(NotPrimitiveRoot):
            Modulus(p, 1)


def test_modulus_rejects_non_primes_and_bad_exponents():
    for p in (0, 1, 4, 6, 9, 15):
        with pytest.raises(NotPrime):
            Modulus(p, 1)
    with pytest.raises(NotPrime):
        Modulus(3, 0)


def test_modulus_refuses_a_bool_p_or_n():
    """True is an int to isinstance; a modulus takes it for neither p nor n
    (Modulus(3, True) used to print as 3^True)."""
    for p, n in [(3, True), (True, 2), (2, True), (3, 2.0)]:
        with pytest.raises(NotPrime, match=r"^need integer p >= 2 and n >= 1, got "):
            Modulus(p, n)


def test_modulus_rejects_huge_periods():
    with pytest.raises(PeriodTooLarge):
        Modulus(2, 21)
    with pytest.raises(PeriodTooLarge):
        Modulus(3, 13)


def test_modulus_checks_primality_and_order_before_the_period():
    # a p below the cap is still refused for what it is; one above it is not factored
    with pytest.raises(NotPrime):
        Modulus(4, 21)
    with pytest.raises(NotPrimitiveRoot):
        Modulus(7, 21)
    with pytest.raises(PeriodTooLarge):
        Modulus(PERIOD_CAP + 1, 1)


def test_parse_sequence_roundtrip_and_whitespace():
    s = parse_sequence("110 000 000", MOD9)
    assert s.to01() == "110000000"
    assert s.value == 0b011
    assert s.weight == 2 == hamming_weight(s)
    assert list(s) == [1, 1, 0, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("value", [1.5, "5", True])
def test_packed_value_must_be_an_int(value):
    with pytest.raises(LengthMismatch, match=r"^packed value must be an int; got "):
        PeriodicSequence(MOD9, value)


def test_parse_sequence_errors():
    with pytest.raises(LengthMismatch):
        parse_sequence("1100", MOD9)
    with pytest.raises(InvalidCharacter) as e:
        parse_sequence("1102 0000 0", MOD9)
    assert "offset 3" in str(e.value)


def test_parse_rejects_what_int_base_2_would_accept():
    # "_" separators, signs and non-ASCII digits; the first bad offset is
    # reported even when the digit count is also wrong
    cases = [
        ("110_000000", 3),
        ("+110000000", 0),
        ("-11000000", 0),
        ("1_0", 1),
        ("11000000\u0661", 8),
        ("110 \u06f1\u06f0000000", 4),
    ]
    for text, offset in cases:
        with pytest.raises(InvalidCharacter) as e:
            parse_sequence(text, MOD9)
        assert str(e.value) == f"invalid character {text[offset]!r} at offset {offset}"


def test_parse_accepts_any_whitespace():
    for text in ("\t110\n000 000\r\n", "110\u2003000\u00a0000", " 1 1 0 0 0 0 0 0 0 "):
        assert parse_sequence(text, MOD9).value == 0b011


def test_text_round_trip_at_the_period_cap():
    mod = Modulus(2, 20)
    rng = random.Random(20)
    text = format(rng.getrandbits(mod.period), f"0{mod.period}b")
    s = parse_sequence(text, mod)
    assert s.to01() == text
    assert s.weight == text.count("1")
    assert all(s.bit(i) == int(text[i]) for i in rng.sample(range(mod.period), 500))


def test_bits_round_trip_at_the_period_cap():
    mod = Modulus(2, 20)
    text = format(random.Random(21).getrandbits(mod.period), f"0{mod.period}b")
    s = PeriodicSequence.from_bits([int(c) for c in text], mod)
    assert s.to01() == text


def test_from_bits_checks_each_bit_before_the_length():
    assert PeriodicSequence.from_bits([True, False] + [False] * 7, MOD9).to01() == "100000000"
    with pytest.raises(InvalidCharacter, match=r"^bit at index 2 is 3, not 0/1$"):
        PeriodicSequence.from_bits([1, 0, 3, 7], MOD9)


def test_packed_value_must_fit_the_period():
    with pytest.raises(LengthMismatch) as e:
        PeriodicSequence(MOD9, 1 << 9)
    assert str(e.value) == "packed value needs 9 bits, got 10"
    with pytest.raises(LengthMismatch) as e:
        PeriodicSequence(MOD9, -1)
    assert str(e.value) == "packed value needs 9 bits, got 1"
    assert PeriodicSequence(MOD9, (1 << 9) - 1).weight == 9
    top = Modulus(2, 20)
    assert PeriodicSequence(top, (1 << top.period) - 1).weight == top.period
    with pytest.raises(LengthMismatch):
        PeriodicSequence(top, 1 << top.period)


def test_modulus_with_cached_period_pickles_equal():
    """The --jobs pool pickles rows; a Modulus, which stores its period
    beside its fields, must still round-trip equal, with an equal hash."""
    mod = Modulus(3, 5)
    assert mod.period == 243
    back = pickle.loads(pickle.dumps(mod))
    assert back == mod and hash(back) == hash(mod) == hash(Modulus(3, 5))
    assert back.period == 243 and repr(back) == "Modulus(p=3, n=5)"
    s = PeriodicSequence(mod, 5)
    assert pickle.loads(pickle.dumps(s)) == s


def test_sequence_is_a_frozen_value_with_a_fixed_repr():
    """Fields reject assignment and deletion, equal sequences hash equal, and
    the repr names the modulus and the literal, cut after 29 digits."""
    s = PeriodicSequence(MOD9, 0b11)
    for name, value in (("value", 5), ("modulus", Modulus(5, 1))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(s, name)
    assert (s.modulus, s.value) == (MOD9, 0b11)
    twin = parse_sequence("110000000", Modulus(3, 2))
    assert twin == s and hash(twin) == hash(s) and twin is not s
    assert len({s, twin, PeriodicSequence(MOD9, 0b101)}) == 2
    assert s != PeriodicSequence(Modulus(5, 1), 0b11)
    assert repr(s) == "PeriodicSequence(3^2, 110000000)"
    assert repr(PeriodicSequence(Modulus(3, 4), 1)) == f"PeriodicSequence(3^4, 1{'0' * 28}...)"
    assert dataclasses.replace(s, value=1) == PeriodicSequence(MOD9, 1)


def test_every_build_path_gives_a_slotted_sequence():
    """The sweeps build a sequence per checked value and read its fields on
    every check, which is cheapest with both fields in slots and no
    instance dict; every way of making a sequence keeps that layout and
    gives back an equal sequence with an equal hash."""
    s = PeriodicSequence(MOD9, 0b11)
    built = [
        (PeriodicSequence(MOD9, 0b11), s),
        (PeriodicSequence.from_text("110000000", MOD9), s),
        (PeriodicSequence.from_bits([1, 1, 0, 0, 0, 0, 0, 0, 0], MOD9), s),
        (PeriodicSequence.zeros(MOD9), PeriodicSequence(MOD9, 0)),
        (PeriodicSequence(MOD9, 0b110) ^ PeriodicSequence(MOD9, 0b101), s),
        (dataclasses.replace(PeriodicSequence(MOD9, 1), value=0b11), s),
        (copy.copy(s), s),
        (copy.deepcopy(s), s),
    ]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        built.append((pickle.loads(pickle.dumps(s, protocol)), s))
    assert PeriodicSequence.__slots__ == ("modulus", "value")
    for i, (t, want) in enumerate(built):
        assert type(t) is PeriodicSequence and not hasattr(t, "__dict__"), i
        assert t == want and hash(t) == hash(want), i


def test_from_bits():
    s = PeriodicSequence.from_bits([1, 1, 0, 0, 0, 0, 0, 0, 0], MOD9)
    assert s.to01() == "110000000"
    with pytest.raises(InvalidCharacter):
        PeriodicSequence.from_bits([1, 2, 0, 0, 0, 0, 0, 0, 0], MOD9)
    with pytest.raises(LengthMismatch):
        PeriodicSequence.from_bits([1, 0], MOD9)


def test_bit_indexing_wraps_periodically():
    s = parse_sequence("110000000", MOD9)
    assert s.bit(0) == 1 and s.bit(2) == 0
    assert s.bit(9) == s.bit(0) and s.bit(-1) == s.bit(8)


def test_xor_requires_matching_modulus():
    a = parse_sequence("110000000", MOD9)
    b = parse_sequence("100100100", MOD9)
    assert xor_sequences(a, b).to01() == "010100100"
    with pytest.raises(ModulusMismatch):
        a ^ PeriodicSequence.zeros(Modulus(5, 1))


def test_pn_distance():
    assert pn_distance(0, 1, MOD9) == 1
    assert pn_distance(0, 2, MOD9) == 1
    assert pn_distance(0, 3, MOD9) == 3
    assert pn_distance(6, 0, MOD9) == 3
    assert pn_distance(8, 2, MOD9) == 3
    mod27 = Modulus(3, 3)
    assert pn_distance(0, 9, mod27) == 9
    assert pn_distance(0, 18, mod27) == 9
    with pytest.raises(EqualPositions):
        pn_distance(4, 4, MOD9)
    with pytest.raises(LengthMismatch):
        pn_distance(0, 9, MOD9)


def test_parse_corpus_skips_comments_and_keeps_line_numbers():
    lines = ["# corpus", "", "110000000", "   ", "100100100  ", "# done"]
    rows = parse_corpus(lines, MOD9)
    assert [(no, s.to01()) for no, s in rows] == [
        (3, "110000000"),
        (5, "100100100"),
    ]


def test_parse_corpus_reports_the_offending_line():
    with pytest.raises(InvalidCharacter) as e:
        parse_corpus(["110000000", "11000000x"], MOD9)
    assert str(e.value).startswith("line 2:")
    with pytest.raises(LengthMismatch) as e:
        parse_corpus(["# ok", "1100"], MOD9)
    assert str(e.value).startswith("line 2:")


# (text, value) or (text, exception type, message); the messages are the ones
# the count-based check gave before the one-scan check replaced it
FROM_TEXT_CASES = [
    ("110 000 000", 0b011),
    ("110\t000\t000", 0b011),
    ("110\n000\n000", 0b011),
    (" \t110000000\r\n", 0b011),
    ("1101 0000 0", 0b1011),
    ("110_000000", InvalidCharacter, "invalid character '_' at offset 3"),
    ("1100+0000", InvalidCharacter, "invalid character '+' at offset 4"),
    ("110000002", InvalidCharacter, "invalid character '2' at offset 8"),
    ("11 0\t2", InvalidCharacter, "invalid character '2' at offset 5"),
    ("11000000\u0661", InvalidCharacter, "invalid character '\u0661' at offset 8"),
    ("1100000\uff111", InvalidCharacter, "invalid character '\uff11' at offset 7"),
    ("\uff1110000000", InvalidCharacter, "invalid character '\uff11' at offset 0"),
    ("1\udc80", InvalidCharacter, "invalid character '\\udc80' at offset 1"),
    ("\udc80110000000", InvalidCharacter, "invalid character '\\udc80' at offset 0"),
    ("", LengthMismatch, "expected 9 digits, got 0"),
    ("  ", LengthMismatch, "expected 9 digits, got 0"),
    ("1100", LengthMismatch, "expected 9 digits, got 4"),
    ("1100000000", LengthMismatch, "expected 9 digits, got 10"),
]


@pytest.mark.parametrize("case", FROM_TEXT_CASES, ids=lambda case: ascii(case[0]))
def test_from_text_accepts_and_fails_as_before(case):
    text, *want = case
    if len(want) == 1:
        assert PeriodicSequence.from_text(text, MOD9).value == want[0]
        return
    kind, message = want
    # a lone surrogate (a non-UTF-8 argv byte) must not raise UnicodeEncodeError
    with pytest.raises(Exception) as e:
        PeriodicSequence.from_text(text, MOD9)
    assert (type(e.value), str(e.value)) == (kind, message)


WHITESPACE = " \t\n\r\x0b\x0c\u00a0\u2003\u3000"
PARSE_MODULI = [Modulus(2, n) for n in range(1, 7)] + [MOD9, Modulus(3, 3), Modulus(5, 2)]


@given(st.sampled_from(PARSE_MODULI).flatmap(lambda mod: st.tuples(
    st.just(mod),
    st.text("01", min_size=mod.period, max_size=mod.period),
    st.lists(st.text(WHITESPACE, max_size=2), min_size=mod.period + 1,
             max_size=mod.period + 1),
)))
def test_from_text_reads_the_digits_between_any_whitespace(case):
    mod, digits, gaps = case
    text = gaps[0] + "".join(d + g for d, g in zip(digits, gaps[1:]))
    assert PeriodicSequence.from_text(text, mod).value == int(digits[::-1], 2)


@pytest.mark.parametrize("bad", [1.0, Fraction(1), Decimal(1), None, "1", 2, -1, 256], ids=repr)
def test_from_bits_refuses_a_non_integer_entry_at_its_index(bad):
    """Entries follow the vertex block rule: an integer equal to 0 or 1.  The
    first bad entry is named before the length (5, not 9) is checked."""
    text = rf"^bit at index 3 is {re.escape(repr(bad))}, not 0/1$"
    with pytest.raises(InvalidCharacter, match=text):
        PeriodicSequence.from_bits([1, 0, True, bad, 0.5], MOD9)


def test_from_bits_accepts_ints_and_bools():
    s = PeriodicSequence.from_bits([1, True, 0, False, 1, 0, 0, 0, True], MOD9)
    assert s.to01() == "110010001" and s.value == 0b100010011


@pytest.mark.parametrize("p, n", [(3, 2), (2, 5), (5, 3), (2, 20)])
def test_bits_are_the_digits_of_to01(p, n):
    mod = Modulus(p, n)
    full = (1 << mod.period) - 1
    for value in (0, full, random.Random(p**n).getrandbits(mod.period)):
        s = PeriodicSequence(mod, value)
        assert s.bits == tuple(map(int, s.to01()))
        assert PeriodicSequence.from_bits(s.bits, mod) == s


@pytest.mark.parametrize("bad", [0.5, True, "1", 2.0, None], ids=repr)
def test_positions_must_be_ints(bad):
    """pn_distance and PeriodicSequence.bit read positions as plain ints;
    anything else, a bool included, is refused with LengthMismatch."""
    text = re.escape(repr(bad))
    with pytest.raises(LengthMismatch, match=rf"^positions must be ints; got {text}, 2$"):
        pn_distance(bad, 2, MOD9)
    with pytest.raises(LengthMismatch, match=rf"^positions must be ints; got 2, {text}$"):
        pn_distance(2, bad, MOD9)
    with pytest.raises(LengthMismatch, match=rf"^index must be an int; got {text}$"):
        parse_sequence("110000000", MOD9).bit(bad)


@pytest.mark.parametrize("other", [5, "101", None, 1.5], ids=repr)
def test_xor_with_a_non_sequence_is_pythons_type_error(other):
    """s ^ x returns NotImplemented for an x that is no PeriodicSequence, so
    Python raises its own TypeError either way round."""
    s = parse_sequence("110000000", MOD9)
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \^"):
        s ^ other
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \^"):
        other ^ s
    with pytest.raises(TypeError):
        xor_sequences(s, other)
    with pytest.raises(ModulusMismatch, match=r"^3\^2 vs 5\^1$"):
        s ^ PeriodicSequence.zeros(Modulus(5, 1))


def _element_cube():
    return sc.HypercubeStructure(0, (), sc.VertexDescriptor(sc.VertexKind.ELEMENT))


_MODULUS_READERS = {
    "PeriodicSequence": lambda m: PeriodicSequence(m, 1),
    "PeriodicSequence-negative": lambda m: PeriodicSequence(m, -1),
    "zeros": lambda m: PeriodicSequence.zeros(m),
    "from_text": lambda m: PeriodicSequence.from_text("110", m),
    "parse_sequence": lambda m: parse_sequence("110", m),
    "from_bits": lambda m: PeriodicSequence.from_bits([1, 1, 0], m),
    "parse_corpus": lambda m: parse_corpus(["110"], m),
    "parse_corpus-empty": lambda m: parse_corpus([], m),
    "lc_form_decompose": lambda m: sc.lc_form_decompose(3, m),
    "count_sequences_with_lc": lambda m: sc.count_sequences_with_lc(m, 3),
    "count_hypercubes": lambda m: sc.count_hypercubes(m, ()),
    "count_cubes": lambda m: sc.count_cubes(m, ()),
    "enumerate_hypercubes": lambda m: sc.enumerate_hypercubes(m, ()),
    "enumerate_cubes": lambda m: sc.enumerate_cubes(m, ()),
    "class_lc": lambda m: sc.class_lc(m, ()),
    "construct_stable": lambda m: sc.construct_stable(m, 1),
    "pn_distance": lambda m: pn_distance(0, 1, m),
    "lc_from_structure": lambda m: sc.lc_from_structure(_element_cube(), m),
    "next_lower_hypercube_lc": lambda m: sc.next_lower_hypercube_lc(_element_cube(), m),
    "run_suites": lambda m: sc.run_suites(["counting"], m),
}


@pytest.mark.parametrize("call", _MODULUS_READERS.values(), ids=_MODULUS_READERS)
@pytest.mark.parametrize(
    "bad", [(3, 2), "3^2", 9, [3, 2], SimpleNamespace(p=3, n=2, period=9)], ids=repr
)
def test_a_modulus_that_is_no_modulus_is_refused_by_name(call, bad):
    """Every public function that takes a modulus refuses anything but a
    Modulus with ModulusMismatch naming it, not a bare AttributeError."""
    text = re.escape(f"modulus must be a Modulus; got {bad!r}")
    with pytest.raises(ModulusMismatch, match=f"^{text}$") as info:
        call(bad)
    assert info.value.__suppress_context__ or info.value.__context__ is None

"""Each bit-sliced operation against per-lane integer arithmetic."""

import random

import pytest
from helpers import lane_values, to_planes

from seqcomplex.bitslice import above, add, identity, largest, read, subtract

WIDTHS = (1, 2, 63, 64, 65, 1000, 4096)


def _mask(lanes: int, width: int) -> list[bool]:
    return [bool(lanes >> j & 1) for j in range(width)]


def _from_mask(selected) -> int:
    return sum(1 << j for j, on in enumerate(selected) if on)


def _cases(K):
    """Seeded numbers of K planes on 1-4096 lanes, holding 0 and 2^K - 1,
    each with every lane selected and with a random mask of lanes."""
    rng = random.Random(K)
    top = (1 << K) - 1
    for width in WIDTHS:
        values = [rng.randint(0, top) for _ in range(width)]
        values[-1], values[0] = 0, top
        constants = sorted({0, top, rng.randint(0, top)})
        for lanes in ((1 << width) - 1, rng.getrandbits(width)):
            yield width, values, lanes, constants


PLANES = pytest.mark.parametrize("K", range(1, 7))


@PLANES
def test_above_matches_lane_compare(K):
    for width, values, lanes, constants in _cases(K):
        planes = to_planes(values, K)
        for c in constants:
            want = [on and v > c for on, v in zip(_mask(lanes, width), values)]
            assert above(planes, c, lanes) == _from_mask(want), (width, c)
        assert planes == to_planes(values, K)


@PLANES
def test_largest_matches_lane_max(K):
    for width, values, lanes, _ in _cases(K):
        selected = _mask(lanes, width)
        top = max((v for on, v in zip(selected, values) if on), default=None)
        want = [on and v == top for on, v in zip(selected, values)]
        assert largest(to_planes(values, K), lanes) == _from_mask(want), width


@PLANES
def test_add_matches_lane_increment(K):
    for width, values, ones, _ in _cases(K):
        planes = to_planes(values, K)
        add(planes, ones)
        want = [(v + on) % (1 << K) for on, v in zip(_mask(ones, width), values)]
        assert lane_values(planes, width) == want, width


@PLANES
def test_subtract_matches_lane_difference(K):
    for width, values, lanes, constants in _cases(K):
        selected = _mask(lanes, width)
        for c in constants:
            planes = to_planes(values, K)
            subtract(planes, c, lanes)
            want = [(c - v) % (1 << K) if on else v for on, v in zip(selected, values)]
            assert lane_values(planes, width) == want, (width, c)


@PLANES
def test_read_returns_every_lane(K):
    for width, values, _, _ in _cases(K):
        assert read(to_planes(values, K), width) == values, width


@pytest.mark.parametrize("K", [8, 9, 16, 17])
def test_read_at_each_field_width(K):
    """One, two and four bytes a lane: the widest value of each field, and
    the narrowest that needs the next."""
    rng = random.Random(K)
    top = (1 << K) - 1
    for width in (1, 3, 4096):
        values = [top, 0, 1 << (K - 1)][:width] + [rng.randint(0, top) for _ in range(width - 3)]
        assert read(to_planes(values, K), width) == values


@pytest.mark.parametrize("bits", range(13))
def test_identity_lane_v_holds_v(bits):
    """Plane t is runs of 2^t lanes, clear then set, so lane v reads v."""
    planes = identity(bits)
    assert len(planes) == bits
    for t, plane in enumerate(planes):
        w = 1 << t
        assert all((plane >> v & 1) == (v // w & 1) for v in range(1 << bits)), (bits, t)
    assert read(planes, 1 << bits) == list(range(1 << bits))

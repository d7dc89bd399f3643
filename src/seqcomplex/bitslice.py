"""Bit-sliced unsigned numbers: one small number per bit lane of a few ints.

A number is a list of planes: plane b holds bit b of every lane's value, and
lane j is bit j of each plane.  One big-int operation on a plane thus does
one bit's work for every lane at once.  A mask of lanes selects the lanes an
operation reads or changes; arithmetic is modulo 2^len(planes).

``lincomp._bm_planes`` keeps each Berlekamp-Massey complexity here,
``kerror._equalizing_flips`` its row counts and ``kerror._table`` its class
minimums.  Two functions build a number and one reads it back.
``identity`` numbers a whole universe, lane v holding v: the planes of
every sequence of a period, which ``kerror._table`` descends and
``verify``'s lc-oracle runs through Berlekamp-Massey.  ``number`` puts
given values in lanes 0, 1, ..., the planes of a sampled lc-oracle
universe, and ``read`` gives a number's lanes back as a list.  The module
is internal: the package exports none of its names.
"""

from __future__ import annotations

import struct
from itertools import repeat

from .sequences import _TO_BIT


def identity(bits: int) -> list[int]:
    """The number of 2^bits lanes in which lane v holds v: plane t is runs
    of w = 2^t lanes, clear then set.  One clear and one set run are
    doubled until they span every lane: at 2^16 lanes that took ~0.06 ms
    against ~6 ms for the quadratic division of a repunit (min of 9, 2-vCPU
    VM)."""
    size = 1 << bits
    planes = []
    for t in range(bits):
        w = 1 << t
        plane, span = ((1 << w) - 1) << w, 2 * w
        while span < size:
            plane |= plane << span
            span *= 2
        planes.append(plane)
    return planes


def number(values: list[int], bits: int) -> list[int]:
    """The number of len(values) lanes in which lane j holds values[j] <
    2^bits: the inverse of ``read``.

    Each value becomes a field of whole bytes, the fields join into one
    int, that int is formatted in binary once, and plane t is one strided
    slice of the text.  Up to 64 bits one ``struct.pack`` writes every
    field, widened to the 4 or 8 bytes of its code; above that, where
    struct has no code, ``int.to_bytes`` gives each value's whole bytes.
    """
    width = len(values)
    # fields MSB first and values[0] last, so that lane j is values[j]; the
    # join packs 512 values at a time, as one join over every value would
    # hold a bytes object per value at once and raise the sweep's peak RSS
    lanes = values[::-1]
    for F, code in ((32, "I"), (64, "Q")):
        if bits <= F:
            packed = struct.pack(f">{width}{code}", *lanes)
            break
    else:
        size = bits + 7 >> 3
        F = 8 * size
        packed = b"".join(
            b"".join(map(int.to_bytes, lanes[k : k + 512], repeat(size), repeat("big")))
            for k in range(0, width, 512)
        )
    rows = format(int.from_bytes(packed, "big"), f"0{width * F}b")
    return [int(rows[F - 1 - t :: F], 2) for t in range(bits)]


def above(planes: list[int], c: int, lanes: int) -> int:
    """The lanes whose value exceeds c, for 0 <= c < 2^len(planes).

    The compare runs MSB first, eq keeping the lanes that match c so far.
    """
    gt, eq = 0, lanes
    for b in range(len(planes) - 1, -1, -1):
        if c >> b & 1:
            eq &= planes[b]
        else:
            gt |= eq & planes[b]
            eq &= ~planes[b]
    return gt


def largest(planes: list[int], lanes: int) -> int:
    """The lanes that hold the largest value among lanes: MSB first, keep
    the lanes with the bit set whenever any of them has it."""
    for plane in reversed(planes):
        if lanes & plane:
            lanes &= plane
    return lanes


def add(planes: list[int], ones: int) -> None:
    """Add 1 to the value of each lane in ones, in place (a ripple carry)."""
    for b in range(len(planes)):
        planes[b], ones = planes[b] ^ ones, planes[b] & ones


def subtract(planes: list[int], c: int, lanes: int) -> None:
    """Set the value v of each lane in lanes to c - v, in place (a borrow
    chain); the other lanes keep theirs."""
    borrow = 0
    for b, x in enumerate(planes):
        if c >> b & 1:
            planes[b] = x ^ (lanes & ~borrow)
            borrow &= x
        else:
            planes[b] = x ^ (lanes & borrow)
            borrow |= x


def read(planes: list[int], width: int) -> list[int]:
    """The values of lanes 0..width-1, for at most 32 planes.

    Each lane gets a field of g bytes: plane b's bits land in the low byte
    of every field, shifted up by b, and one unpack reads all the fields.
    """
    g, code = (1, "B") if len(planes) <= 8 else (2, "H") if len(planes) <= 16 else (4, "I")
    buf = bytearray(width * g)
    total = 0
    for b, plane in enumerate(planes):
        # lane width-1 first, in the last byte of its field
        buf[g - 1 :: g] = format(plane, f"0{width}b").encode().translate(_TO_BIT)
        total += int.from_bytes(buf, "big") << b
    return list(struct.unpack(f"<{width}{code}", total.to_bytes(width * g, "little")))

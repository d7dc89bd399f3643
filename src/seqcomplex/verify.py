"""Cross-check suites: every closed form against an independent computation.

Each suite sweeps one or more universes of sequences, exhaustively when the
period is small enough and by seeded sampling otherwise, and counts one check
per swept object so a report reads "511/511 agree".  Counterexamples are
collected verbatim (sequence literal plus both values) instead of raising, so
one mismatch does not hide the rest; only the first MAX_DETAILS of a suite are
kept, and only those are formatted.

The counting suite runs one class check at every p, the p = 2 cubes being
the element class of the hypercube theory: it tallies classes (edges, l)
from one plain descent per sequence and re-checks every enumerated member's
class and complexity.  Like lc-oracle, which checks ``lc``, it checks the
public functions behind its command, ``count hypercubes`` (the one
class-count command, at every p): ``count_hypercubes``,
``enumerate_hypercubes`` and ``class_lc``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, product, repeat
from operator import le
from typing import Callable, Iterable, Iterator, Sequence

from .bitslice import identity, number, read
from .counting import (
    _class_key, _classes, class_lc, count_hypercubes, count_sequences_with_lc,
    enumerate_hypercubes,
)
from .hypercube import is_hypercube, standard_decompose
from .kerror import (
    DEFAULT_CAP,
    _first_drop,
    celcs,
    construct_stable,
    first_critical_m,
    kurosawa_m,
    meidl_upper_bound,
)
from .lincomp import LCForm, _bm_planes, lc, xwli_lc
from .sequences import Modulus, PeriodicSequence, _require_modulus

__all__ = ["SuiteReport", "SUITES", "run_suites"]

MAX_DETAILS = 20
EXHAUSTIVE_LIMIT = 1 << 13
SAMPLE_SIZE = 1000
# Most sequences the lc oracle checks as one block: a universe's
# complexities are read one window of this many lanes at a time, so that a
# block's values, answers and lists stay a few hundred KB.
_BM_BLOCK = 4096
# Largest universe the lc oracle sweeps whole: every sequence up to 2^16,
# all of 2^4, on the identity planes; above it the oracle samples.
_BM_EXHAUSTIVE = 1 << 16


@dataclass
class SuiteReport:
    name: str
    checks: int = 0
    failures: int = 0
    details: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def agreements(self) -> int:
        return self.checks - self.failures

    def record(self, passed: bool, detail: Callable[[], str]) -> None:
        """Count one check.  ``detail`` builds the failure's text; it is called
        only for a failure that is kept, the first MAX_DETAILS of a suite, so a
        passing check formats nothing."""
        self.checks += 1
        if not passed:
            self.failures += 1
            if len(self.details) < MAX_DETAILS:
                self.details.append(detail())

    def __str__(self) -> str:
        return f"{self.name}: {self.agreements}/{self.checks} agree"


def _values(modulus: Modulus, rng: random.Random) -> Iterator[int]:
    """All nonzero sequence values when that fits, a seeded sample otherwise."""
    top = 1 << modulus.period
    if top <= EXHAUSTIVE_LIMIT:
        return iter(range(1, top))
    return (rng.randrange(1, top) for _ in range(SAMPLE_SIZE))


def _universe(modulus: Modulus, rng: random.Random) -> Iterable[PeriodicSequence]:
    return (PeriodicSequence(modulus, v) for v in _values(modulus, rng))


def _moduli(override: Modulus | None, default: list[Modulus]) -> list[Modulus]:
    return [override] if override is not None else default


def _odd_p_answers(mod: Modulus, v: int) -> tuple[int, int, int]:
    """``lc``, and ``xwli_lc``'s value and trace total, of one sequence built
    once and kept alive only for the two calls."""
    s = PeriodicSequence(mod, v)
    form, trace = xwli_lc(s)
    return lc(s), form.value, trace.total


def _suite_lc_oracle(modulus: Modulus | None, rng: random.Random, cap: int) -> SuiteReport:
    """``lc`` at every p, and ``xwli_lc``'s value and trace total at odd p,
    against Berlekamp-Massey (at p = 2, ``lc`` is the Games-Chan halving).

    The oracle runs bit-sliced, one call per universe (``_oracle_blocks``),
    and each block's engine answers are compared with its complexities as
    one list: at odd p a sequence's answer is its ``lc`` when all three
    engine values agree, else None.  The zero sequence is lane 0 of every
    universe, checked like any other.  An agreeing block adds its checks at
    once; only a disagreeing block is walked, recording one check per
    sequence in universe order."""
    rep = SuiteReport("lc-oracle")
    defaults = [
        Modulus(3, 1), Modulus(3, 2), Modulus(5, 1), Modulus(3, 3), Modulus(5, 2),
        Modulus(2, 1), Modulus(2, 2), Modulus(2, 3), Modulus(2, 4), Modulus(2, 5),
    ]
    for mod in _moduli(modulus, defaults):
        for block, bms in _oracle_blocks(mod, rng):
            if mod.p == 2:
                got = answers = list(map(lc, map(PeriodicSequence, repeat(mod), block)))
            else:
                answers = list(map(_odd_p_answers, repeat(mod), block))
                got = [a if a == value == total else None for a, value, total in answers]
            if got == bms:
                rep.checks += len(block)
                continue
            for v, ans, b in zip(block, answers, bms):
                s = PeriodicSequence(mod, v)
                if mod.p == 2:
                    rep.record(ans == b, lambda: f"{mod} s={s.to01()}: lc {ans} != bm {b}")
                else:
                    a, value, total = ans
                    rep.record(
                        a == value == total == b,
                        lambda: f"{mod} s={s.to01()}: lc {a}, xwli_lc {value}, "
                        f"trace {total} != bm {b}",
                    )
    return rep


def _oracle_blocks(mod: Modulus, rng: random.Random) -> Iterator[tuple[Sequence[int], list[int]]]:
    """The values of lc-oracle's universe of mod, zero first, _BM_BLOCK at
    a time, each block with its Berlekamp-Massey complexities.

    The universe runs through one ``_bm_planes`` call, computed afresh on
    each call: on the identity planes, lane v holding sequence v, when it
    is exhaustive, and otherwise on the number of zero and its seeded
    sample, in that order.  Each block then reads its window of lanes of
    the complexities, shifted down to lane 0."""
    N = mod.period
    if 1 << N > _BM_EXHAUSTIVE:
        values = [0, *_values(mod, rng)]
        planes = number(values, N)
    else:
        values = range(1 << N)
        planes = identity(N)
    W = len(values)
    bms = _bm_planes(planes, N, W)
    for lo in range(0, W, _BM_BLOCK):
        hi = min(lo + _BM_BLOCK, W)
        window = (1 << hi - lo) - 1
        yield values[lo:hi], read([plane >> lo & window for plane in bms], hi - lo)


def _suite_mcrit(modulus: Modulus | None, rng: random.Random, cap: int) -> SuiteReport:
    """Closed-form critical points against exhaustive error enumeration.

    One check per sequence.  The closed-form first critical point is compared
    with the brute-force one for every sequence; a mismatch is a genuine
    counterexample to the leading-part reduction and is reported, not hidden.
    The witness complexity and the whole critical-point list are additionally
    required to match on hypercubes, the only class where the closed form
    claims them exactly.  There one celcs call per mode gives all three: the
    first critical point (m, L_after) is the list's second entry.
    """
    rep = SuiteReport("mcrit-exhaustive")
    defaults = [Modulus(3, 2), Modulus(5, 1), Modulus(3, 1)]
    for mod in _moduli(modulus, defaults):
        for s in _universe(mod, rng):
            problems = []
            if is_hypercube(s):
                a = celcs(s, mode="formula")
                b = celcs(s, mode="brute", cap=cap)
                if a[1].k != b[1].k:
                    problems.append(f"m {a[1].k} != {b[1].k}")
                if a[1].L != b[1].L:
                    problems.append(f"L_after {a[1].L} != {b[1].L}")
                if a != b:
                    problems.append(f"celcs {a} != {b}")
            else:
                got = first_critical_m(s).m_s
                want = _first_drop(s, cap).k
                if got != want:
                    problems.append(f"m {got} != {want}")
            rep.record(not problems, lambda: f"{mod} s={s.to01()}: {'; '.join(problems)}")
    return rep


def _suite_counting(modulus: Modulus | None, rng: random.Random, cap: int) -> SuiteReport:
    """Counting formulas against exhaustive tallies and constructive enumeration.

    The per-complexity counts are checked for odd p only.  Each exhaustive
    universe is read by ``_tallies``, one pass over it per tally.
    """
    rep = SuiteReport("counting")
    defaults = [Modulus(3, 1), Modulus(3, 2), Modulus(5, 1), Modulus(2, 2), Modulus(2, 3)]
    for mod in _moduli(modulus, defaults):
        lcs, classes = _tallies(mod) if (1 << mod.period) <= EXHAUSTIVE_LIMIT else (None, None)
        if mod.p != 2:
            _count_lc_checks(rep, mod, lcs)
        _count_class_checks(rep, mod, classes)
    return rep


def _tallies(mod: Modulus) -> tuple[dict[int, int] | None, dict[tuple, int]]:
    """How many sequences of a universe have each complexity (odd p only,
    else None) and how many nonzero ones lie in each counted class."""
    values = range(1, 1 << mod.period)
    lcs = None
    if mod.p != 2:
        lcs = Counter(map(lc, map(PeriodicSequence, repeat(mod), values)))
        lcs[0] += 1
    classes = Counter(filter(None, map(_class_key, values, repeat(mod))))
    return lcs, classes


def _count_lc_checks(rep: SuiteReport, mod: Modulus, tally: dict[int, int] | None) -> None:
    p, n, N = mod.p, mod.n, mod.period
    total = 0
    for eps, bits in product((0, 1), product((0, 1), repeat=n)):
        L = LCForm(p, eps, frozenset(v for v, bit in enumerate(bits, 1) if bit)).value
        c = count_sequences_with_lc(mod, L).value
        total += c
        if tally is not None:
            rep.record(
                tally.get(L, 0) == c,
                lambda: f"{mod} L={L}: tally {tally.get(L, 0)} formula {c}",
            )
    rep.record(total == 1 << N, lambda: f"{mod}: complexity counts sum to {total} != 2^{N}")


def _count_class_checks(rep: SuiteReport, mod: Modulus, tally: dict[tuple, int] | None) -> None:
    for edges, l in _classes(mod):
        count = count_hypercubes(mod, edges, l).value
        if count > 10**5:
            continue
        members = enumerate_hypercubes(mod, edges, l)
        scanned = "n/a" if tally is None else tally.get((edges, l), 0)
        good = len(members) == count and (tally is None or scanned == count)
        good = good and all(_class_key(s.value, mod) == (edges, l) for s in members)
        L = class_lc(mod, edges, l)
        wrong = next((x for x in map(lc, members) if x != L), None)
        rep.record(
            good and wrong is None,
            lambda: f"{mod} edges={edges} l={l}: formula {count}, enumerated "
            f"{len(members)}, scanned {scanned}"
            + ("" if wrong is None else f", L {wrong} != {L}"),
        )


def _suite_decomposition(modulus: Modulus | None, rng: random.Random, cap: int) -> SuiteReport:
    """Decomposition invariants: hypercube parts, XOR reconstruction, descent."""
    rep = SuiteReport("decomposition")
    defaults = [Modulus(3, 2), Modulus(3, 3), Modulus(5, 2), Modulus(11, 1)]
    for mod in _moduli(modulus, defaults):
        for s in _universe(mod, rng):
            dec = standard_decompose(s)
            problems = []
            acc = 0
            for part in dec.parts:
                if not is_hypercube(part):
                    problems.append(f"part {part.to01()} is not a hypercube")
                acc ^= part.value
            if acc != s.value:
                problems.append("parts do not XOR back to s")
            c = dec.complexities
            if any(map(le, c, c[1:])):
                problems.append(f"complexities not strictly decreasing: {c}")
            if dec.complexities[0] != lc(s):
                problems.append(f"leading part L {dec.complexities[0]} != L(s) {lc(s)}")
            del dec  # one row's parts at a time: at 2^20 they take about 1.45 GB
            rep.record(not problems, lambda: f"{mod} s={s.to01()}: {'; '.join(problems)}")
    return rep


def _suite_bounds(modulus: Modulus | None, rng: random.Random, cap: int) -> SuiteReport:
    """Exact p=2 first drop, and the odd-p upper bound, against brute force."""
    rep = SuiteReport("bounds")
    defaults = [
        Modulus(2, 1), Modulus(2, 2), Modulus(2, 3), Modulus(2, 4),
        Modulus(3, 2), Modulus(5, 1),
    ]
    for mod in _moduli(modulus, defaults):
        universe = _universe(mod, rng)
        if mod.p == 2 and mod.period > 8:
            universe = islice(universe, 60)  # worst cases sweep 2^N patterns
        for s in universe:
            m = _first_drop(s, cap).k
            if mod.p == 2:
                got = kurosawa_m(s)
                rep.record(got == m, lambda: f"{mod} s={s.to01()}: formula {got} brute {m}")
            else:
                bound = meidl_upper_bound(s)
                rep.record(m <= bound, lambda: f"{mod} s={s.to01()}: m={m} exceeds bound {bound}")
    return rep


def _suite_stability(modulus: Modulus | None, rng: random.Random, cap: int) -> SuiteReport:
    """Constructed stable sequences keep their complexity through k errors.

    One brute-force first critical point per sequence checks what
    ``construct-stable`` prints: the complexity first drops at exactly
    weight(s) errors, so it holds through weight(s) - 1 >= k.
    """
    rep = SuiteReport("stability")
    defaults = [Modulus(3, 2), Modulus(2, 3), Modulus(5, 1), Modulus(2, 4)]
    for mod in _moduli(modulus, defaults):
        for k in range(min(mod.period, 8)):
            s = construct_stable(mod, k)
            first_drop = s.weight
            L = lc(s)
            problems = []
            if L != mod.period - (first_drop - 1):
                problems.append(f"constructed complexity {L}")
            m = _first_drop(s, cap).k
            if m <= k:
                problems.append(f"complexity moves within {k} errors")
            if m != first_drop:
                problems.append(f"first drop at {m} errors, not {first_drop}")
            rep.record(not problems, lambda: f"{mod} k={k}: {'; '.join(problems)}")
    return rep


SUITES: dict[str, Callable[[Modulus | None, random.Random, int], SuiteReport]] = {
    "lc-oracle": _suite_lc_oracle,
    "mcrit-exhaustive": _suite_mcrit,
    "counting": _suite_counting,
    "decomposition": _suite_decomposition,
    "bounds": _suite_bounds,
    "stability": _suite_stability,
}


def run_suites(
    names: list[str] | None = None,
    modulus: Modulus | None = None,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
) -> list[SuiteReport]:
    """Run the named suites (all by default), each with its own seeded stream.

    With a modulus the sweeps cover that universe alone; otherwise each suite
    uses its default mix of exhaustive small periods and sampled larger ones.
    """
    if modulus is not None:
        _require_modulus(modulus)
    if isinstance(names, str):
        raise KeyError(f"suite names must be a list, not the str {names!r}")
    if names is None:
        names = list(SUITES)
    unknown = [x for x in names if x not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {', '.join(unknown)}")
    return [SUITES[name](modulus, random.Random(seed), cap) for name in names]

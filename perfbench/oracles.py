"""Oracles for every output the timed runs produce.

They run after timing and avoid the timed code path: sequence text is read
with int(), linear complexity comes from Berlekamp-Massey (for long p = 2
records from Hasse derivatives, which is faster and as independent), and
k-error spectra at periods up to 13 come from a Hamming-ball minimum over a
table of Berlekamp-Massey complexities.  Each check returns a list of
problems; an empty list is a pass.
"""

from __future__ import annotations

import re

from seqcomplex import Modulus, PeriodicSequence, berlekamp_massey_lc, is_hypercube

BALL_MAX_PERIOD = 13
_FORM = re.compile(r"^(\d+) = ([01]) \+ \((\d+)-1\)\*\[([\d,]*)\]$")
_MCRIT_DETAIL = re.compile(r"^(\d+)\^(\d+) s=([01]+): m (\d+) != (\d+)$")


def text_value(text: str) -> int:
    """Packed value of a 0/1 literal whose first character is bit 0."""
    return int(text[::-1], 2)


def bm(mod: Modulus, value: int) -> int:
    return berlekamp_massey_lc(PeriodicSequence(mod, value))


def two_power_lc(value: int, n: int) -> int:
    """Linear complexity of a 2^n-periodic sequence from Hasse derivatives at 1.

    Over GF(2), x^N + 1 = (x + 1)^N for N = 2^n, so L = N - m, where m is the
    multiplicity of the root 1 of S(x): the least k whose Hasse derivative
    sum(C(i, k) s_i) is odd.  C(i, k) is odd iff the bits of k lie in i
    (Lucas), so the derivatives are a superset-XOR transform of the bits.
    """
    N = 1 << n
    if value == 0:
        return 0
    full = (1 << N) - 1
    for j in range(n):
        step = 1 << j
        low = ((1 << step) - 1) * (full // ((1 << (2 * step)) - 1))  # positions without bit j
        value ^= (value >> step) & low
    return N - ((value & -value).bit_length() - 1)


def attainable(mod: Modulus) -> set[int]:
    """Every linear complexity a sequence of this period can have."""
    p, n = mod.p, mod.n
    if p == 2:
        return set(range(mod.period + 1))
    out = set()
    for mask in range(1 << n):
        base = (p - 1) * sum(p**u for u in range(n) if mask >> u & 1)
        out.update((base, base + 1))
    return out


def check_form(form: str, L: int, mod: Modulus) -> list[str]:
    """The canonical-form text eps + (p-1)*[V] must add up to L."""
    m = _FORM.match(form)
    if not m:
        return [f"unreadable canonical form {form!r}"]
    value, eps, p = int(m[1]), int(m[2]), int(m[3])
    vs = [int(x) for x in m[4].split(",") if x]
    if p != mod.p or value != L or len(set(vs)) != len(vs) or any(not 1 <= v <= mod.n for v in vs):
        return [f"canonical form {form!r} does not describe L={L}"]
    if eps + (p - 1) * sum(p ** (v - 1) for v in vs) != L:
        return [f"canonical form {form!r} sums to the wrong value"]
    return []


# -- descent-large ---------------------------------------------------------------

def check_descent(mod: Modulus, line: str, out: str, cube: tuple | None) -> list[str]:
    """One descent record.  cube is the generator's (edges,) for a planted p = 2 cube."""
    v = text_value(line)
    fields = out.split("|")
    L = int(fields[0])
    N = mod.period
    if mod.p == 2:
        got_cube, echo = fields[1], fields[2]
        problems = [] if echo == line else ["echoed text differs from the input"]
        if cube is None:
            if v.bit_count() & (v.bit_count() - 1) == 0:
                return problems + ["dense record has a power-of-two weight"]
            if L != two_power_lc(v, mod.n):
                problems.append(f"L={L} but the Hasse-derivative oracle gives {two_power_lc(v, mod.n)}")
            if got_cube != "not-a-cube":
                problems.append(f"{got_cube} for a weight that is not a power of two")
            return problems
        edges = cube[0]
        want_L = N - sum(1 << e for e in edges)
        want = f"cube:{len(edges)}:{','.join(map(str, edges))}:{want_L}"
        if L != want_L:
            problems.append(f"L={L}, planted cube has L={want_L}")
        if got_cube != want:
            problems.append(f"{got_cube}, planted {want}")
        return problems
    problems = []
    want_L = bm(mod, v)
    if L != want_L:
        problems.append(f"L={L} but Berlekamp-Massey gives {want_L}")
    problems += check_form(fields[1], L, mod)
    problems += check_parts(mod, v, want_L, fields[2:])
    return problems


def check_parts(mod: Modulus, value: int, want_L: int, fields: list[str]) -> list[str]:
    """Decomposition parts "L:text": XOR back to value, hypercubes, strictly decreasing L."""
    if not fields:
        return ["no decomposition parts"]
    problems = []
    acc = 0
    complexities = []
    for field in fields:
        L, _, text = field.partition(":")
        if len(text) != mod.period or set(text) - {"0", "1"}:
            problems.append("part text is not one period of 0/1")
            continue
        part = text_value(text)
        acc ^= part
        complexities.append(int(L))
        if part == 0 or not is_hypercube(PeriodicSequence(mod, part)):
            problems.append(f"part with L={L} is not a hypercube")
    if acc != value:
        problems.append("parts do not XOR back to the input")
    if complexities[:1] != [want_L]:
        problems.append(f"leading part L={complexities[:1]} but Berlekamp-Massey gives {want_L}")
    if any(a <= b for a, b in zip(complexities, complexities[1:])):
        problems.append(f"part complexities not strictly decreasing: {complexities}")
    return problems


# -- kerror-small ------------------------------------------------------------------

class HammingBall:
    """min L(s ^ e) over wt(e) <= k, for every s of one small period, by levels of k.

    Level 0 is a Berlekamp-Massey table; level k takes the minimum of level
    k-1 over each sequence and its single-bit neighbours.
    """

    def __init__(self, mod: Modulus) -> None:
        if mod.period > BALL_MAX_PERIOD:
            raise ValueError(f"period {mod.period} is above {BALL_MAX_PERIOD}")
        self.mod = mod
        self.levels = [[bm(mod, v) for v in range(1 << mod.period)]]

    def spectrum(self, value: int, kmax: int) -> list[int]:
        """[L_0, ..., L_kmax] of the sequence with this packed value."""
        bits = [1 << i for i in range(self.mod.period)]
        while len(self.levels) <= kmax:
            prev = self.levels[-1]
            self.levels.append(
                [min(prev[v], min(prev[v ^ b] for b in bits)) for v in range(len(prev))]
            )
        return [level[value] for level in self.levels[: kmax + 1]]


def critical_points(spectrum: list[int]) -> list[tuple[int, int]]:
    points = [(0, spectrum[0])]
    for k, L in enumerate(spectrum):
        if L < points[-1][1]:
            points.append((k, L))
    return points


def parse_points(text: str) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in pt.split(":")) for pt in text.split(",")]


def check_kerror(mod: Modulus, line: str, out: str, ball: HammingBall | None) -> list[str]:
    """One kerror record: "points|L_2|formula m|bound|brute m,L_m,m1"."""
    v = text_value(line)
    w = v.bit_count()
    f_points, f_l2, f_m, f_bound, f_brute = out.split("|")
    points = parse_points(f_points)
    l2 = int(f_l2)
    form_m = int(f_m)
    m, L_after, m1 = (None if x == "None" else int(x) for x in f_brute.split(","))
    problems = []
    if ball is not None:
        spectrum = ball.spectrum(v, w)
        if points != critical_points(spectrum):
            problems.append(f"points {points} but the Hamming ball gives {critical_points(spectrum)}")
        if l2 != spectrum[min(2, w)]:
            problems.append(f"L_2={l2} but the Hamming ball gives {spectrum[min(2, w)]}")
    else:
        if points[0] != (0, bm(mod, v)):
            problems.append(f"spectrum starts at {points[0]}, Berlekamp-Massey gives L={bm(mod, v)}")
        if any(a[0] >= b[0] or a[1] <= b[1] for a, b in zip(points, points[1:])):
            problems.append(f"spectrum {points} is not strictly decreasing")
        if points[-1] != (w, 0):
            problems.append(f"spectrum ends at {points[-1]}, not ({w}, 0)")
        reachable = attainable(mod)
        if any(L not in reachable for _, L in points):
            problems.append(f"spectrum {points} holds an unattainable complexity")
        if l2 != [L for k, L in points if k <= 2][-1]:
            problems.append(f"L_2={l2} disagrees with the spectrum {points}")
    if len(points) < 2 or (m, L_after) != points[1]:
        problems.append(f"brute first drop ({m}, {L_after}) disagrees with the spectrum {points}")
    elif m1 != (points[2][0] if L_after else None):
        problems.append(f"brute second critical point {m1} disagrees with the spectrum {points}")
    if mod.p == 2:
        if form_m != m:
            problems.append(f"kurosawa_m={form_m} but brute force gives {m}")
    else:
        if m is not None and form_m < m:
            problems.append(f"closed-form m={form_m} is below brute-force m={m}")
        if m is not None and int(f_bound) < m:
            problems.append(f"meidl bound {f_bound} is below brute-force m={m}")
    return problems


# -- verify-sweep ---------------------------------------------------------------------

# (suite, modulus or None) -> (checks, failures).  The counts do not depend on
# the seed: sampled universes always hold the same number of sequences.
VERIFY_EXPECTED = {
    ("lc-oracle", None): (69367, 0),
    ("mcrit-exhaustive", None): (549, 36),
    ("counting", None): (44, 0),
    ("decomposition", None): (4558, 0),
    ("bounds", None): (875, 0),
    ("stability", None): (29, 0),
}


def check_verify(key: tuple, checks: int, failures: int, details: list[str], ball9: HammingBall) -> int:
    """Checks of one suite report whose outcome is unexpected.

    The closed-form first critical point is only an upper bound for sums of
    hypercubes, so mcrit-exhaustive keeps its 36 counterexamples; each one shown
    must be a closed-form m above the true m, and that true m is recomputed here.
    """
    want_checks, want_failures = VERIFY_EXPECTED[key]
    if checks != want_checks:
        return max(checks, 1)
    bad = abs(failures - want_failures)
    for detail in details:
        m = _MCRIT_DETAIL.match(detail)
        if key[0] != "mcrit-exhaustive" or not m or (int(m[1]), int(m[2])) != (3, 2):
            bad += 1
            continue
        spectrum = ball9.spectrum(text_value(m[3]), 9)
        true_m = critical_points(spectrum)[1][0]
        if int(m[5]) != true_m or int(m[4]) <= true_m:
            bad += 1
    return bad


# -- cli-corpus -------------------------------------------------------------------------

def lc_record(mod: Modulus, line: str, L: int, form: str, weight: int) -> list[str]:
    """One in-process lc record, as the CLI would print it."""
    v = text_value(line)
    problems = check_form(form, L, mod)
    if L != bm(mod, v):
        problems.append(f"L={L} but Berlekamp-Massey gives {bm(mod, v)}")
    if weight != v.bit_count():
        problems.append(f"weight {weight} but the text has {v.bit_count()} ones")
    return problems

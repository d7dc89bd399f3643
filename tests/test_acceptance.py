"""Acceptance gate: one check per release criterion, one printed verdict each.

Every test prints a single [PASS]/[FAIL] line so a plain pytest run shows
the whole table at a glance. A FAIL here is a faithful report that a
closed form disagrees with brute force on a concrete instance; the
counterexamples print directly beneath the verdict line.
"""

import random
import time
from itertools import combinations

from helpers import exhaustive_min_change, pn_distance, random_tuple_vertex, seq, vertex_sequence
from seqcomplex import (
    Modulus,
    PeriodicSequence,
    berlekamp_massey_lc,
    construct_stable,
    count_hypercubes,
    count_sequences_with_lc,
    enumerate_hypercubes,
    extract_structure,
    first_critical_bruteforce,
    first_critical_m,
    is_hypercube,
    k_error_lc_bruteforce,
    kurosawa_m,
    lc,
    lc_from_structure,
    meidl_upper_bound,
    next_lower_hypercube_lc,
    standard_decompose,
    xwli_lc,
)
from seqcomplex.errors import NoEligibleExponent, NotRepresentable

MOD9 = Modulus(3, 2)
MOD27 = Modulus(3, 3)
MOD25 = Modulus(5, 2)


def _verdict(capsys, cid, ok, detail, extras=()):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
        for line in extras:
            print(f"    {line}")
    assert ok, f"{cid}: {detail}"


def test_c1_reference_complexities(capsys):
    cases = [
        (MOD9, "100100100", 3),
        (MOD9, "010000000", 9),
        (MOD9, "110100100", 8),
        (MOD9, "110000000", 8),
        (MOD9, "010100100", 9),
        (MOD9, "111000000", 7),
        (MOD9, "000111111", 6),
        (MOD9, "111111111", 1),
        (MOD27, "110110110" * 3, 2),
        (MOD27, "000100100" * 3, 6),
    ]
    bad = []
    for mod, text, want in cases:
        got = lc(seq(mod, text))
        if got != want:
            bad.append(f"L({text}) = {got}, want {want}")
    # the three sums above really are XORs of the listed pairs
    pairs = [
        ("100100100", "010000000", "110100100"),
        ("100100100", "110000000", "010100100"),
        ("111000000", "000111111", "111111111"),
    ]
    for a, b, want in pairs:
        got = (seq(MOD9, a) ^ seq(MOD9, b)).to01()
        if got != want:
            bad.append(f"{a} xor {b} = {got}, want {want}")
    _verdict(capsys, "C1 reference complexities", not bad,
             f"{len(cases)} pinned values, {len(pairs)} xor identities", bad)


def test_c2_decomposition_reference(capsys):
    s = seq(MOD27, "110100100" * 3)
    dec = standard_decompose(s)
    recon = PeriodicSequence.zeros(MOD27)
    for part in dec.parts:
        recon = recon ^ part
    bad = []
    if dec.complexities != (8, 6):
        bad.append(f"part complexities {dec.complexities}, want (8, 6)")
    if recon != s:
        bad.append("parts do not xor back to the input")
    if lc(dec.parts[0]) != 8 or lc(s) != 8:
        bad.append("leading part does not carry the full complexity")
    _verdict(capsys, "C2 decomposition reference", not bad,
             "parts L=8,6 reconstruct the input; leading part carries L=8", bad)


def test_c3_critical_points(capsys):
    checks = [
        ("m of the repeated pair", first_critical_m(seq(MOD27, "110000000" * 3)).m_s, 3),
        ("m of the weight-4 vertex", first_critical_m(seq(MOD25, "11110" * 5)).m_s, 5),
        ("m of the length-1 vertex", first_critical_m(seq(MOD27, "000100100" * 3)).m_s, 3),
        ("m of the two-part sum",
         first_critical_m(seq(MOD27, "110000000" + "111000000" * 2)).m_s, 1),
        ("m1 of the two-part sum",
         first_critical_bruteforce(seq(MOD27, "110000000" + "111000000" * 2)).m1_s, 8),
        ("general bound at p=5", meidl_upper_bound(seq(MOD25, "11110" * 5)), 10),
        ("general bound at p=3", meidl_upper_bound(seq(MOD27, "000100100" * 3)), 9),
    ]
    bad = [f"{name}: {got}, want {want}" for name, got, want in checks if got != want]
    if not (10 > 5 and 9 > 3):
        bad.append("general bound not strictly above the exact value")
    _verdict(capsys, "C3 critical points", not bad,
             "m = 3, 5, 3, 1 (m1 = 8); bounds 10 > 5 and 9 > 3", bad)


def test_c4_exhaustive_oracle_equivalence_period9(capsys):
    started = time.monotonic()
    lc_agree = bound_ok = m_agree = 0
    mismatches = []
    for v in range(512):
        s = PeriodicSequence(MOD9, v)
        if lc(s) == berlekamp_massey_lc(s):
            lc_agree += 1
        if v == 0:
            continue
        form = first_critical_m(s)
        if form.m_s <= meidl_upper_bound(s):
            bound_ok += 1
        if form.m_s == first_critical_bruteforce(s).m_s:
            m_agree += 1
        else:
            mismatches.append(s.to01())
    elapsed = time.monotonic() - started
    ok = (lc_agree == 512 and bound_ok == 511 and m_agree == 511
          and elapsed < 120)
    detail = (f"engines {lc_agree}/512, bound holds {bound_ok}/511, "
              f"closed-form m exact {m_agree}/511, {elapsed:.1f}s")
    _verdict(capsys, "C4 exhaustive oracle equivalence", ok, detail,
             [f"counterexample: {t}" for t in mismatches])


def test_c5_counting_identities(capsys):
    bad = []
    # the 27-member element class: formula, enumeration, and the family of
    # weight-3 sequences whose positions are pairwise at distance 1
    members = set(enumerate_hypercubes(MOD9, (0,)))
    family = {
        PeriodicSequence(MOD9, (1 << i) | (1 << j) | (1 << k))
        for i, j, k in combinations(range(9), 3)
        if pn_distance(i, j, 3)
        == pn_distance(i, k, 3)
        == pn_distance(j, k, 3)
        == 1
    }
    if not (count_hypercubes(MOD9, (0,)).value == 27 == len(members)
            and members == family):
        bad.append("distance-1 triple family does not match the counted class")
    # its weight-2 sibling: bare tuple vertices are the distance-1 pairs
    pairs = {
        PeriodicSequence(MOD9, (1 << i) | (1 << j))
        for i, j in combinations(range(9), 2)
        if pn_distance(i, j, 3) == 1
    }
    if set(enumerate_hypercubes(MOD9, (), l=2)) != pairs:
        bad.append("distance-1 pair family does not match the vertex class")
    # formula = enumeration for every feasible class at period 9
    for edges, l in [((), None), ((0,), None), ((1,), None), ((0, 1), None),
                     ((), 2), ((1,), 2)]:
        if count_hypercubes(MOD9, edges, l).value != len(
            enumerate_hypercubes(MOD9, edges, l)
        ):
            bad.append(f"hypercube class edges={edges} l={l}")
    # p = 2 cube counting at periods 4 and 8
    for mod in [Modulus(2, 2), Modulus(2, 3)]:
        for r in range(mod.n + 1):
            for es in combinations(range(mod.n), r):
                if count_hypercubes(mod, es).value != len(enumerate_hypercubes(mod, es)):
                    bad.append(f"cube class {mod} edges={es}")
    # per-complexity counts cover the whole space
    nonzero = 0
    for L in range(1, 10):
        try:
            nonzero += count_sequences_with_lc(MOD9, L).value
        except NotRepresentable:
            pass
    if nonzero != 511 or count_sequences_with_lc(MOD9, 0).value != 1:
        bad.append(f"complexity counts total {nonzero} + zero, want 511 + 1")
    _verdict(capsys, "C5 counting identities", not bad,
             "both 27-member families match; formula = enumeration everywhere; "
             "totals cover 2^9", bad)


def test_c6_stability_construction(capsys):
    s = construct_stable(MOD9, 2)
    profile = [k_error_lc_bruteforce(s, k) for k in range(4)]
    best = max(k_error_lc_bruteforce(PeriodicSequence(MOD9, v), 2) for v in range(512))
    bad = []
    if s.to01() != "111000000":
        bad.append(f"constructed {s.to01()}, want 111000000")
    if profile[:3] != [7, 7, 7] or profile[3] >= 7:
        bad.append(f"profile {profile}, want [7, 7, 7, <7]")
    if best != 7:
        bad.append(f"max L_2 over all 512 sequences is {best}, want 7")
    _verdict(capsys, "C6 stability construction", not bad,
             "L = L_1 = L_2 = 7 holds and is the exhaustive maximum", bad)


def test_c7_even_base_specialization(capsys):
    mod8 = Modulus(2, 3)
    universe = [PeriodicSequence(mod8, v) for v in range(1, 256)]
    brute = [first_critical_bruteforce(s).m_s for s in universe]
    m_agree = sum(kurosawa_m(s) == m for s, m in zip(universe, brute))
    closed_agree = sum(first_critical_m(s).m_s == m for s, m in zip(universe, brute))
    lc_agree = sum(
        lc(PeriodicSequence(mod8, v))
        == berlekamp_massey_lc(PeriodicSequence(mod8, v))
        for v in range(256)
    )
    ok = m_agree == 255 and closed_agree == 255 and lc_agree == 256
    _verdict(capsys, "C7 even-base specialization", ok,
             f"first critical m {m_agree}/255, closed-form m {closed_agree}/255, "
             f"engines {lc_agree}/256")


def test_c8_property_suites(capsys):
    rng = random.Random(2026)
    violations = []
    randomized = 0

    # k-error profile is monotone and starts at L
    for _ in range(2500):
        s = PeriodicSequence(MOD27, rng.randrange(1, 1 << 27))
        randomized += 1
        prev = lc(s)
        if k_error_lc_bruteforce(s, 0) != prev:
            violations.append(f"L_0 != L for {s.to01()}")
        for k in (1, 2):
            cur = k_error_lc_bruteforce(s, k)
            if cur > prev:
                violations.append(f"profile rises at k={k} for {s.to01()}")
            prev = cur

    # decomposition invariants
    for _ in range(3500):
        s = PeriodicSequence(MOD27, rng.randrange(1, 1 << 27))
        randomized += 1
        dec = standard_decompose(s)
        recon = PeriodicSequence.zeros(MOD27)
        for part in dec.parts:
            recon = recon ^ part
        ok = (
            recon == s
            and dec.complexities[0] == lc(s)
            and all(a > b for a, b in zip(dec.complexities, dec.complexities[1:]))
            and all(is_hypercube(p) for p in dec.parts)
            and all(lc(p) == L for p, L in zip(dec.parts, dec.complexities))
        )
        if not ok:
            violations.append(f"decomposition invariants for {s.to01()}")

    # descent trace sums to the complexity; each sum step dominates the rest
    for _ in range(4100):
        s = PeriodicSequence(MOD27, rng.randrange(1, 1 << 27))
        randomized += 1
        form, trace = xwli_lc(s)
        if not (trace.total == form.value == berlekamp_massey_lc(s)):
            violations.append(f"trace total for {s.to01()}")
        incs = [step.increment for step in trace.steps]
        for i, step in enumerate(trace.steps):
            if step.branch == "sum" and not (
                step.increment > sum(incs[i + 1:]) + trace.final_one
            ):
                violations.append(f"sum-step dominance for {s.to01()}")

    # next-lower complexity is maximal over same-class edge refinements
    structs = [
        extract_structure(PeriodicSequence(MOD9, v))
        for v in range(1, 512)
        if is_hypercube(PeriodicSequence(MOD9, v))
    ]
    classes: dict = {}
    for st in structs:
        key = (st.vertex.q, st.vertex.l)
        classes.setdefault(key, []).append(st)
    eligible = 0
    for st in structs:
        try:
            lower = next_lower_hypercube_lc(st, MOD9)
        except NoEligibleExponent:
            continue
        eligible += 1
        fam = classes[(st.vertex.q, st.vertex.l)]
        refinements = [
            lc_from_structure(g, MOD9)
            for g in fam
            if set(g.edges) > set(st.edges)
        ]
        if not refinements or max(refinements) != lower:
            violations.append(f"refinement maximality for {st}")
    if eligible == 0:
        violations.append("refinement sweep found nothing eligible")

    # closed-form vertex change cost vs exhaustive search
    for _ in range(1200):
        v = random_tuple_vertex(rng, 3, rng.choice((1, 2)))
        if first_critical_m(vertex_sequence(v)).vertex_j != exhaustive_min_change(v):
            violations.append(f"vertex change cost for {v}")

    detail = (f"{randomized} randomized period-27 instances, "
              f"{eligible} exhaustive period-9 structures, 1200 random vertices, "
              f"{len(violations)} violations")
    _verdict(capsys, "C8 property suites", not violations, detail, violations[:20])

"""Cross-check suites.

golden/run_suites.txt pins the default ``run_suites()`` reports at seeds 0
and 7: each suite's name, checks, failures and every kept detail.  After a
deliberate change to them, regenerate it from the repository root with

    PYTHONPATH=src python tests/test_verify.py > tests/golden/run_suites.txt
"""

import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from seqcomplex import (
    SUITES, CelcsPoint, Decomposition, Modulus, PeriodicSequence, SuiteReport, counting,
    kerror, lc, parse_sequence, run_suites, verify,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "run_suites.txt"
GOLDEN_SEEDS = (0, 7)


def render_reports() -> str:
    lines = []
    for seed in GOLDEN_SEEDS:
        for rep in run_suites(seed=seed):
            lines.append(f"seed={seed} {rep.name} checks={rep.checks} failures={rep.failures}")
            lines += (f"  {d}" for d in rep.details)
    return "\n".join(lines) + "\n"


def test_default_reports_match_golden():
    assert render_reports() == GOLDEN.read_text()


def test_suite_names_are_stable():
    assert set(SUITES) == {
        "lc-oracle",
        "mcrit-exhaustive",
        "counting",
        "decomposition",
        "bounds",
        "stability",
    }


def test_lc_oracle_all_agree_9():
    (rep,) = run_suites(["lc-oracle"], Modulus(3, 2))
    assert rep.failures == 0
    assert rep.checks >= 512


def test_mcrit_disagreement_census_9():
    """The closed-form first critical point overshoots on exactly 36 of the
    511 nonzero period-9 sequences, all of them sums of several hypercubes.
    This census is the regression pin for that fact."""
    (rep,) = run_suites(["mcrit-exhaustive"], Modulus(3, 2))
    assert rep.checks == 511
    assert rep.failures == 36
    assert all("m 3 != " in d for d in rep.details)  # formula overshoots to 3
    assert len(rep.details) == 20  # detail log is capped


def test_mcrit_clean_at_small_moduli():
    for mod in [Modulus(3, 1), Modulus(5, 1)]:
        (rep,) = run_suites(["mcrit-exhaustive"], mod)
        assert rep.failures == 0, mod


def test_remaining_suites_clean_9():
    reports = run_suites(
        ["counting", "decomposition", "bounds", "stability"], Modulus(3, 2)
    )
    assert [r.failures for r in reports] == [0, 0, 0, 0]
    assert all(r.checks > 0 for r in reports)


def test_stability_pinned_to_period_25_scans_every_class():
    """construct_stable(5^2, k) fills the whole period for k >= 5, so its first
    drop is read after scanning all 2^25 error patterns."""
    (rep,) = run_suites(["stability"], Modulus(5, 2))
    assert (rep.checks, rep.failures) == (8, 0)


def test_mcrit_pinned_to_period_32_agrees_on_its_sample():
    (rep,) = run_suites(["mcrit-exhaustive"], Modulus(2, 5))
    assert (rep.checks, rep.failures) == (1000, 0)


def test_decomposition_checks_p2():
    (rep,) = run_suites(["decomposition"], Modulus(2, 3))
    assert (rep.checks, rep.failures, rep.details) == (255, 0, [])
    assert str(rep) == "decomposition: 255/255 agree"


def test_sampled_runs_are_seed_deterministic():
    a = run_suites(["decomposition"], Modulus(3, 3), seed=7)
    b = run_suites(["decomposition"], Modulus(3, 3), seed=7)
    assert [(r.checks, r.failures) for r in a] == [(r.checks, r.failures) for r in b]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"], Modulus(3, 2))


def test_report_formatting():
    rep = SuiteReport("demo", checks=10, failures=3, details=("a", "b"))
    assert str(rep) == "demo: 7/10 agree"


def test_counting_rechecks_every_cube_member(monkeypatch):
    """A non-cube planted first in each p = 2 class fails every class check."""
    grow = counting._grow
    non_cube = parse_sequence("0111", Modulus(2, 2)).value

    def planted(values, p, start, n, edges):
        grown = grow(values, p, start, n, edges)
        return [non_cube, *grown[1:]] if p == 2 else grown

    monkeypatch.setattr(counting, "_grow", planted)
    (rep,) = run_suites(["counting"], Modulus(2, 2))
    assert (rep.checks, rep.failures) == (4, 4)
    assert rep.details[0] == "2^2 edges=() l=None: formula 4, enumerated 4, scanned 4"


def test_counting_tally_comes_from_the_one_sweep(monkeypatch):
    """A class key that finds no class empties the swept tally: an exhaustive
    universe then scans 0 members per class, and a sampled one scans none."""
    monkeypatch.setattr(verify, "_class_key", lambda value, mod: None)
    (rep,) = run_suites(["counting"], Modulus(2, 2))
    assert (rep.checks, rep.failures) == (4, 4)
    assert rep.details[0] == "2^2 edges=() l=None: formula 4, enumerated 4, scanned 0"
    (rep,) = run_suites(["counting"], Modulus(2, 4))
    assert rep.checks == rep.failures
    assert rep.details[0] == "2^4 edges=() l=None: formula 16, enumerated 16, scanned n/a"


def test_lc_oracle_checks_lc_at_odd_p(monkeypatch):
    """lc is what `seqcomplex lc` prints, so the oracle checks it at odd p
    too, beside xwli_lc."""
    monkeypatch.setattr(verify, "lc", lambda s: lc(s) + 1)
    (rep,) = run_suites(["lc-oracle"], Modulus(3, 1))
    assert (rep.checks, rep.failures) == (8, 7)
    assert rep.details[0] == "3^1 s=100: lc 4, xwli_lc 3, trace 3 != bm 3"


def test_lc_oracle_fails_exactly_a_faulty_lane(monkeypatch):
    """A bit-sliced oracle off by one on one lane of the second block fails
    that sequence alone: lanes line up with the universe across blocks."""
    bm_values = verify._bm_values
    calls = []

    def faulty(values, N):
        out = bm_values(values, N)
        calls.append(len(values))
        if len(calls) == 2:
            out[7] += 1
        return out

    monkeypatch.setattr(verify, "_bm_values", faulty)
    mod = Modulus(2, 4)
    (rep,) = run_suites(["lc-oracle"], mod)
    assert calls == [verify._BM_BLOCK] * 15 + [verify._BM_BLOCK - 1]
    s = PeriodicSequence(mod, verify._BM_BLOCK + 8)
    assert (rep.checks, rep.failures) == (1 << 16, 1)
    assert rep.details == [f"2^4 s={s.to01()}: lc {lc(s)} != bm {lc(s) + 1}"]


def test_failure_details_are_exact_capped_and_lazy(monkeypatch):
    """Only a kept failure formats its detail: a sweep of 2^16 failing checks
    builds at most MAX_DETAILS sequence literals."""
    monkeypatch.setattr(verify, "lc", lambda s: lc(s) + 1)
    to01 = PeriodicSequence.to01
    calls = []

    def counted(self):
        calls.append(self.value)
        return to01(self)

    monkeypatch.setattr(PeriodicSequence, "to01", counted)
    (rep,) = run_suites(["lc-oracle"], Modulus(2, 4))
    assert (rep.checks, rep.failures) == (1 << 16, (1 << 16) - 1)
    assert rep.details[0] == "2^4 s=1000000000000000: lc 17 != bm 16"
    assert len(rep.details) == verify.MAX_DETAILS == 20
    assert len(calls) <= 20


def test_m_only_checks_run_no_second_critical_scan(monkeypatch):
    """bounds, stability and mcrit-exhaustive off hypercubes read only m(s):
    every class they scan is an exact minimum (below = 1), never an m1 scan."""
    class_min = kerror._class_min
    belows = []

    def recording(*args, below=1):
        belows.append(below)
        return class_min(*args, below=below)

    monkeypatch.setattr(kerror, "_class_min", recording)
    reports = run_suites(["bounds", "stability", "mcrit-exhaustive"], Modulus(3, 2))
    assert [rep.checks for rep in reports] == [511, 8, 511]
    assert belows and set(belows) == {1}


def test_decomposition_suite_and_is_hypercube_build_no_vertex(monkeypatch):
    """Checks that read only .ok, q, edges or the complexities never build a
    vertex: the decomposition, counting and mcrit-exhaustive suites,
    is_hypercube and first_critical_m.  extract_structure is the one builder."""
    from seqcomplex import hypercube

    built = []
    post_init = hypercube.VertexDescriptor.__post_init__

    def counted(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(hypercube.VertexDescriptor, "__post_init__", counted)
    mod = Modulus(3, 2)
    reports = run_suites(["decomposition", "counting", "mcrit-exhaustive"], mod)
    # the 36 are the leading-part counterexamples that C4 counts (475/511)
    assert [(rep.checks, rep.failures) for rep in reports] == [(511, 0), (15, 0), (511, 36)]
    seqs = [PeriodicSequence(mod, v) for v in range(1, 512)]
    assert sum(map(hypercube.is_hypercube, seqs)) > 0
    assert all(kerror.first_critical_m(s).m_s >= 1 for s in seqs)
    assert built == []
    hypercube.extract_structure(PeriodicSequence(mod, 0b11))
    assert built == [hypercube.VertexKind.TUPLE]


def test_lc_oracle_block_path_fails_the_odd_p_sequence_at_fault(monkeypatch):
    """At 3^2 the 511 sequences are one bit-sliced block; an xwli_lc wrong
    on one sequence mid-block fails that sequence alone, with the four-way
    detail text."""
    xwli_lc = verify.xwli_lc
    mod = Modulus(3, 2)
    bad = PeriodicSequence(mod, 300)

    def faulty(s):
        form, trace = xwli_lc(s)
        if s == bad:
            return SimpleNamespace(value=form.value + 1), trace
        return form, trace

    monkeypatch.setattr(verify, "xwli_lc", faulty)
    (rep,) = run_suites(["lc-oracle"], mod)
    L = lc(bad)
    assert (rep.checks, rep.failures) == (512, 1)
    assert rep.details == [f"3^2 s={bad.to01()}: lc {L}, xwli_lc {L + 1}, trace {L} != bm {L}"]


def test_lc_oracle_block_path_fails_the_p2_sequence_at_fault(monkeypatch):
    """An lc wrong on one sequence of the third block at 2^4 fails exactly
    that sequence: the walk of a disagreeing block keeps universe order."""
    mod = Modulus(2, 4)
    bad = PeriodicSequence(mod, 2 * verify._BM_BLOCK + 100)
    monkeypatch.setattr(verify, "lc", lambda s: lc(s) + (s == bad))
    (rep,) = run_suites(["lc-oracle"], mod)
    L = lc(bad)
    assert (rep.checks, rep.failures) == (1 << 16, 1)
    assert rep.details == [f"2^4 s={bad.to01()}: lc {L + 1} != bm {L}"]


def test_counting_suite_counts_and_enumerates_through_the_public_pair(monkeypatch):
    """Every class the counting suite checks goes through count_hypercubes
    and enumerate_hypercubes, the functions behind `count hypercubes`."""
    counted, enumerated = [], []

    def recorder(fn, calls):
        def recorded(mod, edges, l=None, *rest):
            calls.append((mod, edges, l))
            return fn(mod, edges, l, *rest)

        return recorded

    monkeypatch.setattr(verify, "count_hypercubes", recorder(counting.count_hypercubes, counted))
    monkeypatch.setattr(
        verify, "enumerate_hypercubes", recorder(counting.enumerate_hypercubes, enumerated)
    )
    mod = Modulus(3, 2)
    (rep,) = run_suites(["counting"], mod)
    classes = [(mod, edges, l) for edges, l in counting._classes(mod)]
    assert len(classes) == 6
    assert counted == enumerated == classes
    lc_checks = 2 ** (mod.n + 1) + 1  # one per (eps, V), and their sum
    assert (rep.checks, rep.failures) == (lc_checks + len(classes), 0)


def test_counting_fails_a_class_whose_member_lc_is_not_the_class_lc(monkeypatch):
    """A member whose lc differs from the class_lc `count hypercubes` prints
    fails its class alone, naming both values after the usual detail."""
    mod = Modulus(2, 3)
    planted = parse_sequence("00101000", mod)  # third member of edges=(1,)
    monkeypatch.setattr(verify, "lc", lambda s: lc(s) + (s == planted))
    (rep,) = run_suites(["counting"], mod)
    assert (rep.checks, rep.failures) == (8, 1)
    assert rep.details == ["2^3 edges=(1,) l=None: formula 8, enumerated 8, scanned 8, L 7 != 6"]

    monkeypatch.setattr(verify, "lc", lc)
    class_lc = counting.class_lc

    def off_on_one_class(m, edges, l=None):
        return class_lc(m, edges, l) + (edges == (1,) and l == 2)

    monkeypatch.setattr(verify, "class_lc", off_on_one_class)
    (rep,) = run_suites(["counting"], Modulus(3, 2))
    assert (rep.checks, rep.failures) == (15, 1)
    assert rep.details == ["3^2 edges=(1,) l=2: formula 3, enumerated 3, scanned 3, L 2 != 3"]



def test_mcrit_fails_each_hypercube_whose_formula_spectrum_differs(monkeypatch):
    """On hypercubes the formula's m, L_after and whole celcs list are each
    checked against brute force, and each mismatch is named."""
    P = CelcsPoint
    planted = {
        "100": (P(0, 3), P(2, 0)),
        "010": (P(0, 3), P(1, 1)),
        "110": (P(0, 2), P(1, 1), P(3, 0)),
    }
    celcs = verify.celcs

    def faulty(s, mode="brute", cap=kerror.DEFAULT_CAP):
        if mode == "formula" and s.to01() in planted:
            return planted[s.to01()]
        return celcs(s, mode=mode, cap=cap)

    monkeypatch.setattr(verify, "celcs", faulty)
    (rep,) = run_suites(["mcrit-exhaustive"], Modulus(3, 1))
    assert (rep.checks, rep.failures) == (7, 3)
    assert rep.details == [
        "3^1 s=100: m 2 != 1; celcs (CelcsPoint(k=0, L=3), CelcsPoint(k=2, L=0)) "
        "!= (CelcsPoint(k=0, L=3), CelcsPoint(k=1, L=0))",
        "3^1 s=010: L_after 1 != 0; celcs (CelcsPoint(k=0, L=3), CelcsPoint(k=1, L=1)) "
        "!= (CelcsPoint(k=0, L=3), CelcsPoint(k=1, L=0))",
        "3^1 s=110: celcs (CelcsPoint(k=0, L=2), CelcsPoint(k=1, L=1), CelcsPoint(k=3, L=0)) "
        "!= (CelcsPoint(k=0, L=2), CelcsPoint(k=1, L=1), CelcsPoint(k=2, L=0))",
    ]


def test_decomposition_fails_each_broken_invariant(monkeypatch):
    """Hand-built decompositions, each breaking one invariant, fail their
    row alone with that invariant's text: a part that is no hypercube, parts
    that do not XOR back, complexities that do not decrease, and a leading
    complexity that is not L(s)."""
    mod = Modulus(3, 2)
    decompose = verify.standard_decompose

    def dec(lit, fake):
        real = decompose(parse_sequence(lit, mod))
        return fake(real.parts, real.complexities)

    planted = {
        "110100000": Decomposition((parse_sequence("110100000", mod),), (9,)),
        "101100000": dec("101100000", lambda parts, cs: Decomposition(parts[:1], cs[:1])),
        "111100000": dec("111100000", lambda parts, cs: Decomposition(parts, (8, 8))),
        "110010000": dec("110010000", lambda parts, cs: Decomposition(parts, (10, *cs[1:]))),
    }
    monkeypatch.setattr(
        verify, "standard_decompose", lambda s: planted.get(s.to01()) or decompose(s)
    )
    (rep,) = run_suites(["decomposition"], mod)
    assert (rep.checks, rep.failures) == (511, 4)
    assert rep.details == [
        "3^2 s=110100000: part 110100000 is not a hypercube",
        "3^2 s=101100000: parts do not XOR back to s",
        "3^2 s=111100000: complexities not strictly decreasing: (8, 8)",
        "3^2 s=110010000: leading part L 10 != L(s) 9",
    ]


def test_decomposition_suite_holds_one_row_at_a_time(monkeypatch):
    """Each row's decomposition is released before the next row's is built,
    so the suite holds one decomposition at a time (one dense 2^20 row's
    parts take about 1.45 GB)."""
    decompose = verify.standard_decompose
    rows, alive = [], []

    def tracked(s):
        alive.append(sum(row() is not None for row in rows))
        dec = decompose(s)
        rows.append(weakref.ref(dec))
        return dec

    monkeypatch.setattr(verify, "standard_decompose", tracked)
    (rep,) = run_suites(["decomposition"], Modulus(3, 2))
    assert (rep.checks, rep.failures) == (511, 0)
    assert alive == [0] * 511


def test_stability_fails_each_broken_construction(monkeypatch):
    """Planted constructions fail the complexity, the k-error hold and the
    first-drop checks, alone and all three at once."""
    mod = Modulus(3, 2)
    planted = {0: "110000000", 1: "100000000", 2: "100100100", 3: "100100000"}
    construct_stable = verify.construct_stable

    def faulty(m, k):
        return parse_sequence(planted[k], m) if k in planted else construct_stable(m, k)

    monkeypatch.setattr(verify, "construct_stable", faulty)
    (rep,) = run_suites(["stability"], mod)
    assert (rep.checks, rep.failures) == (8, 4)
    assert rep.details == [
        "3^2 k=0: first drop at 1 errors, not 2",
        "3^2 k=1: complexity moves within 1 errors",
        "3^2 k=2: constructed complexity 3",
        "3^2 k=3: constructed complexity 6; complexity moves within 3 errors; "
        "first drop at 1 errors, not 2",
    ]

@pytest.mark.parametrize("names", ["lc-oracle", "counting", ""], ids=repr)
def test_run_suites_refuses_a_string_for_its_list_of_names(names):
    with pytest.raises(KeyError, match=f"suite names must be a list, not the str {names!r}"):
        run_suites(names, Modulus(3, 1))


if __name__ == "__main__":
    sys.stdout.write(render_reports())

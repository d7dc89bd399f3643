"""Tests of the benchmark itself: generators, oracles, metric names, worker counts.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostprobe  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from seqcomplex import Modulus, PeriodicSequence, k_error_lc_bruteforce  # noqa: E402

MOD9 = Modulus(3, 2)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def all_workloads():
    return workloads.all_workloads(2)


@pytest.mark.parametrize("name", ["descent-large", "kerror-small", "verify-sweep", "cli-corpus"])
def test_generator_is_a_function_of_the_seed(all_workloads, tmp_path, name):
    w = all_workloads[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a, b, c = (w.corpus_bytes(w.generate(seed, d)) for seed, d in zip((7, 7, 8), dirs))
    assert a == b
    assert a != c


def test_hamming_ball_matches_bruteforce_on_every_period9_sequence():
    ball = oracles.HammingBall(MOD9)
    for v in range(1 << 9):
        s = PeriodicSequence(MOD9, v)
        spectrum = ball.spectrum(v, 9)
        assert spectrum == [k_error_lc_bruteforce(s, k) for k in range(10)], s


def test_hasse_oracle_matches_berlekamp_massey():
    rng = random.Random(3)
    for n in range(1, 11):
        mod = Modulus(2, n)
        for _ in range(40):
            v = rng.getrandbits(mod.period) >> rng.randrange(mod.period)
            assert oracles.two_power_lc(v, n) == oracles.bm(mod, v), (n, v)


def test_descent_oracle_rejects_planted_errors():
    api = workloads.Api()
    odd = next(r for r in workloads.descent_records(5, 0) if r.mod == Modulus(3, 7))
    out = workloads.descent_record(api, odd.mod, odd.line)
    assert oracles.check_descent(odd.mod, odd.line, out, None) == []
    L, form, *parts = out.split("|")
    wrong_L = "|".join([str(int(L) - 2), form, *parts])
    assert oracles.check_descent(odd.mod, odd.line, wrong_L, None)
    flipped = parts[-1][:-1] + ("1" if parts[-1][-1] == "0" else "0")
    assert oracles.check_descent(odd.mod, odd.line, "|".join([L, form, *parts[:-1], flipped]), None)
    swapped = "|".join([L, form, *reversed(parts)])
    assert oracles.check_descent(odd.mod, odd.line, swapped, None)

    cube = next(r for r in workloads.descent_records(5, 0) if r.cube is not None)
    out = workloads.descent_record(api, cube.mod, cube.line)
    assert oracles.check_descent(cube.mod, cube.line, out, cube.cube) == []
    L, _, echo = out.split("|")
    assert oracles.check_descent(cube.mod, cube.line, f"{L}|not-a-cube|{echo}", cube.cube)


def test_round_trip_oracle_rejects_a_changed_echo():
    api = workloads.Api()
    dense = next(r for r in workloads.descent_records(5, 0) if r.mod.p == 2 and r.cube is None)
    out = workloads.descent_record(api, dense.mod, dense.line)
    assert oracles.check_descent(dense.mod, dense.line, out, None) == []
    L, cube, echo = out.split("|")
    changed = echo[:-1] + ("1" if echo[-1] == "0" else "0")
    assert oracles.check_descent(dense.mod, dense.line, f"{L}|{cube}|{changed}", None)


@pytest.mark.parametrize("period_limit", [13, 27])
def test_kerror_oracle_rejects_planted_errors(period_limit):
    api = workloads.Api()
    rec = next(r for r in workloads.kerror_records(3, 0)
               if r.mod.period <= period_limit and r.mod.period > period_limit // 3
               and r.line.count("1") >= 3)
    ball = oracles.HammingBall(rec.mod) if rec.mod.period <= oracles.BALL_MAX_PERIOD else None
    out = workloads.kerror_record(api, rec.mod, rec.line)
    assert oracles.check_kerror(rec.mod, rec.line, out, ball) == []
    points, l2, form_m, bound, brute = out.split("|")
    first, *rest = points.split(",")
    k0, L0 = first.split(":")
    m, after = brute.split(",", 1)
    planted = [
        "|".join([",".join([f"{k0}:{int(L0) + 1}", *rest]), l2, form_m, bound, brute]),
        "|".join([points, str(int(l2) + 1), form_m, bound, brute]),
        "|".join([points, l2, "0", bound, brute]),
        "|".join([points, l2, form_m, bound, f"{int(m) + 1},{after}"]),
    ]
    for bad in planted:
        assert oracles.check_kerror(rec.mod, rec.line, bad, ball), bad


def test_verify_oracle_rejects_planted_errors():
    ball = oracles.HammingBall(MOD9)
    key = ("mcrit-exhaustive", None)
    good = ["3^2 s=111100100: m 3 != 2"]
    assert oracles.check_verify(key, 549, 36, good, ball) == 0
    assert oracles.check_verify(key, 549, 37, good, ball) == 1
    assert oracles.check_verify(key, 548, 36, good, ball) == 548
    assert oracles.check_verify(key, 549, 36, ["3^2 s=111100100: m 3 != 1"], ball) == 1
    assert oracles.check_verify(key, 549, 36, ["3^2 s=111100100: m 2 != 2"], ball) == 1
    assert oracles.check_verify(("lc-oracle", None), 69367, 1, [], ball) == 1


def test_cli_oracle_rejects_a_changed_record(all_workloads, tmp_path):
    w = all_workloads["cli-corpus"]
    inputs = w.generate(1, tmp_path)
    want, bad = w.expected(inputs)
    assert bad == 0
    lc_json = json.dumps({"results": want["lc"]})
    dec_text = "\n".join(want["decompose"]) + "\n"
    def unit(command, jobs, stdout):
        return [f"{command}.jobs{jobs}", len(inputs[command][1]), 1.0, [0, stdout], 0]

    good = workloads.Pass(units=[unit("lc", 1, lc_json), unit("lc", 2, lc_json),
                                 unit("decompose", 1, dec_text), unit("decompose", 2, dec_text)])
    assert w.failures(inputs, [good, good]) == 0
    changed = json.loads(lc_json)
    changed["results"][5]["L"] += 1
    bad_pass = workloads.Pass(units=[unit("lc", 1, lc_json), unit("lc", 2, json.dumps(changed))])
    assert w.failures(inputs, [bad_pass]) >= 1
    # a repeated invocation must repeat its output exactly
    assert w.failures(inputs, [good, bad_pass]) >= 1
    assert oracles.lc_record(MOD9, "110100100", 7, "8 = 0 + (3-1)*[1,2]", 4)
    assert oracles.check_form("8 = 0 + (3-1)*[1,2]", 8, MOD9) == []
    assert oracles.check_form("8 = 1 + (3-1)*[1,2]", 8, MOD9)


def test_a_units_time_is_its_median_timing(all_workloads):
    ref = hostprobe.PROBE_REF_S
    passes = [workloads.Pass(units=[["a", 10, t, None, 0], ["b", 30, u, None, 1]],
                             probes=[ref, 2 * ref, 3 * ref])
              for t, u in ((2.0, 12.0), (1.0, 9.0), (1.5, 3.0))]
    verify, cli = all_workloads["verify-sweep"], all_workloads["cli-corpus"]
    times = verify.unit_times(passes, scaled=False)
    assert times == {"a": (10, 1.5), "b": (30, 9.0)}
    assert verify.records_per_s(times) == 40 / 10.5
    # a suite check's latency is its call's mean; a CLI record waits for the whole call
    assert verify.percentiles(times) == (0.3, 0.3)
    assert cli.percentiles(times) == (9.0, 9.0)
    assert workloads.weighted_quantile([(1.0, 10), (9.0, 30)], 0.2) == 1.0
    # each timing is divided by the mean of the probes on either side over
    # the reference: 1.5 around a, 2.5 around b
    scaled = verify.unit_times(passes, scaled=True)
    assert scaled["a"] == (10, pytest.approx(1.0))
    assert scaled["b"] == (30, pytest.approx(3.6))


def test_end_to_end_reports_scaled_metrics_and_keeps_the_raw_ones():
    raw = {}
    w = workloads.all_workloads(2)["verify-sweep"]
    ref = hostprobe.PROBE_REF_S
    passes = [workloads.Pass(units=[["a", 10, 1.0, None, 0]], probes=[ref, 3 * ref])]
    metrics = run.end_to_end(w, passes, (0.3, 0.1, 3.0), 20.0, raw)
    assert raw["slowness"] == pytest.approx(2) and raw["setup_slowness"] == 3
    assert raw["records_per_s"] == 10 and raw["record_ms_p50"] == 100
    assert metrics["records_per_s"] == pytest.approx(20)
    assert metrics["record_ms_p50"] == pytest.approx(50)
    assert (raw["setup_s"], metrics["setup_s"]) == (0.3, 0.1)
    assert metrics["peak_rss_mb"] == raw["peak_rss_mb"] == 20


def test_host_probe_samples_no_closer_than_its_gap():
    probe, times = hostprobe.HostProbe(), []
    probe.sample(times)
    probe.sample(times)  # within EVERY_S of the first: skipped
    assert len(times) == 1 and 0 < times[0] < 5


def test_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.all_workloads(2))


@pytest.mark.parametrize("nproc", sorted({1, 2, os.cpu_count() or 1}))
def test_cli_worker_count_never_exceeds_nproc(tmp_path, nproc):
    w = workloads.CliWorkload(nproc)
    jobs = [int(argv[argv.index("--jobs") + 1]) for _, _, argv in w.invocations(tmp_path)]
    assert jobs and max(jobs) <= nproc

import concurrent.futures
import importlib
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import seqcomplex
import seqcomplex.cli as cli_module
from seqcomplex import (
    Modulus, class_lc, count_hypercubes, count_sequences_with_lc, enumerate_hypercubes,
    parse_sequence,
)
from seqcomplex.cli import main

MOD9_ARGS = ["--p", "3", "--n", "2"]
MOD9 = Modulus(3, 2)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_lc_text_is_bare_number(capsys):
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--seq", "110000000")
    assert (code, out, err) == (0, "8\n", "")


def test_lc_json_literal_has_no_line_key(capsys):
    code, out, _ = run(capsys, "lc", *MOD9_ARGS, "--seq", "110000000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "seqcomplex/1"
    assert doc["command"] == "lc"
    assert (doc["p"], doc["n"]) == (3, 2)
    (rec,) = doc["results"]
    assert "line" not in rec
    assert rec["L"] == 8
    assert rec["canonical_form"].startswith("8 = ")


def test_lc_corpus_keeps_line_numbers(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# header\n\n110000000\n111000000\n")
    code, out, _ = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus))
    assert code == 0
    assert out == "line 3: 8\nline 4: 7\n"
    code, out, _ = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--format", "json")
    recs = json.loads(out)["results"]
    assert [r["line"] for r in recs] == [3, 4]
    assert [r["L"] for r in recs] == [8, 7]


def test_corpus_errors_carry_line_numbers(capsys, tmp_path):
    corpus = tmp_path / "bad.txt"
    corpus.write_text("110000000\n11000x000\n")
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus))
    assert code == 1
    assert "line 2:" in err



def test_an_undecodable_corpus_is_a_file_error_naming_its_path(capsys, tmp_path):
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes(b"\xff10\n")
    code, out, err = run(capsys, "lc", "--p", "3", "--n", "1", "--file", str(corpus))
    assert (code, out) == (1, "")
    assert err == (
        f"Error: Could not open file {str(corpus)!r}: 'utf-8' codec can't decode byte "
        "0xff in position 0: invalid start byte\n"
    )

def test_json_output_is_byte_deterministic(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("110000000\n010110110\n111111111\n")
    args = ("celcs", *MOD9_ARGS, "--file", str(corpus), "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_klc_and_budget_exit(capsys):
    code, out, _ = run(capsys, "klc", *MOD9_ARGS, "--seq", "110000000", "--k", "1")
    assert code == 0 and out == "7\n"
    code, _, err = run(
        capsys, "klc", *MOD9_ARGS, "--seq", "111111111", "--k", "4", "--cap", "10"
    )
    assert code == 3
    assert "error:" in err


def test_a_dense_row_is_refused_its_budget_at_once(capsys, tmp_path):
    """The pattern count of a dense period-2^14 row stops past 10^18 patterns,
    so klc refuses it (exit 3) at once, with that bound as its text."""
    corpus = tmp_path / "dense.txt"
    row = random.Random(0).getrandbits(1 << 14)
    corpus.write_text(format(row, "016384b") + "\n")
    start = time.perf_counter()
    code, out, err = run(
        capsys, "klc", "--p", "2", "--n", "14", "--file", str(corpus), "--k", "5000"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: line 1: more than {10**18} error patterns exceed cap {10**8}\n"


def test_klc_budgets_only_classes_below_the_weight(capsys):
    code, out, err = run(
        capsys, "klc", *MOD9_ARGS, "--seq", "110000000", "--k", "12", "--cap", "46"
    )
    assert (code, out, err) == (0, "0\n", "")


def test_celcs_csv_literal_header(capsys):
    code, out, _ = run(capsys, "celcs", *MOD9_ARGS, "--seq", "110000000", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,L_k", "0,8", "1,7", "2,0"]


def test_celcs_csv_corpus_header(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("110000000\n010000000\n")
    code, out, _ = run(capsys, "celcs", *MOD9_ARGS, "--file", str(corpus), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seq,k,L_k"
    assert lines[1] == "1,0,8"
    assert "2,0,9" in lines and "2,1,0" in lines


def test_celcs_csv_empty_corpus_header(capsys, tmp_path):
    # the header follows the input source, not the rows it happened to hold
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# no sequences\n\n")
    code, out, err = run(capsys, "celcs", *MOD9_ARGS, "--file", str(corpus), "--format", "csv")
    assert (code, out, err) == (0, "seq,k,L_k\n", "")


def test_empty_corpus_text_report_writes_no_bytes(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# no sequences\n\n")
    report = tmp_path / "report.txt"
    for command in ("lc", "decompose"):
        code, out, err = run(capsys, command, *MOD9_ARGS, "--file", str(corpus))
        assert (code, out, err) == (0, "", ""), command
        report.write_text("stale")
        code, out, err = run(capsys, command, *MOD9_ARGS, "--file", str(corpus),
                             "--out", str(report))
        assert (code, out, err, report.read_bytes()) == (0, "", "", b""), command
    # the other formats still frame their empty results
    code, out, _ = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--format", "json")
    assert (code, json.loads(out)["results"]) == (0, [])


def test_a_bare_group_prints_its_help(capsys):
    for group in ([], ["count"]):
        code, out, err = run(capsys, *group)
        assert (code, err) == (0, ""), group
        assert run(capsys, *group, "--help") == (0, out, ""), group
        assert out.startswith("Usage: ") and "Commands:" in out, group


def test_celcs_formula_needs_a_hypercube(capsys):
    code, _, err = run(
        capsys, "celcs", *MOD9_ARGS, "--seq", "110100100", "--mode", "formula"
    )
    assert code == 1 and "error:" in err


def test_structure_text(capsys):
    code, out, _ = run(capsys, "structure", *MOD9_ARGS, "--seq", "110000000")
    assert code == 0
    assert out == "m=0 edges=- vertex=tuple(q=0, [1,1,0]) L=8\n"
    code, out, _ = run(capsys, "structure", *MOD9_ARGS, "--seq", "111000000")
    assert code == 0
    assert out == "m=1 edges=0 vertex=element L=7\n"
    code, out, _ = run(capsys, "structure", *MOD9_ARGS, "--seq", "110100100")
    assert code == 0
    assert out.startswith("not a hypercube:")


def test_structure_refuses_a_zero_row_at_every_p(capsys, tmp_path):
    # as decompose and mcrit do: a zero row is an input error, not a report
    corpus = tmp_path / "corpus.txt"
    for args, zero in ((["--p", "2", "--n", "3"], "00000000"), (MOD9_ARGS, "000000000")):
        code, out, err = run(capsys, "structure", *args, "--seq", zero)
        assert (code, out, err) == (1, "", "error: sequence is identically zero\n")
        corpus.write_text(f"1{zero[1:]}\n{zero}\n")
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "structure", *args, "--file", str(corpus),
                                 "--format", fmt)
            assert (code, out, err) == (1, "", "error: line 2: sequence is identically zero\n")


def test_decompose_reference(capsys):
    code, out, _ = run(
        capsys, "decompose", "--p", "3", "--n", "3", "--seq", "110100100" * 3
    )
    assert code == 0
    assert out.splitlines()[0] == "2 parts, L = 8, 6"
    assert len(out.splitlines()) == 3


def test_mcrit_text_pinned(capsys):
    code, out, _ = run(capsys, "mcrit", *MOD9_ARGS, "--seq", "110000000")
    assert code == 0
    assert out == "m=1 L_m=7 m1=2 bound=1\n"


def test_mcrit_both_reports_mismatch_without_failing(capsys):
    code, out, _ = run(
        capsys, "mcrit", *MOD9_ARGS, "--seq", "111100100", "--mode", "both"
    )
    assert code == 0
    assert "MISMATCH" in out


def test_count_lc_text(capsys):
    code, out, _ = run(capsys, "count", "lc", *MOD9_ARGS, "--L", "8")
    assert code == 0
    assert out == "189 = (2^2 - 1) * (2^6 - 1)\n"


def test_count_hypercubes_with_enumeration(capsys):
    code, out, _ = run(
        capsys, "count", "hypercubes", *MOD9_ARGS, "--edges", "0", "--enumerate"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "27 = 3^3 (L = 7)"
    assert len(lines) == 1 + 27
    assert len(set(lines[1:])) == 27



def test_count_hypercubes_refuses_edges_that_are_not_integers(capsys):
    code, out, err = run(capsys, "count", "hypercubes", *MOD9_ARGS, "--edges", "0,x")
    assert (code, out) == (1, "")
    assert err.endswith("\nError: --edges must be comma-separated integers, got '0,x'\n")


def test_count_hypercubes_text_at_p2(capsys):
    code, out, _ = run(capsys, "count", "hypercubes", "--p", "2", "--n", "2")
    assert code == 0
    assert out == "4 = 2^2 (L = 4)\n"


def _count_doc(command, p, n, rec):
    doc = {"schema": "seqcomplex/1", "command": command, "p": p, "n": n, "results": [rec]}
    return json.dumps(doc, indent=2) + "\n"


def test_count_hypercubes_json(capsys):
    code, out, _ = run(
        capsys, "count", "hypercubes", *MOD9_ARGS, "--edges", "0", "--format", "json"
    )
    assert code == 0
    rec = {"edges": [0], "l": None, "count": 27, "expression": "3^3", "L": 7}
    assert out == _count_doc("count hypercubes", 3, 2, rec)


def test_count_hypercubes_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "count", "hypercubes", *MOD9_ARGS, "--edges", "1", "--l", "2",
        "--enumerate", "--format", "json",
    )
    assert code == 0
    rec = {"edges": [1], "l": 2, "count": 3, "expression": "C(3,2) * 3^0", "L": 2,
           "members": ["110110110", "101101101", "011011011"]}
    assert out == _count_doc("count hypercubes", 3, 2, rec)


def test_count_hypercubes_enumerate_json_at_p2(capsys):
    code, out, _ = run(
        capsys, "count", "hypercubes", "--p", "2", "--n", "2", "--edges", "0",
        "--enumerate", "--format", "json",
    )
    assert code == 0
    rec = {"edges": [0], "l": None, "count": 4, "expression": "2^2", "L": 3,
           "members": ["1100", "1001", "0110", "0011"]}
    assert out == _count_doc("count hypercubes", 2, 2, rec)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("enum", [False, True], ids=["count", "enumerate"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_count_hypercubes_at_p2_prints_the_library_record(capsys, n, enum, fmt):
    """For every edge set at 2^n, count hypercubes --p 2 prints the record
    built from count_hypercubes, class_lc and enumerate_hypercubes."""
    mod = Modulus(2, n)
    for mask in range(1 << n):
        es = tuple(i for i in range(n) if mask >> i & 1)
        res = count_hypercubes(mod, es)
        rec = {"edges": list(es), "l": None, "count": res.value,
               "expression": res.expression, "L": class_lc(mod, es)}
        if enum:
            rec["members"] = [s.to01() for s in enumerate_hypercubes(mod, es)]
        if fmt == "json":
            want = _count_doc("count hypercubes", 2, n, rec)
        else:
            lines = [f"{rec['count']} = {rec['expression']} (L = {rec['L']})",
                     *rec.get("members", ())]
            want = "\n".join(lines) + "\n"
        args = ("--p", "2", "--n", str(n), "--edges", ",".join(map(str, es)),
                *(("--enumerate",) if enum else ()), "--format", fmt)
        assert run(capsys, "count", "hypercubes", *args) == (0, want, ""), args


# the invocations of the retired count cubes command that its tests pinned
_COUNT_CUBES = [
    *(("count", "cubes", *MOD9_ARGS, "--edges", edges, *extra)
      for extra in ((), ("--enumerate",)) for edges in ("", "0", "5")),
    ("count", "cubes", *MOD9_ARGS, "--edges", "0,x"),
    ("count", "cubes", "--p", "4", "--n", "2", "--edges", "5"),
]


@pytest.mark.parametrize("argv", _COUNT_CUBES,
                         ids=lambda argv: " ".join(a or "''" for a in argv[2:]))
def test_count_cubes_is_an_unknown_command(capsys, argv):
    """count cubes is gone: count hypercubes counts the p = 2 cubes."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "\nError: No such command 'cubes'." in err


def test_count_prints_exact_counts_of_any_size(capsys):
    """Counts past Python's int-to-str digit limit print whole, in text and
    JSON, and the limit is back in place once main returns."""
    res = count_sequences_with_lc(Modulus(3, 9), 19683)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(res.value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) == 5925
    args = ("count", "lc", "--p", "3", "--n", "9", "--L", "19683")
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (0, f"{want} = {res.expression}\n", "")
    code, out, err = run(capsys, *args, "--format", "json")
    assert (code, err) == (0, "")
    (rec,) = json.loads(out, parse_int=str)["results"]
    assert (rec["count"], rec["expression"]) == (want, res.expression)
    assert sys.get_int_max_str_digits() == limit


def test_construct_stable_text(capsys):
    code, out, _ = run(capsys, "construct-stable", *MOD9_ARGS, "--k", "2")
    assert code == 0
    assert out == "111000000 L=7 stable_through=2 first_drop=3\n"


def test_verify_clean_suite_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", *MOD9_ARGS, "--suite", "bounds")
    assert code == 0
    assert "bounds:" in out and "agree" in out


def test_verify_mcrit_exits_two_with_census(capsys):
    code, out, _ = run(capsys, "verify", *MOD9_ARGS, "--suite", "mcrit-exhaustive")
    assert code == 2
    assert "mcrit-exhaustive: 475/511 agree" in out
    assert "counterexample: 3^2 s=111100100" in out


def test_verify_pinned_p2_runs_every_suite(capsys):
    """A p = 2 pin runs all six suites; decomposition checks every nonzero
    sequence."""
    code, out, err = run(capsys, "verify", "--p", "2", "--n", "3")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 6
    assert "decomposition: 255/255 agree" in lines
    assert all(line.endswith(" agree") for line in lines)


def test_verify_modulus_options_must_pair(capsys):
    code, _, err = run(capsys, "verify", "--p", "3")
    assert code == 1


def test_bad_modulus_is_an_input_error(capsys):
    code, _, err = run(capsys, "lc", "--p", "7", "--n", "1", "--seq", "1100000")
    assert code == 1 and "error:" in err


def test_input_source_is_exactly_one(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("110000000\n")
    code, _, err = run(capsys, "lc", *MOD9_ARGS)
    assert code == 1
    code, _, err = run(
        capsys, "lc", *MOD9_ARGS, "--seq", "110000000", "--file", str(corpus)
    )
    assert code == 1


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "lc", *MOD9_ARGS, "--seq", "110000000",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["results"][0]["L"] == 8


def test_jobs_preserve_input_order(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    rows = ["110000000", "111111111", "010110110", "100100100", "111000000"]
    corpus.write_text("\n".join(rows) + "\n")
    _, serial, _ = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus))
    code, parallel, _ = run(
        capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--jobs", "3"
    )
    assert code == 0
    assert parallel == serial


def test_jobs_below_one_is_a_usage_error(capsys):
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "lc", *MOD9_ARGS, "--seq", "110000000", "--jobs", jobs)
        assert (code, out) == (1, "")
        assert "Invalid value for '--jobs'" in err


def test_cap_below_one_is_a_usage_error(capsys):
    seq = ("--seq", "110000000")
    commands = [
        ("klc", *MOD9_ARGS, *seq, "--k", "1"),
        ("celcs", *MOD9_ARGS, *seq),
        ("mcrit", *MOD9_ARGS, *seq, "--mode", "brute"),
        ("count", "hypercubes", *MOD9_ARGS, "--edges", "0", "--enumerate"),
        ("count", "hypercubes", "--p", "2", "--n", "3", "--enumerate"),
        ("verify", *MOD9_ARGS, "--suite", "counting"),
    ]
    for command in commands:
        for cap in ("0", "-5"):
            code, out, err = run(capsys, *command, "--cap", cap)
            assert (code, out) == (1, ""), command
            assert "Invalid value for '--cap'" in err


def test_workers_are_clamped_to_cpus_and_rows(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli_module._workers(10**6, 100) == 4
    assert cli_module._workers(3, 100) == 3
    assert cli_module._workers(10**6, 1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli_module._workers(10**6, 100) == 1


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_one_row_or_one_job_starts_no_pool(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--seq", "110000000", "--jobs", "2")
    assert (code, out, err) == (0, "8\n", "")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("110000000\n111000000\n")
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--jobs", "1")
    assert (code, out, err) == (0, "line 1: 8\nline 2: 7\n", "")


def test_rows_are_timed_only_where_a_pool_could_start(monkeypatch, capsys, tmp_path):
    # one clock read as the loop starts and one before each later row
    reads = []
    monkeypatch.setattr(cli_module, "perf_counter", lambda: reads.append(0) or 0.0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(format(v, "09b") for v in range(1, 11)) + "\n")
    _, serial, _ = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--jobs", "1")
    assert reads == []
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--jobs", "2")
    assert (code, out, err) == (0, serial, "")
    assert len(reads) == 10


def test_worker_errors_name_the_same_line_at_every_jobs(monkeypatch, capsys, tmp_path):
    # 111111111 needs 130 error patterns, past the cap; the others need fewer.
    # These rows are too cheap to start a pool, so they run serially at every
    # --jobs; test_forced_fan_out_matches_one_job covers the pooled path.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    good, bad = "110000000", "111111111"
    for rows, line in (([good, bad, "100000000"], 2), ([good] * 3 + [bad] + [good] * 6, 4)):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(rows) + "\n")
        for jobs in ("1", "2"):
            code, out, err = run(
                capsys, "mcrit", *MOD9_ARGS, "--mode", "brute", "--cap", "100",
                "--file", str(corpus), "--jobs", jobs,
            )
            assert (code, out) == (3, "")
            assert err == f"error: line {line}: 130 error patterns exceed cap 100\n"


def test_a_cheap_corpus_starts_no_pool(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(format(v, "09b") for v in range(1, 257)) + "\n")
    _, serial, _ = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--jobs", "1")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--jobs", "2")
    assert (code, out, err) == (0, serial, "")
    # A slow first row projects seconds of work, but has not itself done enough.
    record, calls = cli_module._lc_record, []

    def cold_first(s):
        if not calls:
            time.sleep(0.02)
        calls.append(s)
        return record(s)

    monkeypatch.setattr(cli_module, "_lc_record", cold_first)
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--jobs", "2")
    assert (code, out, err) == (0, serial, "")


def test_forced_fan_out_matches_one_job(monkeypatch, capsys, tmp_path):
    # With no work threshold, every row after line 1 goes to a two-worker
    # pool.  Ten rows leave nine for it, in chunks of 2: lines (2, 3), (4, 5),
    # (6, 7), (8, 9), (10).
    monkeypatch.setattr(cli_module, "_POOL_AFTER_S", 0.0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        started.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    corpus = tmp_path / "corpus.txt"
    brute = ("mcrit", *MOD9_ARGS, "--mode", "brute")
    corpus.write_text("\n".join(["110000000", "010110110", "100100100", "111111111",
                                 "111000000"] * 2) + "\n")
    commands = (
        ("lc", *MOD9_ARGS), brute, ("klc", *MOD9_ARGS, "--k", "2"), ("celcs", *MOD9_ARGS),
        ("celcs", *MOD9_ARGS, "--format", "csv"), ("celcs", *MOD9_ARGS, "--format", "json"),
        ("structure", *MOD9_ARGS),
        ("decompose", *MOD9_ARGS), ("decompose", *MOD9_ARGS, "--format", "json"),
        ("mcrit", *MOD9_ARGS, "--mode", "both"),
    )
    for command in commands:
        _, serial, _ = run(capsys, *command, "--file", str(corpus), "--jobs", "1")
        before = len(started)
        code, out, err = run(capsys, *command, "--file", str(corpus), "--jobs", "2")
        assert (code, out, err) == (0, serial, "")
        assert len(started) == before + 1
    # 111111111 needs 130 error patterns, past the cap; 110000000 needs fewer.
    # Line 1 fails in this process; line 5 is the second row of a pool chunk
    # whose first row is good, and line 9 fails later.
    good, bad = "110000000", "111111111"
    cases = (([bad] + [good] * 9, 1), ([good] * 4 + [bad] + [good] * 3 + [bad, good], 5))
    for rows, line in cases:
        corpus.write_text("\n".join(rows) + "\n")
        before = len(started)
        for jobs in ("1", "2"):
            code, out, err = run(capsys, *brute, "--cap", "100", "--file", str(corpus),
                                 "--jobs", jobs)
            assert (code, out) == (3, "")
            assert err == f"error: line {line}: 130 error patterns exceed cap 100\n"
        assert len(started) == before + (line != 1)


def test_internal_errors_exit_four(monkeypatch, capsys):
    def broken(s):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module, "_lc_record", broken)
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--seq", "110000000", "--jobs", "1")
    assert (code, out) == (4, "")
    assert err == "internal error: RuntimeError('boom')\n"


def test_an_interrupted_command_is_aborted_with_exit_130(monkeypatch, capsys):
    """Ctrl-C inside a command reaches main as click.Abort: click writes a
    newline, main adds "aborted" on stderr and exits 130."""
    def interrupted(s):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "_lc_record", interrupted)
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--seq", "110000000", "--jobs", "1")
    assert (code, out) == (130, "")
    assert err == "\naborted\n"


def test_unwritable_out_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "lc", *MOD9_ARGS, "--seq", "110000000", "--out", str(target))
    assert (code, out) == (1, "")
    assert "Could not open file" in err


def _fresh(code: str) -> tuple[list[str], set[str]]:
    """Run code in a fresh interpreter: the lines it printed, and the
    seqcomplex submodules, process pool module and json loaded after it."""
    src = str(Path(seqcomplex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (f"import sys\n{code}\nprint(*sorted(m for m in sys.modules if m == 'json' or "
             "m.startswith(('seqcomplex.', 'concurrent.futures.process'))))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), code
    *printed, loaded = proc.stdout.split("\n")[:-1]
    return printed, set(loaded.split())


def test_importing_the_cli_loads_no_process_pool():
    pool = "concurrent.futures.process"
    unused = {f"seqcomplex.{m}" for m in ("counting", "hypercube", "kerror", "verify")}
    _, loaded = _fresh("import seqcomplex.cli")
    assert not loaded & {pool, *unused}
    # a command loads only the modules it runs
    run_cli = ("from seqcomplex.cli import main\n"
               "main([{!r}, '--p', '3', '--n', '2', '--seq', {!r}])")
    printed, loaded = _fresh(run_cli.format("lc", "110000000"))
    assert printed == ["8"]
    assert not loaded & {pool, *unused, "json"}
    # json is loaded only where a JSON report is built
    printed, loaded = _fresh("from seqcomplex.cli import main\n"
                             "main(['lc', '--p', '3', '--n', '2', '--seq', '110000000', "
                             "'--format', 'json'])")
    assert printed[1] == '  "schema": "seqcomplex/1",'
    assert "json" in loaded
    printed, loaded = _fresh(run_cli.format("decompose", "111000000"))
    assert printed[0] == "1 parts, L = 7"
    assert "seqcomplex.hypercube" in loaded
    assert not loaded & {pool, "seqcomplex.kerror", "seqcomplex.verify"}
    # the package resolves its public names on first use, and only those
    printed, _ = _fresh(
        "import seqcomplex\n"
        "names = {}\n"
        "exec('from seqcomplex import *', names)\n"
        "print(sorted(names.keys() - {'__builtins__'}) == sorted(seqcomplex.__all__))\n"
        "print(set(seqcomplex.__all__) <= set(dir(seqcomplex)))\n"
        "print(all(getattr(seqcomplex, n) is names[n] for n in seqcomplex.__all__))\n"
        "try:\n"
        "    seqcomplex.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
        "from seqcomplex import verify\n"
        "print(verify.__name__)"
    )
    assert printed == [
        "True", "True", "True",
        "module 'seqcomplex' has no attribute 'no_such_name'",
        "seqcomplex.verify",
    ]


def test_module_all_lists_agree_with_the_package_sources():
    """Every name a submodule's __all__ lists exists in that module, and
    every package name that _SOURCES maps to such a module is in its
    __all__ (the package's own surface check reads only its __all__)."""
    lists = {}
    for info in pkgutil.iter_modules(seqcomplex.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"seqcomplex.{info.name}")
        if hasattr(module, "__all__"):
            lists[info.name] = set(module.__all__)
            assert [n for n in module.__all__ if not hasattr(module, n)] == [], info.name
    assert {"counting", "hypercube", "kerror", "lincomp", "verify"} <= lists.keys()
    unlisted = [(name, module) for name, module in seqcomplex._SOURCES.items()
                if module in lists and name not in lists[module]]
    assert unlisted == []
    # retired names: CriticalReport.vertex_j and tests/helpers.py cover them
    errors = importlib.import_module("seqcomplex.errors")
    retired = ["EqualPositions", "NotTupleVertex", "ZeroLengthVertex", "pn_distance",
               "vertex_min_change"]
    assert [name for name in retired
            if name in seqcomplex.__all__ or name in seqcomplex._SOURCES
            or hasattr(errors, name)] == []


def test_lc_loads_no_bit_sliced_numbers():
    bitslice = "seqcomplex.bitslice"
    printed, loaded = _fresh("from seqcomplex.cli import main\n"
                             "main(['lc', '--p', '3', '--n', '2', '--seq', '110000000'])")
    assert printed == ["8"]
    assert bitslice not in loaded
    # lincomp loads it only once the bit-sliced oracle runs
    printed, loaded = _fresh("from seqcomplex.lincomp import _bm_values\n"
                             "import sys\n"
                             "print('seqcomplex.bitslice' in sys.modules)\n"
                             "print(_bm_values([1, 3], 3))")
    assert printed == ["False", "[3, 2]"]
    assert bitslice in loaded
    printed, loaded = _fresh("from seqcomplex.cli import main\n"
                             "print(main(['verify', '--suite', 'lc-oracle', *{!r}]))".format(MOD9_ARGS))
    assert printed[-1] == "0"
    assert bitslice in loaded


def test_suite_choices_are_the_verify_suites():
    from seqcomplex import verify

    assert cli_module._SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_lc_records_match_the_canonical_form_of_every_attainable_l(capsys, tmp_path):
    # one row per attainable L, so every row misses the per-L form cache
    from seqcomplex import Modulus, lc, lc_form_decompose, parse_sequence

    mod = Modulus(3, 2)
    by_L = {}
    for v in range(512):
        s = parse_sequence(format(v, "09b"), mod)
        by_L.setdefault(lc(s), s.to01())
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(by_L[L] for L in sorted(by_L)) + "\n")
    code, out, _ = run(capsys, "lc", *MOD9_ARGS, "--file", str(corpus), "--format", "json")
    assert code == 0
    got = [(r["L"], r["canonical_form"]) for r in json.loads(out)["results"]]
    assert got == [(L, str(lc_form_decompose(L, mod))) for L in sorted(by_L)]
    assert len(got) == 8  # epsilon in {0, 1} and any subset of the exponents {1, 2}
    # the cached text is keyed by the modulus too: L = 1 reads in its own base
    for p, seq, form in (("3", "111", "1 = 1 + (3-1)*[]"), ("5", "11111", "1 = 1 + (5-1)*[]")):
        code, out, _ = run(capsys, "lc", "--p", p, "--n", "1", "--seq", seq, "--format", "json")
        assert (code, json.loads(out)["results"][0]["canonical_form"]) == (0, form)


def test_python_m_runs_the_cli():
    src = str(Path(seqcomplex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("seqcomplex", "seqcomplex.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "lc", *MOD9_ARGS, "--seq", "110000000"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "8\n", ""), module


def test_version_runs_from_a_checkout():
    # the version comes from the package, so no installed distribution is needed
    src = str(Path(seqcomplex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "seqcomplex", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith(", version 0.1.0\n")


def test_package_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert match and seqcomplex.__version__ == match.group(1)


def test_out_of_range_modulus_fails_at_once():
    # neither a p above the period cap nor a huge n is factored or raised to a power
    src = str(Path(seqcomplex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for p, n in (("1000000007", "1"), ("3", "100000000")):
        proc = subprocess.run(
            [sys.executable, "-m", "seqcomplex", "lc", "--p", p, "--n", n, "--seq", "1"],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (1, ""), (p, n)
        assert proc.stderr == f"error: p^n = {p}^{n} exceeds 1048576\n"


# -- the JSON envelope ----------------------------------------------------------

def _indent_2(command, modulus, results) -> str:
    doc = {"schema": "seqcomplex/1", "command": command}
    if modulus is not None:
        doc["p"], doc["n"] = modulus.p, modulus.n
    doc["results"] = results
    return json.dumps(doc, indent=2)


TRICKY = ["", "caf\u00e9 \u0661\U0001d7d9", "\x00\x1f\t\n\r", '"quoted"', "},", "{",
          "},\n  {", "\\", "\udc80"]


def _worker_records():
    """A record of every sequence command's JSON shape, on a few inputs."""
    cube = parse_sequence("11001100", Modulus(2, 3))
    hyper = parse_sequence("110110110", MOD9)
    other = parse_sequence("110100100", MOD9)
    recs = [cli_module._lc_record(hyper), cli_module._klc_record(other, 1, 10**6)]
    recs += [cli_module._structure_record(s) for s in (cube, hyper, other)]
    recs += [cli_module._decompose_record(s, detail) for s in (hyper, other)
             for detail in (True, False)]
    recs += [cli_module._celcs_record(cube, "brute", 10**6)]
    recs += [cli_module._celcs_record(hyper, mode, 10**6) for mode in ("brute", "formula", "both")]
    recs += [cli_module._mcrit_record(s, mode, 10**6) for s in (cube, hyper)
             for mode in ("brute", "formula", "both")]
    recs.append({"suite": "lc-oracle", "checks": 3, "agreements": 2, "failures": 1,
                 "counterexamples": ["3^2 s=110000000: 8 != 7"]})
    return recs


@pytest.mark.parametrize("results", [
    [],
    [{}],
    [{}, {"L": 1}],
    [{"L": 8, "canonical_form": "8 = 0 + (3-1)*[1,2]", "weight": 2}] * 3,
    [{"a": None, "b": True, "c": False, "d": 1.5, "e": -0.0, "f": 1e300, "g": float("inf"),
      "h": float("nan"), "i": 10**30}],
    [{t: t for t in TRICKY}],
    [{"s": t} for t in TRICKY],
    [{"edges": (0, 1), "m": 2}],
    [{"t": ()}],
    [{"l": []}],
    [{"l": [1, 2]}],
    [{"d": {}}],
    [{"d": {"a": 1}}],
    [{"d": {"L": 1}, "m": 2}, {"L": 1}],
], ids=lambda r: f"{len(r)}-records")
@pytest.mark.parametrize("modulus", [MOD9, None])
def test_envelope_is_indent_2_json(results, modulus):
    assert cli_module._envelope("lc", modulus, results) == _indent_2("lc", modulus, results)


@pytest.mark.parametrize("shape", ["alone", "numbered", "between"])
@pytest.mark.parametrize("modulus", [MOD9, None])
def test_envelope_is_indent_2_json_on_worker_records(shape, modulus):
    # built in the test, not at collection, so that a library fault fails
    # these cases and leaves the rest of the file to run
    recs = _worker_records()
    results = {
        "alone": recs,
        "numbered": [{"line": no, **rec} for no, rec in enumerate(recs, start=3)],
        "between": [{"L": 8}, *recs, {"L": 9, "weight": 1}],
    }[shape]
    assert cli_module._envelope("lc", modulus, results) == _indent_2("lc", modulus, results)


TEXT = st.text(max_size=6) | st.sampled_from(TRICKY)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
FLAT = st.dictionaries(TEXT, SCALARS, max_size=4)
NESTED = st.dictionaries(TEXT, st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
), max_size=3)


@given(TEXT,
       st.none() | st.sampled_from([MOD9, Modulus(2, 20)]),
       st.lists(FLAT, max_size=6) | st.lists(FLAT | NESTED, max_size=6))
def test_envelope_is_indent_2_json_on_any_records(command, modulus, results):
    assert cli_module._envelope(command, modulus, results) == _indent_2(command, modulus, results)

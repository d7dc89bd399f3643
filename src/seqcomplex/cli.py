"""Command line interface.

One subcommand per analysis: lc, klc, celcs, decompose, structure, mcrit,
count, construct-stable, verify.  One decorator, _command, gives each command
its options in one order: --p/--n, --seq/--file on the sequence commands, the
command's own options, --format/--out, and --jobs on the sequence commands.

The sequence commands share one row path, _rows: build the modulus, load
--seq or --file (one record per corpus line, errors tagged with the line
number), map the command's worker over the rows, and render text, JSON
(schema "seqcomplex/1"), or CSV where it fits.  The JSON report has the
bytes of json.dumps(doc, indent=2), but Python's C encoder writes it
(_envelope).  A corpus runs in input order in this process; once its
measured row work passes _POOL_AFTER_S, --jobs N hands the rows left to at
most min(N, CPUs, rows left) worker processes, in input-ordered chunks.
Exit codes: 0 success, 1 input error, 2 verification mismatch, 3 budget
exceeded, 4 internal error (a bug, not a problem with the input).

A command loads only the modules it runs: counting, hypercube, kerror and
verify are imported inside the commands and row workers that call them,
and json only where a JSON report is built, so `lc` runs on lincomp and
sequences alone, and builds each distinct canonical form once.
"""

from __future__ import annotations

import os
import sys
from functools import cache, partial
from itertools import chain
from pathlib import Path
from time import perf_counter

import click

from . import __version__
from .errors import (
    DEFAULT_CAP,
    ENUM_CAP,
    BudgetExceeded,
    NoEligibleExponent,
    NotAHypercube,
    OddP,
    SeqComplexError,
)
from .lincomp import lc, lc_form_decompose
from .sequences import Modulus, PeriodicSequence, parse_corpus, parse_sequence

SCHEMA = "seqcomplex/1"

__all__ = ["cli", "main"]


# -- plumbing -------------------------------------------------------------------

_MODULUS = (
    click.option("--p", type=int, required=True, help="prime base of the period"),
    click.option("--n", type=int, required=True, help="period exponent: the period is p^n"),
)
_INPUT = (
    click.option("--seq", "literal", help="sequence literal of 0/1 characters"),
    click.option(
        "--file", "path", type=click.Path(exists=True, dir_okay=False),
        help="corpus file: one sequence per line, # comments and blanks skipped",
    ),
)
_JOBS = click.option(
    "--jobs", type=click.IntRange(min=1), default=1, show_default=True,
    help="most worker processes for a corpus, started only once its measured "
         "row work could repay them",
)
_CAP = click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_CAP, show_default=True)


def _command(group, name, *own, rows=False, formats=("text", "json"), modulus=_MODULUS):
    """Register the decorated function as group's subcommand name.

    Its options, in help order: modulus, --seq/--file if it reads rows, own,
    --format/--out, then --jobs if it reads rows.
    """
    output = (
        click.option("--format", "fmt", type=click.Choice(formats), default="text",
                     show_default=True),
        click.option("--out", type=click.Path(dir_okay=False), help="write the report to this file"),
    )
    options = (*modulus, *(_INPUT if rows else ()), *own, *output, *((_JOBS,) if rows else ()))

    def deco(f):
        for option in reversed(options):
            f = option(f)
        return group.command(name)(f)
    return deco


def _load(modulus: Modulus, literal: str | None, path: str | None):
    if (literal is None) == (path is None):
        raise click.UsageError("exactly one of --seq or --file is required")
    if literal is not None:
        return [(None, parse_sequence(literal, modulus))]
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise click.FileError(path, hint=str(e))
    return list(parse_corpus(lines, modulus))


def _row(worker, row):
    """worker(s) for the row (no, s); a domain error is re-raised tagged with
    the row's line number."""
    no, s = row
    try:
        return worker(s)
    except SeqComplexError as e:
        if no is None:
            raise
        raise type(e)(f"line {no}: {e}")


# Row work, in seconds, that must be both measured and projected to remain
# before a pool starts.  Starting and feeding a two-worker pool costs 30-60 ms
# on a 2-vCPU VM (2000 period-243 lc rows: 26 ms in-process, 58 ms pooled), so
# this much left, split over two workers, about repays it; brute-force
# k-error rows take tenths of a second each.  The measured part keeps one cold
# first row from starting a pool on a cheap corpus.
_POOL_AFTER_S = 0.1


def _workers(jobs: int, nrows: int) -> int:
    """Worker processes for nrows rows: at most jobs, one per CPU, one per row."""
    return min(jobs, os.cpu_count() or 1, nrows)


def _map_rows(worker, rows, jobs: int):
    """Apply worker to each sequence, in input order.

    Rows run in this process.  Where no pool could start (one worker for the
    whole corpus, as at --jobs 1) no row is timed.  Otherwise the clock is
    read once before each row after the first, and the rows run here until,
    before some row, more than one worker is available for the rows left and
    both the time since the loop started and the time projected for the rest
    reach _POOL_AFTER_S.  The rows left go to at most jobs worker processes
    in input-ordered chunks.  A domain error is re-raised tagged with its
    row's line number; pool.map reads the chunks in input order and a chunk
    stops at its first failing row, so the first failing row in input order
    is the one reported.
    """
    if _workers(jobs, len(rows)) < 2:
        return [r + (_row(worker, r),) for r in rows]
    done = []
    start = perf_counter()
    for i, r in enumerate(rows):
        if i and (spent := perf_counter() - start) >= _POOL_AFTER_S:
            left = len(rows) - i
            if spent / i * left >= _POOL_AFTER_S and _workers(jobs, left) > 1:
                break
        done.append(r + (_row(worker, r),))
    rest = rows[len(done):]
    if not rest:
        return done
    from concurrent.futures import ProcessPoolExecutor

    workers = _workers(jobs, len(rest))
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        chunksize = -(-len(rest) // (4 * workers))
        recs = pool.map(partial(_row, worker), rest, chunksize=chunksize)
        return done + [(no, s, rec) for (no, s), rec in zip(rest, recs)]
    finally:
        pool.shutdown(cancel_futures=True)


def _emit(payload: str, out: str | None) -> None:
    """Write payload and a newline to stdout or out; an empty payload, a text
    report of no rows, writes no bytes."""
    text = payload + "\n" if payload else ""
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        Path(out).write_text(text)
    except OSError as e:
        raise click.FileError(out, hint=e.strerror or str(e))


def _envelope(command: str, modulus: Modulus | None, results) -> str:
    """The bytes of json.dumps(doc, indent=2), written by the C encoder.

    The C encoder has no indent, but its item separator may hold a newline:
    with ",\\n  " a flat dict comes out as its indented body without the
    newlines after "{" and before "}", and an encoded string never holds a
    raw newline.  So the head, and a results list of non-empty records with
    scalar values, are one encode each; the records' boundaries get their
    braces' newlines, and one replace indents the body to its depth.  Any
    other record is dumped alone with indent=2 and indented the same way.
    """
    import json

    encode = json.JSONEncoder(separators=(",\n  ", ": ")).encode
    doc: dict = {"schema": SCHEMA, "command": command}
    if modulus is not None:
        doc["p"] = modulus.p
        doc["n"] = modulus.n
    head = "{\n  " + encode(doc)[1:-1] + ',\n  "results": '
    if not results:
        return head + "[]\n}"
    if set(map(type, results)) == {dict} and all(results) and not any(
        issubclass(t, (dict, list, tuple))
        for t in set(map(type, chain.from_iterable(map(dict.values, results))))
    ):
        body = "{\n  " + encode(results)[2:-2].replace("},\n  {", "\n},\n{\n  ") + "\n}"
    else:
        body = ",\n".join(json.dumps(rec, indent=2) for rec in results)
    return head + "[\n    " + body.replace("\n", "\n    ") + "\n  ]\n}"


def _render(command, modulus, mapped, fmt, out, text_line) -> None:
    """Rows (line, subject, record) as one JSON envelope, or one text block
    per row from text_line(subject, record)."""
    if fmt == "json":
        results = [rec if no is None else {"line": no, **rec} for no, _, rec in mapped]
        _emit(_envelope(command, modulus, results), out)
        return
    lines = []
    for no, s, rec in mapped:
        prefix = f"line {no}: " if no is not None else ""
        lines.append(prefix + text_line(s, rec))
    _emit("\n".join(lines), out)


def _rows(command, worker, text_line, p, n, literal, path, fmt, out, jobs) -> None:
    """A sequence command: its worker mapped over the rows of --seq or --file,
    rendered in fmt (CSV is celcs's alone)."""
    modulus = Modulus(p, n)
    mapped = _map_rows(worker, _load(modulus, literal, path), jobs)
    if fmt == "csv":
        _emit(_celcs_csv(mapped, corpus=path is not None), out)
        return
    _render(command, modulus, mapped, fmt, out, text_line)


# -- per-sequence workers (top level so process pools can pickle them) -----------

@cache
def _form_text(L: int, modulus: Modulus) -> str:
    """The canonical form of L, built once per distinct L in a corpus.

    A random corpus holds few distinct L (4 in 2000 random rows at 3^5), and
    the cache holds at most one text per attainable L of each modulus.
    """
    return str(lc_form_decompose(L, modulus))


def _lc_record(s: PeriodicSequence) -> dict:
    L = lc(s)
    return {"L": L, "canonical_form": _form_text(L, s.modulus), "weight": s.weight}


def _klc_record(s: PeriodicSequence, k: int, cap: int) -> dict:
    from .kerror import k_error_lc_bruteforce

    return {"k": k, "L_k": k_error_lc_bruteforce(s, k, cap=cap)}


def _celcs_record(s: PeriodicSequence, mode: str, cap: int) -> dict:
    from .kerror import celcs

    if mode == "both":
        f, b = celcs(s, mode="formula", cap=cap), celcs(s, mode="brute", cap=cap)
        return {"mode": mode, "points": b, "formula_points": f, "agree": f == b}
    return {"mode": mode, "points": celcs(s, mode=mode, cap=cap)}


def _structure_record(s: PeriodicSequence) -> dict:
    from .hypercube import extract_structure, lc_from_structure, next_lower_hypercube_lc

    try:
        st = extract_structure(s)
    except NotAHypercube as e:
        return {"is_hypercube": False, "reason": str(e)}
    rec = {
        "is_hypercube": True,
        "m": st.m,
        "edges": list(st.edges),
        "vertex": str(st.vertex),
        "epsilon": st.epsilon,
        "L": lc_from_structure(st, s.modulus),
    }
    try:
        rec["next_lower_hypercube_lc"] = next_lower_hypercube_lc(st, s.modulus)
    except NoEligibleExponent:
        rec["next_lower_hypercube_lc"] = None
    return rec


def _decompose_record(s: PeriodicSequence, detail: bool) -> dict:
    """Each part's L; with detail, its literal and structure too."""
    from .hypercube import standard_decompose

    dec = standard_decompose(s)
    if not detail:
        return {"parts": [{"L": L} for L in dec.complexities]}
    return {
        "parts": [
            {"seq": part.to01(), "L": L, "structure": str(st)}
            for part, st, L in zip(dec.parts, dec.structures, dec.complexities)
        ]
    }


def _mcrit_record(s: PeriodicSequence, mode: str, cap: int) -> dict:
    from .kerror import first_critical_bruteforce, first_critical_m, kurosawa_m, meidl_upper_bound

    rec: dict = {"mode": mode}
    if mode in ("formula", "both"):
        if s.modulus.p == 2:
            rec.update(m=kurosawa_m(s), L_after=None, m1=None, vertex_j=None)
        else:
            rep = first_critical_m(s)
            rec.update(m=rep.m_s, L_after=rep.L_after, m1=rep.m1_s, vertex_j=rep.vertex_j)
    if mode in ("brute", "both"):
        rep = first_critical_bruteforce(s, cap=cap)
        brute = {"m": rep.m_s, "L_after": rep.L_after, "m1": rep.m1_s}
        if mode == "brute":
            rec.update(brute, vertex_j=None)
    rec["bound"] = meidl_upper_bound(s) if s.modulus.p != 2 else None
    if mode == "both":
        rec["brute"] = brute
        rec["agree"] = rec["m"] == brute["m"]
    return rec


# -- commands ---------------------------------------------------------------------

@click.group()
@click.version_option(version=__version__)
def cli() -> None:
    """Analyze p^n-periodic binary sequences."""


@_command(cli, "lc", rows=True)
def lc_cmd(**shared):
    """Exact linear complexity of each input sequence."""
    _rows("lc", _lc_record, lambda s, rec: str(rec["L"]), **shared)


@_command(
    cli, "klc",
    click.option("--k", type=int, required=True, help="error budget"),
    click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_CAP, show_default=True,
                 help="largest tolerated error-pattern enumeration"),
    rows=True,
)
def klc_cmd(k, cap, **shared):
    """k-error linear complexity L_k by exhaustive error enumeration."""
    _rows("klc", partial(_klc_record, k=k, cap=cap), lambda s, rec: str(rec["L_k"]), **shared)


def _celcs_text(s: PeriodicSequence, rec: dict) -> str:
    body = " ".join(f"({k},{L})" for k, L in rec["points"])
    if rec["mode"] == "both":
        body += " agree" if rec["agree"] else " MISMATCH"
    return body


def _celcs_csv(mapped, corpus: bool) -> str:
    lines = ["seq,k,L_k" if corpus else "k,L_k"]
    for no, _, rec in mapped:
        for k, L in rec["points"]:
            lines.append(f"{no},{k},{L}" if corpus else f"{k},{L}")
    return "\n".join(lines)


@_command(
    cli, "celcs",
    click.option("--mode", type=click.Choice(["brute", "formula", "both"]), default="brute",
                 show_default=True, help="formula modes need a hypercube input"),
    _CAP,
    rows=True, formats=("text", "json", "csv"),
)
def celcs_cmd(mode, cap, **shared):
    """Critical points (k, L_k) of the k-error complexity spectrum."""
    _rows("celcs", partial(_celcs_record, mode=mode, cap=cap), _celcs_text, **shared)


def _structure_text(s: PeriodicSequence, rec: dict) -> str:
    if not rec["is_hypercube"]:
        return f"not a hypercube: {rec['reason']}"
    edges = ",".join(map(str, rec["edges"])) or "-"
    return f"m={rec['m']} edges={edges} vertex={rec['vertex']} L={rec['L']}"


@_command(cli, "structure", rows=True)
def structure_cmd(**shared):
    """Hypercube (or p=2 cube) structure: dimension, edges, vertex."""
    _rows("structure", _structure_record, _structure_text, **shared)


def _decompose_text(detail: bool, s: PeriodicSequence, rec: dict) -> str:
    ls = ", ".join(str(part["L"]) for part in rec["parts"])
    head = f"{len(rec['parts'])} parts, L = {ls}"
    if detail:
        details = "\n".join(
            f"  L={part['L']} [{part['structure']}] {part['seq']}" for part in rec["parts"]
        )
        return head + "\n" + details
    return head


@_command(cli, "decompose", rows=True)
def decompose_cmd(literal, fmt, **shared):
    """Decompose into hypercubes with strictly decreasing complexities."""
    # a --file text report prints one head line a row; JSON and --seq print every part
    detail = fmt == "json" or literal is not None
    _rows("decompose", partial(_decompose_record, detail=detail),
          partial(_decompose_text, detail), literal=literal, fmt=fmt, **shared)


def _mcrit_text(s: PeriodicSequence, rec: dict) -> str:
    body = f"m={rec['m']}"
    if rec.get("L_after") is not None:
        body += f" L_m={rec['L_after']}"
    if rec.get("m1") is not None:
        body += f" m1={rec['m1']}"
    if rec.get("bound") is not None:
        body += f" bound={rec['bound']}"
    if "agree" in rec:
        body += " agree" if rec["agree"] else " MISMATCH"
    return body


@_command(
    cli, "mcrit",
    click.option("--mode", type=click.Choice(["formula", "brute", "both"]), default="formula",
                 show_default=True),
    _CAP,
    rows=True,
)
def mcrit_cmd(mode, cap, **shared):
    """First critical error count m(s), witness complexity, second point."""
    _rows("mcrit", partial(_mcrit_record, mode=mode, cap=cap), _mcrit_text, **shared)


def _parse_edges(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise click.UsageError(f"--edges must be comma-separated integers, got {text!r}")


@cli.group("count")
def count_group() -> None:
    """Counting formulas, optionally cross-checked by enumeration."""


@_command(
    count_group, "lc",
    click.option("--L", "L", type=int, required=True, help="target linear complexity"),
)
def count_lc_cmd(p, n, L, fmt, out):
    """How many sequences have complexity exactly L (odd p)."""
    from .counting import count_sequences_with_lc

    modulus = Modulus(p, n)
    res = count_sequences_with_lc(modulus, L)
    rec = {"L": L, "count": res.value, "expression": res.expression}
    _render("count lc", modulus, [(None, res, rec)], fmt, out, lambda res, _: str(res))


def _class_text(res, rec: dict) -> str:
    """A counted class's count line, then any enumerated members."""
    return "\n".join([f"{res} (L = {rec['L']})", *rec.get("members", ())])


def _count_class(command, count, members, p, n, edges, do_enum, cap, fmt, out, **vertex):
    """One counted class: its count and L and, with do_enum, its members.

    vertex is {"l": l} for a hypercube class; a cube class passes none, and
    its record has no l.
    """
    from .counting import class_lc

    modulus = Modulus(p, n)
    es = _parse_edges(edges)
    res = count(modulus, es, **vertex)
    rec = {"edges": list(es), **vertex, "count": res.value, "expression": res.expression,
           "L": class_lc(modulus, es, **vertex)}
    if do_enum:
        rec["members"] = [s.to01() for s in members(modulus, es, cap=cap, **vertex)]
    _render(command, modulus, [(None, res, rec)], fmt, out, _class_text)


_ENUMERATE = (
    click.option("--enumerate", "do_enum", is_flag=True, help="list every member"),
    click.option("--cap", type=click.IntRange(min=1), default=ENUM_CAP, show_default=True),
)


@_command(
    count_group, "hypercubes",
    click.option("--edges", default="", help="comma-separated edge exponents, e.g. 0,1"),
    click.option("--l", "l", type=int, default=None,
                 help="vertex weight for the length-0 tuple class; omit for element vertices"),
    *_ENUMERATE,
)
def count_hypercubes_cmd(**opts):
    """How many hypercubes share the given edge exponents and vertex class."""
    from .counting import count_hypercubes, enumerate_hypercubes

    _count_class("count hypercubes", count_hypercubes, enumerate_hypercubes, **opts)


@_command(
    count_group, "cubes",
    click.option("--edges", default="", help="comma-separated edge exponents"),
    *_ENUMERATE,
)
def count_cubes_cmd(**opts):
    """How many p=2 cubes share the given edge exponents."""
    from .counting import count_hypercubes, enumerate_hypercubes

    def count(modulus, edges):
        # refused here, once the modulus is built and --edges parsed, and
        # before the edges are checked against it
        if modulus.p != 2:
            raise OddP("count_cubes requires p = 2")
        return count_hypercubes(modulus, edges)

    _count_class("count cubes", count, enumerate_hypercubes, **opts)


@_command(
    cli, "construct-stable",
    click.option("--k", type=int, required=True, help="error budget the complexity must survive"),
)
def construct_stable_cmd(p, n, k, fmt, out):
    """Build a sequence whose L_k equals its L: p^l ones, p^(l-1) <= k < p^l."""
    from .kerror import construct_stable

    modulus = Modulus(p, n)
    s = construct_stable(modulus, k)
    rec = {"k": k, "seq": s.to01(), "L": lc(s), "stable_through": s.weight - 1,
           "first_drop": s.weight}

    def text(s, rec):
        return (f"{rec['seq']} L={rec['L']} stable_through={rec['stable_through']} "
                f"first_drop={rec['first_drop']}")

    _render("construct-stable", modulus, [(None, s, rec)], fmt, out, text)


# verify.SUITES's names, sorted; kept here so --help needs no verify import
_SUITE_NAMES = (
    "bounds", "counting", "decomposition", "lc-oracle", "mcrit-exhaustive", "stability",
)


@_command(
    cli, "verify",
    click.option("--suite", "suites", multiple=True, type=click.Choice(_SUITE_NAMES),
                 help="suite to run; repeatable; default all"),
    click.option("--seed", type=int, default=0, show_default=True),
    _CAP,
    modulus=(
        click.option("--p", type=int, default=None, help="restrict sweeps to this prime base"),
        click.option("--n", type=int, default=None,
                     help="restrict sweeps to this period exponent"),
    ),
)
def verify_cmd(p, n, suites, seed, cap, fmt, out):
    """Cross-check the closed forms against brute force; exit 2 on mismatch."""
    from .verify import run_suites

    if (p is None) != (n is None):
        raise click.UsageError("--p and --n must be given together")
    modulus = Modulus(p, n) if p is not None else None
    reports = run_suites(list(suites) or None, modulus=modulus, seed=seed, cap=cap)
    rows = [
        (None, r, {"suite": r.name, "checks": r.checks, "agreements": r.agreements,
                   "failures": r.failures, "counterexamples": r.details})
        for r in reports
    ]

    def text(r, rec):
        return "\n".join([str(r), *(f"  counterexample: {d}" for d in r.details)])

    _render("verify", modulus, rows, fmt, out, text)
    return 2 if any(not r.ok for r in reports) else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping domain errors to the documented exit codes.

    Counts print exactly at any size: Python's int-to-str digit limit, where
    the interpreter has one, is lifted while the command runs.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return cli.main(args=argv, standalone_mode=False) or 0
    except click.Abort:
        click.echo("aborted", err=True)
        return 130
    except click.exceptions.NoArgsIsHelpError as e:
        # a bare group, like --help: its help on stdout
        click.echo(e.ctx.get_help())
        return 0
    except click.ClickException as e:
        e.show()
        return 1
    except BudgetExceeded as e:
        click.echo(f"error: {e}", err=True)
        return 3
    except SeqComplexError as e:
        click.echo(f"error: {e}", err=True)
        return 1
    except Exception as e:
        click.echo(f"internal error: {e!r}", err=True)
        return 4
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())

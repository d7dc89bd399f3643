"""The workloads: seeded inputs, timed record pipelines, output checks.

Every input is generated from the workload's seed; the library only sees the
generated text.  A run is a fixed number of whole passes, so that each run
measures the same mix; pass i of a record workload runs round i of its
records.
"""

from __future__ import annotations

import inspect
import json
import random
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from seqcomplex import (
    Modulus,
    PeriodicSequence,
    celcs,
    cube_lc,
    first_critical_bruteforce,
    first_critical_m,
    k_error_lc_bruteforce,
    kurosawa_m,
    lc,
    lc_form_decompose,
    meidl_upper_bound,
    parse_sequence,
    run_suites,
    standard_decompose,
)
from seqcomplex import verify
from seqcomplex.errors import NotACube
from seqcomplex.verify import SUITES

import oracles
from hostprobe import HostProbe, around
from tracing import Tracer

CLI_MAIN = "import sys; from seqcomplex.cli import main; sys.exit(main())"

# Counts recorded at a boundary, from the call's arguments and result.
BOUNDARY_COUNTS = {
    "parse_sequence": lambda args, r: r.modulus.period,
    "to01": lambda args, r: len(r),
    "standard_decompose": lambda args, r: len(r.parts),
    "enumerate_hypercubes": lambda args, r: len(r),
    "enumerate_cubes": lambda args, r: len(r),
    "run_suites": lambda args, r: sum(rep.checks for rep in r),
}


def layer_of(fn) -> str:
    return fn.__module__.rpartition(".")[2]


class Api:
    """The public library calls the record pipelines make, traced or not."""

    CALLS = (
        parse_sequence, PeriodicSequence.to01, lc, lc_form_decompose,
        standard_decompose, cube_lc, celcs, k_error_lc_bruteforce, kurosawa_m,
        first_critical_m, meidl_upper_bound, first_critical_bruteforce, run_suites,
    )

    def __init__(self, tracer: Tracer | None = None) -> None:
        for fn in self.CALLS:
            name = fn.__name__
            if tracer is not None:
                fn = tracer.wrap(f"{layer_of(fn)}.{name}", fn, BOUNDARY_COUNTS.get(name))
            setattr(self, name, fn)


@contextmanager
def traced_verify_imports(tracer: Tracer):
    """Wrap the public functions verify imports, and the to01 it calls on
    every swept sequence, for the traced run only."""
    originals = {
        name: obj for name, obj in vars(verify).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ != verify.__name__
    }
    for name, fn in originals.items():
        setattr(verify, name, tracer.wrap(f"{layer_of(fn)}.{name}", fn, BOUNDARY_COUNTS.get(name)))
    to01 = PeriodicSequence.to01
    PeriodicSequence.to01 = tracer.wrap("sequences.to01", to01, BOUNDARY_COUNTS["to01"])
    try:
        yield
    finally:
        PeriodicSequence.to01 = to01
        for name, fn in originals.items():
            setattr(verify, name, fn)


@dataclass
class Pass:
    """One pass over a workload's units.

    A unit is one timed call: a record's pipeline, a suite call or a CLI
    invocation.  units holds [key, records, seconds, output, k] per unit
    run, where probes[k] is the last host probe timed before it; the pass
    ends with a probe.
    """

    index: int = 0
    wall: float = 0.0
    units: list[list] = field(default_factory=list)
    child_cpu: float = 0.0
    cli_wall: dict[str, float] = field(default_factory=dict)  # str(jobs) -> seconds
    probes: list[float] = field(default_factory=list)  # host probe times, in seconds


def _rng(workload: str, seed: int, index: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _text(N: int, ones) -> str:
    buf = bytearray(b"0" * N)
    for i in ones:
        buf[i] = 0x31
    return buf.decode()


def _planted_cube(rng: random.Random, n: int, edges: tuple[int, ...]) -> list[int]:
    """Support of a 2^n-periodic cube, built from the scalar 1 upwards.

    An edge level repeats the support one half-period on; any other level moves
    each 1 into one of the two halves, so that no halving step cancels ones.
    """
    ones = [0]
    for e in range(n):
        half = 1 << e
        if e in edges:
            ones = ones + [t + half for t in ones]
        else:
            ones = [t + half * rng.randrange(2) for t in ones]
    return ones


@dataclass(frozen=True)
class Record:
    mod: Modulus
    line: str
    cube: tuple | None = None  # (edges,) of a planted p = 2 cube


# -- descent-large --------------------------------------------------------------------
#
# Why: sequences I/O and the list-based hypercube descent (_descend) do almost
# all the work here.  On a shared 2-vCPU x86 host, at period 3^9 decompose
# takes about 370 ms, to01 20 ms and lc 0.07 ms; at 2^16, to01 takes 130 ms.
# An int-bitmask descent with linear-time text I/O should show here.  kerror
# is idle, so it should not move.

# (p, n, dense, sparse) records per round; the record set is two rounds.  At
# 3^10 a round holds one record: dense in even rounds, sparse in odd ones.  The eleven dense 2^16 records put
# the 90th percentile inside one block of equal-cost records, whose cost is
# text I/O alone.  Periods stay below the 2^20 cap: at the cap, to01 alone
# takes about 27 s, too long for repeated runs.
DESCENT_SLOTS = (
    (3, 7, 12, 12), (3, 8, 6, 6), (3, 9, 1, 1), (3, 10, 1, 1), (5, 5, 12, 12),
    (2, 14, 6, 6), (2, 15, 4, 4), (2, 16, 11, 1),
)


def descent_records(seed: int, index: int) -> list[Record]:
    rng = _rng("descent-large", seed, index)
    out = []
    for p, n, dense, sparse in DESCENT_SLOTS:
        mod = Modulus(p, n)
        N = mod.period
        if n == 10:
            dense, sparse = (1, 0) if index % 2 == 0 else (0, 1)
        for _ in range(dense):
            # p = 2 weights avoid powers of two, so no dense record is a cube
            out.append(Record(mod, _text(N, rng.sample(range(N), N // 2 + (p == 2)))))
        for _ in range(sparse):
            if p == 2:
                edges = tuple(sorted(rng.sample(range(n), rng.randint(3, 8))))
                out.append(Record(mod, _text(N, _planted_cube(rng, n, edges)), (edges,)))
            else:
                out.append(Record(mod, _text(N, rng.sample(range(N), N // 128))))
    # a shuffled round spreads each size over the pass, so a burst of load on
    # a shared host slows a few records of many sizes, not every record of one
    rng.shuffle(out)
    return out


def descent_record(api: Api, mod: Modulus, line: str) -> str:
    s = api.parse_sequence(line, mod)
    L = api.lc(s)
    if mod.p == 2:
        try:
            m, edges, cube_L = api.cube_lc(s)
            cube = f"cube:{m}:{','.join(map(str, edges))}:{cube_L}"
        except NotACube:
            cube = "not-a-cube"
        return f"{L}|{cube}|{api.to01(s)}"
    form = api.lc_form_decompose(L, mod)
    dec = api.standard_decompose(s)
    parts = "|".join(f"{Lp}:{api.to01(part)}" for part, Lp in zip(dec.parts, dec.complexities))
    return f"{L}|{form}|{parts}"


# -- kerror-small --------------------------------------------------------------------
#
# Why: error-pattern enumeration dominates, and text I/O is idle.  An exact
# k-error engine in place of brute force should show here.

# (p, n, low weights, copies of each, dense copies).  celcs and brute-force
# mcrit enumerate every error pattern up to the weight, so cost grows steeply
# with weight: at period 27, weight 5 already takes up to 0.4 s.  Weights stay
# low enough that no single record dominates a run.
KERROR_SLOTS = (
    (3, 2, (2, 3, 4, 5), 3, 8), (11, 1, (2, 3, 4, 5), 3, 8),
    (13, 1, (2, 3, 4, 5), 3, 6), (2, 4, (2, 3, 4, 5), 3, 4),
    (5, 2, (2, 3, 4), 2, 0), (3, 3, (2, 3, 4), 2, 0),
)


def kerror_records(seed: int, index: int) -> list[Record]:
    rng = _rng("kerror-small", seed, index)
    out = []
    for p, n, weights, copies, dense in KERROR_SLOTS:
        mod = Modulus(p, n)
        N = mod.period
        for w in weights * copies + (N // 2,) * dense:
            out.append(Record(mod, _text(N, rng.sample(range(N), w))))
    rng.shuffle(out)
    return out


def kerror_record(api: Api, mod: Modulus, line: str) -> str:
    """The calls of celcs, klc --k 2 and mcrit --mode both on one sequence."""
    s = api.parse_sequence(line, mod)
    points = ",".join(f"{pt.k}:{pt.L}" for pt in api.celcs(s))
    l2 = api.k_error_lc_bruteforce(s, 2)
    if mod.p == 2:
        form_m, bound = api.kurosawa_m(s), None
    else:
        form_m, bound = api.first_critical_m(s).m_s, api.meidl_upper_bound(s)
    brute = api.first_critical_bruteforce(s)
    return f"{points}|{l2}|{form_m}|{bound}|{brute.m_s},{brute.L_after},{brute.m1_s}"


# -- workloads --------------------------------------------------------------------------

def weighted_quantile(samples: list[tuple[float, int]], share: float) -> float:
    """Least value whose weight, with that of every smaller value, reaches share."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    seen = 0
    for value, w in ordered:
        seen += w
        if seen >= share * total:
            return value
    return ordered[-1][0]


class Workload:
    """A fixed set of units, run once per pass; a run is several passes.

    A unit's time in a run is the median of its timings, which are spread
    over the run's passes and worker processes.  The host probe is timed
    between units, so that each timing can be scaled to reference speed.
    """

    name = ""
    why = ""
    moduli: tuple[tuple[int, int], ...] = ()
    workers: int  # processes per timed run; each lays out memory afresh
    rss_of_children = False
    pass_seconds: float  # nominal time of one pass on a 2-vCPU x86 host
    records_wait_for_unit = False  # True: a record's latency is its unit's whole time

    def generate(self, seed: int, work: Path):
        raise NotImplementedError

    def corpus_bytes(self, inputs) -> bytes:
        raise NotImplementedError

    def setup_argv(self) -> list[str]:
        """A fresh process: import seqcomplex and build the workload's moduli."""
        mods = ", ".join(f"({p}, {n})" for p, n in self.moduli)
        return [sys.executable, "-c",
                f"from seqcomplex import Modulus\nfor p, n in [{mods}]: Modulus(p, n)"]

    def run_pass(self, inputs, index: int, api: Api, tracer: Tracer | None, probe: HostProbe,
                 env: dict) -> Pass:
        raise NotImplementedError

    def check_unit(self, inputs, key: str, output, context: dict) -> int:
        """Records of one unit whose output fails its oracle."""
        raise NotImplementedError

    def failures(self, inputs, passes: list[Pass]) -> int:
        """The first output of each unit goes to its oracle; every later
        output of the unit must repeat it exactly."""
        failed = 0
        context: dict = {}
        first: dict[str, object] = {}
        for p in passes:
            for key, records, _, output, _ in p.units:
                if key not in first:
                    first[key] = output
                    failed += self.check_unit(inputs, key, output, context)
                elif first[key] != output:
                    failed += records
        return failed

    def unit_times(self, passes: list[Pass], scaled: bool) -> dict[str, tuple[int, float]]:
        """Each unit's records and median time over a run's passes; scaled
        divides each timing by the host's slowness around it."""
        times: dict[str, list[float]] = {}
        records: dict[str, int] = {}
        for p in passes:
            for key, n, seconds, _, k in p.units:
                if scaled:
                    seconds /= around(p.probes, k)
                times.setdefault(key, []).append(seconds)
                records[key] = n
        return {k: (records[k], statistics.median(v)) for k, v in times.items()}

    def records_per_s(self, times: dict[str, tuple[int, float]]) -> float:
        return sum(r for r, _ in times.values()) / sum(t for _, t in times.values())

    def percentiles(self, times: dict[str, tuple[int, float]]) -> tuple[float, float]:
        """Median and 90th percentile of the per-record latency, in seconds."""
        if self.records_wait_for_unit:
            samples = [(t, r) for r, t in times.values()]
        else:
            samples = [(t / r, r) for r, t in times.values()]
        return weighted_quantile(samples, 0.5), weighted_quantile(samples, 0.9)


class RecordWorkload(Workload):
    """One library pipeline per text record, timed per record.

    The record set is the first few rounds of the seed's records, each round
    the same mix of periods and weights drawn afresh; every pass runs all of
    them in the same order.
    """

    def __init__(self, name, why, pass_seconds, workers, rounds, slots, records, pipeline,
                 check) -> None:
        self.name, self.why = name, why
        self.pass_seconds, self.workers, self.rounds = pass_seconds, workers, rounds
        self.moduli = tuple((slot[0], slot[1]) for slot in slots)
        self._records, self._pipeline, self._check = records, pipeline, check

    def generate(self, seed, work):
        return [r for i in range(self.rounds) for r in self._records(seed, i)]

    def corpus_bytes(self, inputs) -> bytes:
        return "".join(f"{r.mod} {r.line}\n" for r in inputs).encode()

    def run_pass(self, inputs, index, api, tracer, probe, env):
        fn = self._pipeline
        if tracer is not None:
            fn = tracer.record_span(fn)
        out = Pass(index)
        start = perf_counter()
        for i, r in enumerate(inputs):
            probe.sample(out.probes)
            t0 = perf_counter()
            line = fn(api, r.mod, r.line)
            out.units.append([str(i), 1, perf_counter() - t0, line, len(out.probes) - 1])
        out.wall = perf_counter() - start
        out.probes.append(probe.time())
        return out

    def check_unit(self, inputs, key, output, context):
        return bool(self._check(inputs[int(key)], output, context))


def _check_descent(r: Record, out: str, context: dict) -> list[str]:
    return oracles.check_descent(r.mod, r.line, out, r.cube)


def _check_kerror(r: Record, out: str, context: dict) -> list[str]:
    ball = None
    if r.mod.period <= oracles.BALL_MAX_PERIOD:
        if r.mod not in context:
            context[r.mod] = oracles.HammingBall(r.mod)
        ball = context[r.mod]
    return oracles.check_kerror(r.mod, r.line, out, ball)


class VerifyWorkload(Workload):
    """Why: this uses hypercube and lincomp differently from descent-large.  It
    makes thousands of tiny descents, Berlekamp-Massey oracle calls and counting
    enumerations, not a few huge descents.  A change that speeds up large
    descents but adds per-call cost shows as a regression here.  A record is
    one suite check; a unit is one suite call, and a check's latency is the
    mean check time of its call."""

    name = "verify-sweep"
    why = ("thousands of tiny descents, Berlekamp-Massey oracle calls and counting "
           "enumerations: a change that speeds large descents but adds per-call cost shows here")
    moduli = (
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
        (5, 1), (5, 2), (11, 1),
    )
    workers = 2
    # A pass is run_suites() at its defaults, one suite per call: about 3 s
    # on a 2-vCPU x86 host.  Pass i uses suite seed 1000 * seed + i, so that a
    # unit's median time is taken over many seeded samples: with the seed
    # alone, the bounds suite took from 0.3 to 0.9 s.  The checks each suite
    # makes, and their outcomes, do not depend on the suite seed.
    # run_suites(["counting"], modulus=Modulus(3, 4)) is left out: it takes
    # 6.5 s for 20 checks, so a run could repeat it only once or twice, and
    # its one slow timing would set records_per_s.
    pass_seconds = 3.4
    UNITS = tuple(SUITES)

    def generate(self, seed, work):
        return seed

    def corpus_bytes(self, inputs) -> bytes:
        return f"run_suites seed={inputs}\n".encode()

    def run_pass(self, inputs, index, api, tracer, probe, env):
        out = Pass(index)
        call = api.run_suites
        if tracer is not None:
            call = tracer.record_span(call)
        with traced_verify_imports(tracer) if tracer is not None else nullcontext():
            start = perf_counter()
            for name in self.UNITS:
                probe.sample(out.probes)
                t0 = perf_counter()
                (rep,) = call([name], seed=1000 * inputs + index)
                seconds = perf_counter() - t0
                out.units.append([name, rep.checks, seconds,
                                  [rep.checks, rep.failures, list(rep.details)],
                                  len(out.probes) - 1])
            out.wall = perf_counter() - start
        out.probes.append(probe.time())
        return out

    def check_unit(self, inputs, key, output, context):
        if "ball9" not in context:
            context["ball9"] = oracles.HammingBall(Modulus(3, 2))
        return oracles.check_verify((key, None), *output, context["ball9"])


class CliWorkload(Workload):
    """Why: the only workload that measures the cli layer: process start, click,
    parse_corpus, the per-row process pool behind --jobs, and rendering.  On a
    shared 2-vCPU host --jobs 2 made lc over 2000 period-243 records slower
    (0.44 s to 1.40 s) and decompose over 50 period-2187 records faster (1.53 s
    to 1.23 s), which a cost-aware process model should change.  A unit is one
    CLI invocation; each record waits for the process that prints it."""

    name = "cli-corpus"
    why = ("the only workload that runs the cli layer: process start, click, parse_corpus, "
           "the --jobs pool and rendering, at --jobs 1 and 2")
    moduli = ((3, 5), (3, 7))
    workers = 1  # every invocation is a fresh process already
    rss_of_children = True
    records_wait_for_unit = True
    pass_seconds = 4.5
    SIZES = {"lc": (3, 5, 2000), "decompose": (3, 7, 50)}  # command: (p, n, records)

    def __init__(self, nproc: int) -> None:
        self.jobs = (1, min(2, nproc))

    def generate(self, seed, work):
        rng = _rng(self.name, seed)
        corpora = {}
        for command, (p, n, count) in self.SIZES.items():
            N = p**n
            lines = [_text(N, rng.sample(range(N), N // 2)) for _ in range(count)]
            path = work / f"{command}.txt"
            path.write_text("\n".join(lines) + "\n")
            corpora[command] = (Modulus(p, n), lines, path)
        return corpora

    def corpus_bytes(self, inputs) -> bytes:
        return b"".join(path.read_bytes() for _, _, path in inputs.values())

    def setup_argv(self):
        return [sys.executable, "-c", CLI_MAIN, "lc", "--p", "3", "--n", "1", "--seq", "110"]

    def plan(self) -> list[tuple[str, int]]:
        """(command, jobs) of every CLI run in one pass, in order."""
        return [(command, jobs) for command in self.SIZES for jobs in self.jobs]

    def invocations(self, work: Path) -> list[tuple[str, int, list[str]]]:
        out = []
        for command, jobs in self.plan():
            p, n, _ = self.SIZES[command]
            fmt = ["--format", "json"] if command == "lc" else []
            out.append((command, jobs, [
                sys.executable, "-c", CLI_MAIN, command, "--p", str(p), "--n", str(n),
                "--file", str(work / f"{command}.txt"), *fmt, "--jobs", str(jobs),
            ]))
        return out

    def run_pass(self, inputs, index, api, tracer, probe, env):
        out = Pass(index)
        work = inputs["lc"][2].parent
        for command, jobs, argv in self.invocations(work):
            probe.sample(out.probes)
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            span = tracer.span(f"cli.{command}.jobs{jobs}") if tracer is not None else nullcontext()
            with span:
                t0 = perf_counter()
                proc = subprocess.run(argv, env=env, capture_output=True, timeout=170)
                wall = perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            out.child_cpu += (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            out.cli_wall[str(jobs)] = out.cli_wall.get(str(jobs), 0.0) + wall
            out.wall += wall
            out.units.append([f"{command}.jobs{jobs}", len(inputs[command][1]), wall,
                              [proc.returncode, proc.stdout.decode()], len(out.probes) - 1])
        out.probes.append(probe.time())
        return out

    def expected(self, inputs) -> tuple[dict, int]:
        """The in-process pipeline's output per command, and its oracle failures."""
        mod, lines, _ = inputs["lc"]
        results, bad = [], 0
        for no, line in enumerate(lines, start=1):
            s = parse_sequence(line, mod)
            form = lc_form_decompose(lc(s), mod)
            rec = {"line": no, "L": form.value, "canonical_form": str(form), "weight": s.weight}
            bad += bool(oracles.lc_record(mod, line, rec["L"], rec["canonical_form"], rec["weight"]))
            results.append(rec)
        mod, lines, _ = inputs["decompose"]
        text = []
        for no, line in enumerate(lines, start=1):
            s = parse_sequence(line, mod)
            dec = standard_decompose(s)
            parts = [f"{L}:{part.to01()}" for part, L in zip(dec.parts, dec.complexities)]
            bad += bool(oracles.check_parts(mod, s.value, lc(s), parts))
            ls = ", ".join(map(str, dec.complexities))
            text.append(f"line {no}: {len(dec.parts)} parts, L = {ls}")
        return {"lc": results, "decompose": text}, bad

    def check_unit(self, inputs, key, output, context):
        failed = 0
        if "want" not in context:
            context["want"], failed = self.expected(inputs)
        command = key.partition(".")[0]
        want = context["want"][command]
        code, stdout = output
        got = _cli_records(command, code, stdout)
        failed += sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
        # --jobs must not change a single byte of the report
        if context.setdefault(command, stdout) != stdout:
            failed += len(want)
        return failed


def _cli_records(command: str, code: int, stdout: str) -> list:
    if code != 0:
        return []
    if command == "lc":
        return json.loads(stdout)["results"]
    return stdout.splitlines()


def all_workloads(nproc: int) -> dict[str, Workload]:
    descent = RecordWorkload(
        "descent-large",
        "sequences I/O and the list-based hypercube descent do almost all the work; "
        "kerror is idle, so it should not move",
        16.0, 3, 2, DESCENT_SLOTS, descent_records, descent_record, _check_descent,
    )
    kerror = RecordWorkload(
        "kerror-small",
        "error-pattern enumeration dominates and text I/O is idle",
        1.9, 2, 2, KERROR_SLOTS, kerror_records, kerror_record, _check_kerror,
    )
    out = [descent, kerror, VerifyWorkload(), CliWorkload(nproc)]
    return {w.name: w for w in out}

"""One timed worker process of a benchmark run.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS FIRST STRIDE TRACE OUT WORK

Runs whole passes of WORKLOAD with pass indices FIRST, FIRST + STRIDE, ...,
and writes them to OUT as JSON.  The number of passes is SECONDS over the
workload's nominal pass time, at least one: it is fixed, not timed, so that
a fast or slow moment of a shared host does not change what a run measures.
With TRACE 1 it runs the same passes twice, untraced and then traced, writes
the spans next to OUT's directory and adds the per-layer metrics.  Peak RSS
is this process's, or for the CLI workload that of the largest CLI process.
WORK holds the corpora.
The parent (run.py) checks every output after the worker has exited.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostprobe import HostProbe  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402
from workloads import Api, all_workloads  # noqa: E402

PER_LAYER = {
    "sequences.parse_s": "s",
    "sequences.format_s": "s",
    "sequences.calls": "count",
    "sequences.bits": "bit",
    "sequences.bits_per_s": "bit/s",
    "hypercube.self_s": "s",
    "hypercube.calls": "count",
    "hypercube.parts": "count",
    "lincomp.lc_s": "s",
    "lincomp.lc_calls": "count",
    "lincomp.oracle_s": "s",
    "lincomp.oracle_calls": "count",
    "kerror.self_s": "s",
    "kerror.calls": "count",
    "kerror.share": "ratio",
    "counting.self_s": "s",
    "counting.calls": "count",
    "counting.members": "count",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.checks_per_s": "1/s",
    "cli.wall_s": "s",
    "cli.child_cpu_s": "s",
    "cli.cpu_util": "ratio",
    "cli.invocations": "count",
    "cli.jobs1_s": "s",
    "cli.jobs2_s": "s",
    "trace.overhead": "ratio",
}


def run_passes(workload, inputs, api, tracer, probe, seconds: float, first: int,
               stride: int) -> list:
    count = max(1, round(seconds / workload.pass_seconds))
    env = dict(os.environ)
    return [workload.run_pass(inputs, first + stride * i, api, tracer, probe, env)
            for i in range(count)]


def per_layer(tracer: Tracer, traced: list, untraced: list) -> dict[str, float]:
    """Layer figures per pass of the traced run."""
    n = len(traced)
    parse_s = tracer.total_s("sequences.parse") / n
    format_s = tracer.total_s("sequences.to01") / n
    bits = tracer.counted("sequences.") / n
    oracle_s = tracer.total_s("lincomp.berlekamp_massey_lc") / n
    oracle_calls = tracer.calls("lincomp.berlekamp_massey_lc") / n
    suites_s = tracer.total_s("verify.run_suites") / n
    checks = tracer.counted("verify.run_suites") / n
    records_s = tracer.total_s(ROOT_SPAN)
    cli_wall = {j: sum(p.cli_wall.get(str(j), 0.0) for p in traced) for j in (1, 2)}
    jobs_wall = sum(j * w for j, w in cli_wall.items())
    child_cpu = sum(p.child_cpu for p in traced)
    traced_pass = sum(p.wall for p in traced) / n
    untraced_pass = sum(p.wall for p in untraced) / len(untraced)
    return {
        "sequences.parse_s": parse_s,
        "sequences.format_s": format_s,
        "sequences.calls": tracer.calls("sequences.") / n,
        "sequences.bits": bits,
        "sequences.bits_per_s": bits / (parse_s + format_s) if bits else 0.0,
        "hypercube.self_s": tracer.self_s("hypercube") / n,
        "hypercube.calls": tracer.calls("hypercube.") / n,
        "hypercube.parts": tracer.counted("hypercube.standard_decompose") / n,
        "lincomp.lc_s": tracer.total_s("lincomp.") / n - oracle_s,
        "lincomp.lc_calls": tracer.calls("lincomp.") / n - oracle_calls,
        "lincomp.oracle_s": oracle_s,
        "lincomp.oracle_calls": oracle_calls,
        "kerror.self_s": tracer.self_s("kerror") / n,
        "kerror.calls": tracer.calls("kerror.") / n,
        "kerror.share": tracer.self_s("kerror") / records_s if records_s else 0.0,
        "counting.self_s": tracer.self_s("counting") / n,
        "counting.calls": tracer.calls("counting.") / n,
        "counting.members": tracer.counted("counting.") / n,
        "verify.self_s": tracer.self_s("verify") / n,
        "verify.checks": checks,
        "verify.checks_per_s": checks / suites_s if suites_s else 0.0,
        "cli.wall_s": tracer.total_s("cli.") / n,
        "cli.child_cpu_s": child_cpu / n,
        "cli.cpu_util": child_cpu / jobs_wall if jobs_wall else 0.0,
        "cli.invocations": tracer.calls("cli.") / n,
        "cli.jobs1_s": cli_wall[1] / n,
        "cli.jobs2_s": cli_wall[2] / n,
        "trace.overhead": traced_pass / untraced_pass - 1,
    }


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of the largest process it waited for.

    ru_maxrss of a process keeps the size of its parent at fork, from before
    exec; VmHWM counts only this program's own pages.
    """
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    name, seed, seconds, first, stride, trace, out, work = argv
    workload = all_workloads(os.cpu_count() or 1)[name]
    inputs = workload.generate(int(seed), Path(work))
    first, stride, seconds = int(first), int(stride), float(seconds)
    layers = None
    probe = HostProbe()
    if trace == "1":
        untraced = run_passes(workload, inputs, Api(), None, probe, seconds, first, stride)
        tracer = Tracer()
        traced = run_passes(workload, inputs, Api(tracer), tracer, probe, seconds, first, stride)
        tracer.dump(Path(out).parent.parent / f"trace-{name}-seed{seed}.jsonl")
        layers = per_layer(tracer, traced, untraced)
        passes = untraced + traced
    else:
        passes = run_passes(workload, inputs, Api(), None, probe, seconds, first, stride)
    Path(out).write_text(json.dumps({
        "passes": [asdict(p) for p in passes], "layers": layers,
        "peak_rss_mb": peak_rss_mb(workload.rss_of_children),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

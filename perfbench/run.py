"""Benchmark for seqcomplex: seeded workloads, oracle-checked outputs, layer traces.

Run from the root of a checkout; the library is imported from its ``src``:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics.  A workload is a fixed set of
units (one record's pipeline, one suite call or one CLI invocation), and a
run repeats the whole set in passes, split over a few worker processes run
one after another (worker.py).  A unit's time is the median of its timings
in the run; latency percentiles are taken over records from those times,
and records_per_s is the records of one pass over the sum of its unit
times.  Every timing is scaled to a reference host speed by the host probe
timed around it (hostprobe.py); the metrics as timed and the host's median
slowness go to standard error.  Each worker's outputs are
checked before the next one starts.  A worker's share of ``--seconds`` buys
a fixed number of passes, from the workload's nominal pass time, so a run's
work does not depend on how fast the host happens to be.  ``--trace 1``
runs one worker that spends half of ``--seconds`` untraced and half traced,
with spans around every library call the benchmark makes, and reports
per-layer metrics and ``trace.overhead``; per-layer times are as measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable table goes
to standard error.  Corpora and spans are written to ``.perfbench_tmp/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from hostprobe import around, probe_seconds, slowness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 21

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "record_ms_p50": "ms",
    "record_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def setup_seconds(workload, env) -> tuple[float, float, float]:
    """Median wall time of a fresh process that does the workload's set-up,
    as timed and at reference host speed, and the median slowness."""
    times, probes = [], [probe_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(workload.setup_argv(), env=env, check=True, capture_output=True,
                       timeout=60)
        times.append(perf_counter() - t0)
        probes.append(probe_seconds())
    scaled = [t / around(probes, k) for k, t in enumerate(times)]
    return statistics.median(times), statistics.median(scaled), slowness(probes)


def run_workers(workload, inputs, seed: int, seconds: float, trace: bool, work: Path, env) -> tuple:
    """Passes of every worker process, their failed records, the traced
    worker's layer metrics and the largest peak RSS the workers report.

    Each worker's outputs are checked before the next worker starts, so the
    timed windows of a run spread over the time its checks take too."""
    from workloads import Pass

    jobs = [(0, 1)] if trace else [(k, workload.workers) for k in range(workload.workers)]
    budget = seconds / 2 if trace else seconds / len(jobs)
    passes, failed, layers, peak_rss_mb = [], 0, None, 0.0
    for first, stride in jobs:
        out = work / f"worker-{first}.json"
        subprocess.run(
            [sys.executable, str(WORKER), workload.name, str(seed), str(budget),
             str(first), str(stride), str(int(trace)), str(out), str(work)],
            env=env, check=True, timeout=170,
        )
        result = json.loads(out.read_text())
        worker_passes = [Pass(**p) for p in result["passes"]]
        failed += workload.failures(inputs, worker_passes)
        passes += worker_passes
        layers = result["layers"]
        peak_rss_mb = max(peak_rss_mb, result["peak_rss_mb"])
    return passes, failed, layers, peak_rss_mb


def end_to_end(workload, passes, setup: tuple[float, float, float], peak_rss_mb: float,
               raw: dict) -> dict[str, float]:
    """The metrics at reference host speed; raw gets them as timed, and the slowness."""

    def metrics(times, setup_s):
        p50, p90 = workload.percentiles(times)
        return {
            "setup_s": setup_s,
            "records_per_s": workload.records_per_s(times),
            "record_ms_p50": p50 * 1e3,
            "record_ms_p90": p90 * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }

    raw.update(metrics(workload.unit_times(passes, False), setup[0]))
    raw["slowness"] = slowness([x for p in passes for x in p.probes])
    raw["setup_slowness"] = setup[2]
    return metrics(workload.unit_times(passes, True), setup[1])


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The result of one run, and with --trace 0 its metrics as timed."""
    from worker import PER_LAYER

    raw: dict[str, float] = {}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        inputs = workload.generate(seed, work)
        if trace:
            passes, failed, metrics, _ = run_workers(workload, inputs, seed, seconds, True, work, env)
            units = PER_LAYER
        else:
            setup = setup_seconds(workload, env)
            passes, failed, _, peak_rss_mb = run_workers(
                workload, inputs, seed, seconds, False, work, env)
            metrics = end_to_end(workload, passes, setup, peak_rss_mb, raw)
            units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": sum(unit[1] for p in passes for unit in p.units),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }, raw


def _table(name: str, result: dict, raw: dict) -> list[str]:
    lines = [f"{name}: fail_ratio {result['failed'] / result['attempted']:.6g} "
             f"({result['failed']}/{result['attempted']} records)"]
    for key, m in result["metrics"].items():
        timed = f" (as timed: {raw[key]:.6g})" if key in raw else ""
        lines.append(f"{name}: {key} {m['value']:.6g} {m['unit']}{timed}")
    if raw:
        lines.append(f"{name}: host slowness {raw['slowness']:.4g}, "
                     f"during set-up {raw['setup_slowness']:.4g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqcomplex" / "__init__.py").is_file():
        print(f"error: {SRC} holds no seqcomplex sources; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import all_workloads

    workloads = all_workloads(os.cpu_count() or 1)
    if args.workload == "all":
        chosen = list(workloads.values())
    elif args.workload in workloads:
        chosen = [workloads[args.workload]]
    else:
        parser.error(f"--workload must be one of {', '.join(workloads)} or all")

    runs = {w.name: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in chosen}
    for name, (result, raw) in runs.items():
        print("\n".join(_table(name, result, raw)), file=sys.stderr)
    results = {name: result for name, (result, _) in runs.items()}
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

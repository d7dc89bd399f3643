"""Time each default verify suite in process: the median over fixed seeds.

    python tools/suite_times.py SRC [SUITE ...] [--seeds K]

SRC is the ``src`` directory of a checkout; it goes first on ``sys.path``,
so one process times one tree, and two trees are compared by alternating
processes between their ``src`` directories.  Each named suite (every suite
of ``verify.SUITES`` when none is named) runs once untimed, so that the
tables it builds on first use are built, then once per seed 0..K-1 (7 by
default) as ``run_suites([name], seed=i)``.  One line per suite gives the
median and the least of its times in ms; the ``pass`` line gives those of
the suites' summed time per seed, and then every per-seed time follows as
JSON.  On a shared host a suite's times can spread twofold within one
process, so compare trees over many alternating processes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="a checkout's src directory")
    parser.add_argument("suites", nargs="*", help="suite names (default: every suite)")
    parser.add_argument("--seeds", type=int, default=7, help="seeds 0..K-1 (default 7)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    from seqcomplex.verify import SUITES, run_suites

    names = args.suites or list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s) {', '.join(unknown)}; choose from {', '.join(SUITES)}")
    times: dict[str, list[float]] = {}
    for name in names:
        run_suites([name], seed=0)
        per_seed = times[name] = []
        for seed in range(args.seeds):
            t0 = perf_counter()
            run_suites([name], seed=seed)
            per_seed.append(1e3 * (perf_counter() - t0))
    width = max(map(len, [*names, "pass"]))
    rows = {**times, "pass": [sum(per_seed) for per_seed in zip(*times.values())]}
    for name, per_seed in rows.items():
        print(f"{name:<{width}}  {statistics.median(per_seed):9.3f} ms  min {min(per_seed):9.3f} ms")
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())

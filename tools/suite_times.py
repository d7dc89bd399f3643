"""Time each default verify suite of two trees in one process.

    python tools/suite_times.py A_SRC B_SRC [SUITE ...] [--seeds K]

A_SRC and B_SRC are the ``src`` directories of two checkouts, a and b (the
same directory twice is allowed).  Each tree's ``seqcomplex`` is copied into
a temporary directory under its own package name, ``seqcomplex_a`` or
``seqcomplex_b``, and imported from there; every import inside the package
is relative, so the two copies share no module and no table.  Each named
suite (every suite of ``verify.SUITES`` when none is named) runs once
untimed on each tree, so that the tables it builds on first use are built.
Then each of the ``ROUNDS`` (20) rounds times both trees, a first in even
rounds and b first in odd ones.  A suite's time in a round is the median,
over seeds 0..K-1 (7 by default), of one ``run_suites([name], seed=i)``; the
``pass`` row is the median over seeds of the suites' summed times.

One line per row gives each tree's median and least time over the rounds in
ms, and the rounds each tree read lower in (a tie counts for neither); then
every round's times follow as JSON, ``{"a": {row: [ms, ...]}, "b": ...}``.
On a shared host a suite's times can spread twofold from one process to the
next, so two trees compared in separate processes can differ by more than
the change between them; alternating them in one process removes that swing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROUNDS = 20


def load(src: Path, package: str, into: Path):
    """The ``verify`` module of src's ``seqcomplex``, copied into ``into``
    under the given package name."""
    shutil.copytree(src / "seqcomplex", into / package)
    return importlib.import_module(f"{package}.verify")


def one_round(verify, names: list[str], seeds: int) -> dict[str, float]:
    """Each suite's median time over the seeds in ms, and the pass's."""
    per_seed: dict[str, list[float]] = {}
    for name in names:
        times = per_seed[name] = []
        for seed in range(seeds):
            t0 = perf_counter()
            verify.run_suites([name], seed=seed)
            times.append(1e3 * (perf_counter() - t0))
    row = {name: statistics.median(times) for name, times in per_seed.items()}
    row["pass"] = statistics.median(map(sum, zip(*per_seed.values())))
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the src directory of tree a")
    parser.add_argument("b", type=Path, help="the src directory of tree b")
    parser.add_argument("suites", nargs="*", help="suite names (default: every suite)")
    parser.add_argument("--seeds", type=int, default=7, help="seeds 0..K-1 (default 7)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    # the copies stay on disk while they run: modules import others lazily
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = {side: load(getattr(args, side).resolve(), f"seqcomplex_{side}", Path(tmp))
                 for side in "ab"}
        suites = trees["a"].SUITES
        names = args.suites or list(suites)
        unknown = [name for name in names if name not in suites or name not in trees["b"].SUITES]
        if unknown:
            parser.error(f"unknown suite(s) {', '.join(unknown)}; choose from {', '.join(suites)}")
        for verify in trees.values():
            for name in names:
                verify.run_suites([name], seed=0)
        rounds: dict[str, list[dict[str, float]]] = {"a": [], "b": []}
        for r in range(ROUNDS):
            for side in "ab" if r % 2 == 0 else "ba":
                rounds[side].append(one_round(trees[side], names, args.seeds))
    rows = [*names, "pass"]
    times = {side: {row: [t[row] for t in rounds[side]] for row in rows} for side in "ab"}
    width = max(map(len, rows))
    for row in rows:
        a, b = times["a"][row], times["b"][row]
        a_won = sum(map(float.__lt__, a, b))
        b_won = sum(map(float.__lt__, b, a))
        print(
            f"{row:<{width}}  a {statistics.median(a):9.3f} ms  min {min(a):9.3f} ms"
            f"  b {statistics.median(b):9.3f} ms  min {min(b):9.3f} ms"
            f"  lower a {a_won}/{ROUNDS}  b {b_won}/{ROUNDS}"
        )
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time each verify suite and five public calls of two trees in one process.

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

The call rows follow, one per public function of ``CALLS`` (``lc()`` and so
on), whatever suites are named: a round times one call on each of
``CALL_VALUES`` (200) seeded nonzero values of each modulus of
``CALL_MODULI``, the same values in both trees, and gives the mean time per
call in us.  After both trees' suites, each call's pass runs for one tree
and then the other, in the round's order, so that the two passes of a
call are back to back.  They read only public names, so any two trees
compare, and run once untimed before the rounds, as the suites do.

One line per row gives each tree's median and least time over the rounds,
in ms for a suite and us for a call, and the rounds each tree read lower in
(a tie counts for neither); then every round's times follow as JSON,
``{"a": {row: [time, ...]}, "b": ...}``.
On a shared host a suite's times can spread twofold from one process to the
next, so two trees compared in separate processes can differ by more than
the change between them; alternating them in one process removes that swing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROUNDS = 20
CALLS = ("lc", "xwli_lc", "is_hypercube", "standard_decompose", "first_critical_m")
CALL_MODULI = ((3, 2), (11, 1), (3, 3), (5, 2), (2, 4))
CALL_VALUES = 200
CALL_SEED = 55


def load(src: Path, package: str, into: Path):
    """src's ``seqcomplex``, copied into ``into`` under the given package
    name; its public names include ``SUITES`` and ``run_suites``."""
    shutil.copytree(src / "seqcomplex", into / package)
    return importlib.import_module(package)


def call_inputs(package) -> list:
    """The call rows' sequences, built from the tree's own classes."""
    rng = random.Random(CALL_SEED)
    inputs = []
    for p, n in CALL_MODULI:
        modulus = package.Modulus(p, n)
        values = [rng.randrange(1, 1 << p**n) for _ in range(CALL_VALUES)]
        inputs += [package.PeriodicSequence(modulus, v) for v in values]
    return inputs


def time_call(call, inputs: list) -> float:
    """The call's mean time over the inputs in us."""
    t0 = perf_counter()
    for s in inputs:
        call(s)
    return 1e6 * (perf_counter() - t0) / len(inputs)


def one_round(package, names: list[str], seeds: int) -> dict[str, float]:
    """Each suite's median time over the seeds in ms, and the pass's."""
    per_seed: dict[str, list[float]] = {}
    for name in names:
        times = per_seed[name] = []
        for seed in range(seeds):
            t0 = perf_counter()
            package.run_suites([name], seed=seed)
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
        inputs = {side: call_inputs(package) for side, package in trees.items()}
        for side, package in trees.items():
            for name in names:
                package.run_suites([name], seed=0)
            for name in CALLS:
                time_call(getattr(package, name), inputs[side])
        rounds: dict[str, list[dict[str, float]]] = {"a": [], "b": []}
        for r in range(ROUNDS):
            order = "ab" if r % 2 == 0 else "ba"
            this_round = {side: one_round(trees[side], names, args.seeds) for side in order}
            # each call's pass for one tree and then the other, so that a
            # swing of the host lands on both trees' times of that call
            for name in CALLS:
                for side in order:
                    this_round[side][f"{name}()"] = time_call(getattr(trees[side], name),
                                                              inputs[side])
            for side in "ab":
                rounds[side].append(this_round[side])
    calls = [f"{name}()" for name in CALLS]
    rows = [*names, "pass", *calls]
    times = {side: {row: [t[row] for t in rounds[side]] for row in rows} for side in "ab"}
    width = max(map(len, rows))
    for row in rows:
        a, b = times["a"][row], times["b"][row]
        a_won = sum(map(float.__lt__, a, b))
        b_won = sum(map(float.__lt__, b, a))
        unit = "us" if row in calls else "ms"
        print(
            f"{row:<{width}}  a {statistics.median(a):9.3f} {unit}  min {min(a):9.3f} {unit}"
            f"  b {statistics.median(b):9.3f} {unit}  min {min(b):9.3f} {unit}"
            f"  lower a {a_won}/{ROUNDS}  b {b_won}/{ROUNDS}"
        )
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())

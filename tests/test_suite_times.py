import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_suite_times_runs_one_suite_with_one_seed():
    """tools/suite_times.py times a named suite of two src trees, here the
    same tree twice, in alternating rounds: one line for the suite and one
    for the pass, each with both trees' median, least and rounds won, then
    one such line per public call in us, then every round's times as JSON."""
    rounds = 20  # the tool's ROUNDS
    calls = ["lc()", "xwli_lc()", "is_hypercube()", "standard_decompose()", "first_critical_m()"]
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "suite_times.py"), str(ROOT / "src"),
         str(ROOT / "src"), "stability", "--seeds", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    rows = ["stability", "pass", *calls]
    assert len(out) == len(rows) + 1, out
    times = json.loads(out[-1])
    assert list(times) == ["a", "b"]
    for side in times.values():
        assert list(side) == rows
        # with one seed and one suite, the pass is the suite
        assert side["stability"] == side["pass"]
        assert all(len(side[row]) == rounds for row in rows)
        assert all(t > 0 for row in calls for t in side[row])
    for line, name in zip(out, rows):
        unit = "us" if name in calls else "ms"
        words = line.split()
        assert (words[0], words[1], words[7], words[13]) == (name, "a", "b", "lower"), line
        for i, side in ((2, "a"), (8, "b")):
            ms = times[side][name]
            median, least = f"{statistics.median(ms):.3f}", f"{min(ms):.3f}"
            assert words[i : i + 5] == [median, unit, "min", least, unit], line
        a_won, b_won = (int(word.split("/")[0]) for word in (words[15], words[17]))
        assert words[14:] == ["a", f"{a_won}/{rounds}", "b", f"{b_won}/{rounds}"], line
        assert a_won + b_won <= rounds

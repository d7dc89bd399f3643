import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_suite_times_runs_one_suite_with_one_seed():
    """tools/suite_times.py times a named suite of a given src tree: one line
    for the suite, one for the pass, then the per-seed times as JSON."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "suite_times.py"), str(ROOT / "src"),
         "stability", "--seeds", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert len(out) == 3, out
    times = json.loads(out[2])
    assert list(times) == ["stability"] and len(times["stability"]) == 1
    ms = f"{times['stability'][0]:.3f}"
    for line, name in zip(out, ("stability", "pass")):
        # with one seed and one suite, the median, the least and the pass agree
        assert line.split() == [name, ms, "ms", "min", ms, "ms"], line

"""CLI output pinned byte for byte over a small seeded corpus.

The corpora in golden/ mix random dense and sparse sequences with planted
hypercubes (p = 2 cubes at periods 16, 32 and 64).  The commands that read no
sequence (count, construct-stable, verify) are pinned in text and JSON,
with their error exits.  golden/cli.out holds the
exit code, stdout and stderr of every case below, and golden/help.out the
--help text of every command and group.  After a deliberate output change,
regenerate them from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli.out
    PYTHONPATH=src python tests/test_cli_golden.py help > tests/golden/help.out
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from click.testing import CliRunner

from seqcomplex.cli import cli, main

GOLDEN = Path(__file__).resolve().parent / "golden"
ODD = ("p5n2", "p3n3", "p3n5")


def _cases() -> list[list[str]]:
    cases = []
    for name in ODD:
        mod = ["--p", name[1], "--n", name[3]]
        mixed = f"{name}-mixed.txt"
        cubes = f"{name}-cubes.txt"
        dense = (GOLDEN / mixed).read_text().splitlines()[1]
        cases += [
            ["lc", *mod, "--file", mixed],
            ["structure", *mod, "--file", mixed],
            ["decompose", *mod, "--file", mixed],
            ["decompose", *mod, "--seq", dense],
            ["mcrit", *mod, "--mode", "formula", "--file", mixed],
            ["celcs", *mod, "--mode", "formula", "--file", cubes],
            ["celcs", *mod, "--mode", "brute", "--file", cubes],
            ["celcs", *mod, "--mode", "formula", "--file", mixed],
        ]
    json = ["--format", "json"]
    cases += [
        ["lc", "--p", "5", "--n", "2", "--file", "p5n2-mixed.txt", *json],
        ["structure", "--p", "3", "--n", "3", "--file", "p3n3-mixed.txt", *json],
        ["mcrit", "--p", "3", "--n", "3", "--mode", "formula", "--file", "p3n3-mixed.txt", *json],
        ["celcs", "--p", "3", "--n", "3", "--mode", "formula", "--file", "p3n3-cubes.txt", *json],
        ["celcs", "--p", "3", "--n", "3", "--mode", "brute", "--file", "p3n3-cubes.txt", *json],
    ]
    for name in ("p2n4", "p2n6"):
        mod = ["--p", "2", "--n", name[3]]
        cases += [["structure", *mod, "--file", f"{name}.txt"], ["lc", *mod, "--file", f"{name}.txt"]]
    cases.append(["structure", "--p", "2", "--n", "4", "--file", "p2n4.txt", *json])
    mod16 = ["--p", "2", "--n", "4"]
    for argv in (["decompose", *mod16, "--file", "p2n4.txt"],
                 ["celcs", *mod16, "--mode", "formula", "--seq", "0000110000001100"]):
        cases += [argv, [*argv, *json]]

    mod9 = ["--p", "3", "--n", "2"]
    mod8 = ["--p", "2", "--n", "3"]
    both_formats = [
        ["count", "lc", *mod9, "--L", "8"],
        ["count", "lc", *mod9, "--L", "4"],
        ["count", "hypercubes", *mod9, "--edges", "0"],
        ["count", "hypercubes", *mod9, "--edges", "1", "--l", "2", "--enumerate"],
        ["count", "hypercubes", *mod9, "--edges", "0", "--enumerate", "--cap", "5"],
        ["count", "cubes", *mod8, "--edges", "1"],
        ["count", "cubes", *mod8, "--edges", "0,2", "--enumerate"],
        ["count", "cubes", *mod8, "--enumerate", "--cap", "5"],
        ["count", "hypercubes", *mod8],
        ["count", "cubes", *mod9, "--enumerate"],
        ["construct-stable", *mod9, "--k", "2"],
        ["construct-stable", *mod8, "--k", "3"],
        ["verify", *mod9, "--suite", "mcrit-exhaustive"],
        ["verify", "--suite", "stability", "--suite", "counting"],
        ["verify", "--suite", "lc-oracle", "--p", "2", "--n", "4"],
        ["verify", "--suite", "lc-oracle", "--p", "3", "--n", "3", "--seed", "7"],
        ["klc", "--p", "5", "--n", "2", "--k", "2", "--file", "p5n2-mixed.txt"],
        ["mcrit", "--p", "3", "--n", "3", "--mode", "both", "--file", "p3n3-cubes.txt"],
        ["mcrit", "--p", "5", "--n", "2", "--mode", "brute", "--file", "p5n2-cubes.txt"],
        ["mcrit", "--p", "2", "--n", "4", "--mode", "both", "--seq", "0000110000001100"],
        ["mcrit", "--p", "2", "--n", "4", "--mode", "brute", "--seq", "0000101000000001"],
        ["celcs", "--p", "3", "--n", "3", "--mode", "both", "--file", "p3n3-cubes.txt"],
    ]
    for argv in both_formats:
        cases += [argv, [*argv, *json]]
    cases += [
        ["celcs", "--p", "5", "--n", "2", "--mode", "both", "--file", "p5n2-cubes.txt"],
        ["celcs", "--p", "3", "--n", "3", "--file", "p3n3-cubes.txt", "--format", "csv"],
        ["celcs", "--p", "5", "--n", "2", "--mode", "both", "--seq", "0001000000000000000000000",
         "--format", "csv"],
        ["celcs", "--p", "2", "--n", "5", "--mode", "brute", "--file", "p2n5.txt"],
        ["mcrit", "--p", "5", "--n", "2", "--mode", "brute", "--file", "p5n2-mixed.txt"],
    ]
    return cases


def _run(argv: list[str]) -> str:
    args = [str(GOLDEN / a) if a.endswith(".txt") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return f"$ seqcomplex {' '.join(argv)}\n[exit {code}]\n{out.getvalue()}[stderr]\n{err.getvalue()}"


def render() -> str:
    return "".join(_run(argv) for argv in _cases())


HELP_CASES = ([], ["lc"], ["klc"], ["celcs"], ["structure"], ["decompose"], ["mcrit"],
              ["count"], ["count", "lc"], ["count", "hypercubes"], ["count", "cubes"],
              ["construct-stable"], ["verify"])


def render_help() -> str:
    """Each case's --help under a fixed program name and width: an in-process
    help would print sys.argv[0] and wrap to the terminal."""
    runner = CliRunner()
    out = []
    for argv in HELP_CASES:
        argv = [*argv, "--help"]
        res = runner.invoke(cli, argv, prog_name="seqcomplex", terminal_width=80)
        out.append(f"$ seqcomplex {' '.join(argv)}\n[exit {res.exit_code}]\n{res.output}")
    return "".join(out)


def test_cli_output_matches_golden():
    expected = (GOLDEN / "cli.out").read_text()
    actual = render()
    for want, got in zip(expected.split("$ seqcomplex "), actual.split("$ seqcomplex ")):
        assert got == want
    assert actual == expected


def test_help_matches_golden():
    assert render_help() == (GOLDEN / "help.out").read_text()


if __name__ == "__main__":
    sys.stdout.write(render_help() if sys.argv[1:] == ["help"] else render())

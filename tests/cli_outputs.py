"""Compare the command-line outputs of two source trees, byte for byte.

    python tests/cli_outputs.py OLD_TREE NEW_TREE

Each command of ``COMMANDS`` runs as ``python -W error -m msgate.cli ARGS``
with ``PYTHONPATH=<tree>/src``, once per tree, each run in its own empty
temporary directory (also its ``HOME``).  The exit code, stdout, stderr
and every file the run writes there are compared.  One line per command
reads ``same`` or ``DIFF`` with what differs; the script exits 1 if any
command differs, else 0.  A change that claims byte-identical outputs runs
it against a ``git archive`` of its parent.

Not collected by pytest (no ``test_`` prefix), and it uses the standard
library only.
"""

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# The first 42: coefficients x3; predict at Fock and thermal inputs and its
# refusals; sweep with and without the oracle, its plot script and its
# refusals; calibrate with both engines, Fock and thermal, shots 0, 200 and
# 500, and its refusals (exit 2 and 3); trajectory x2.
COMMANDS = [
    ["coefficients", "--n-max", "24", "--out", "table.json"],
    ["coefficients", "--loops", "2", "--n-max", "24", "--out", "two_loop.json"],
    ["coefficients"],
    ["predict", "--lambda-tilde", "0.02", "--fock-initial", "1"],
    ["predict", "--lambda-tilde", "0.02", "--fock-initial", "1", "--initial", "ee"],
    ["predict", "--lambda-tilde", "0.02", "--nbar", "0.3", "--initial", "ee"],
    ["predict", "--lambda-tilde", "0.01", "--nbar", "3", "--n-max", "24"],
    ["predict", "--lambda-tilde", "0.01", "--fock-initial", "11", "--n-max", "10"],
    ["predict", "--lambda-tilde", "nan"],
    ["predict", "--lambda-tilde", "0.01", "--loops", "2"],
    ["sweep"],
    ["sweep", "--oracle", "--plot-script", "sweep.gp"],
    ["sweep", "--no-oracle", "--plot-script", "sweep.gp"],
    ["sweep", "--lambda-min", "-0.05", "--lambda-max", "0.05", "--points", "5",
     "--fock", "0,2", "--oracle", "--cutoff-n-max", "32", "--plot-script", "s.gp"],
    ["sweep", "--points", "1", "--fock", "0", "--oracle"],
    ["sweep", "--fock", "0,1.5"],
    ["sweep", "--fock", "0,1,0"],
    ["sweep", "--lambda-max", "0.6"],
    ["sweep", "--points", "2", "--fock", "0,8", "--oracle", "--cutoff-n-max", "6"],
    ["sweep", "--points", "0"],
    ["sweep", "--loops", "2", "--lambda-min", "-0.05", "--lambda-max", "0.05",
     "--points", "5", "--fock", "0,1", "--oracle"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--shots", "0"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "50", "--engine", "oracle",
     "--shots", "200", "--seed", "7", "--out", "report.json"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--shots", "500", "--out", "report.json"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--shots", "0", "--fock-initial", "1", "--out", "report.json"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--shots", "0", "--nbar", "0.1", "--out", "report.json"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--shots", "0", "--nbar", "0.3", "--cutoff-n-max", "40", "--out", "report.json"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "0", "--engine", "oracle",
     "--shots", "0", "--out", "report.json"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--nbar", "2", "--cutoff-n-max", "20"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--shots", "0", "--nbar", "2", "--n-max", "80", "--cutoff-n-max", "88"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--cutoff-n-max", "10"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--fock-initial", "11", "--n-max", "10", "--cutoff-n-max", "60"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--fock-initial", "20", "--n-max", "24"],
    ["calibrate", "--engine", "first_order_model", "--detuning-hz=-11e3", "--shift-hz", "30",
     "--nbar", "0.3", "--shots", "500", "--out", "report.json"],
    ["calibrate", "--engine", "first_order_model", "--detuning-hz", "11e3", "--shift-hz", "30",
     "--shots", "0"],
    ["calibrate", "--engine", "first_order_model", "--detuning-hz", "3e3", "--shift-hz", "30",
     "--shots", "0"],
    ["calibrate", "--engine", "first_order_model", "--detuning-hz=-11e3", "--shift-hz", "0",
     "--shots", "0", "--out", "report.json"],
    ["calibrate", "--engine", "first_order_model", "--detuning-hz", "0", "--shift-hz", "30"],
    ["calibrate", "--engine", "first_order_model", "--detuning-hz=-11e3", "--shift-hz", "nan"],
    ["calibrate", "--engine", "first_order_model", "--detuning-hz=-11e3"],
    ["trajectory", "--loops", "2", "--samples", "65", "--out", "loop.csv"],
    ["trajectory"],
    # |ee> inputs: the |gg> closed forms at -lambda, both qubits flipped.
    ["predict", "--lambda-tilde", "0.02", "--initial", "ee"],
    ["predict", "--lambda-tilde=-0.03", "--fock-initial", "3", "--initial", "ee"],
    ["predict", "--lambda-tilde", "0", "--initial", "ee"],
    ["predict", "--lambda-tilde=-0.0", "--initial", "ee"],
    ["predict", "--lambda-tilde=-0.0"],
    ["predict", "--lambda-tilde", "0.01", "--nbar", "0.3"],
    ["predict", "--lambda-tilde=-0.01", "--loops", "2", "--initial", "ee"],
    ["predict", "--lambda-tilde", "0.6", "--initial", "ee"],
    ["predict", "--lambda-tilde=-0.1", "--loops", "4", "--n-max", "30", "--initial", "ee"],
    ["predict", "--lambda-tilde", "0.01", "--initial", "ge"],
    ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30", "--engine", "oracle",
     "--shots", "0", "--nbar", "0.3", "--cutoff-n-max", "40"],
    # The plot script quotes its CSV path, and refuses a newline in it.
    ["sweep", "--points", "3", "--fock", "0", "--out", "it's.csv", "--plot-script", "p.gp"],
    ["sweep", "--points", "3", "--fock", "0", "--out", "a\nb.csv", "--plot-script", "p.gp"],
]


def run(tree: Path, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, {path: bytes}) of one command on one tree."""
    with tempfile.TemporaryDirectory() as work:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), HOME=work)
        done = subprocess.run([sys.executable, "-W", "error", "-m", "msgate.cli", *argv],
                              cwd=work, env=env, capture_output=True, timeout=600)
        files = {p.relative_to(work).as_posix(): p.read_bytes()
                 for p in sorted(Path(work).rglob("*")) if p.is_file()}
        return done.returncode, done.stdout, done.stderr, files


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (Path(tree).resolve() for tree in argv)
    differ = 0
    for args in COMMANDS:
        a, b = run(old, args), run(new, args)
        parts = [name for name, x, y in zip(("exit", "stdout", "stderr", "files"), a, b)
                 if x != y]
        if a[3] != b[3]:
            parts[-1] = "files " + ",".join(
                sorted(k for k in a[3].keys() | b[3].keys() if a[3].get(k) != b[3].get(k)))
        differ += bool(parts)
        shown = " ".join(shlex.quote(arg) for arg in args)
        line = f"{'DIFF ' + ' '.join(parts) if parts else 'same'}  (exit {a[0]})  {shown}"
        print(line.replace("\n", "\\n"))
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

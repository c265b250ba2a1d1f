"""Compare the command-line outputs of two source trees, byte for byte.

    python tests/cli_outputs.py OLD_TREE NEW_TREE

Each command of ``COMMANDS`` runs as ``python -W error -m msgate.cli ARGS``
with ``PYTHONPATH=<tree>/src``, once per tree, each run in its own empty
temporary directory (also its ``HOME``).  The exit code, stdout, stderr
and every file the run writes there are compared.  Each entry of
``CHAINS`` runs the same way in one directory: its input files are written
first, then its steps run in order, each a command or a function that
edits the directory; every command's exit code, stdout and stderr are
compared, and every file at the end.  One line per command or chain reads
``same`` or ``DIFF`` with what differs; the script exits 1 if any differs,
else 0.  A change that claims byte-identical outputs runs it against a
``git archive`` of its parent.

Not collected by pytest (no ``test_`` prefix), and it uses the standard
library only.
"""

import json
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


def _edit_stored_scalar(work: Path) -> None:
    """Move the first stored slope ``a`` of ``t.json`` in its ninth digit,
    past the load's 1e-12 check; every other value keeps its bits."""
    path = work / "t.json"
    doc = json.loads(path.read_text())
    doc["derived"]["a"][0] *= 1.0 + 1e-9
    path.write_text(json.dumps(doc))


_BENCH_TABLE = ["coefficients", "--n-max", "40", "--panels-1d", "4096", "--panels-2d", "256",
                "--out", "t.json"]

# Chains of (input files, steps).  The first runs the benchmark's command
# shapes against a --table file; the others the refusals of the load path
# and the config path.
CHAINS = [
    ({}, [
        _BENCH_TABLE,
        ["sweep", "--table", "t.json", "--lambda-min=-0.095", "--lambda-max", "0.093",
         "--points", "21", "--fock", "0,1,2,3", "--oracle", "--steps", "1024",
         "--cutoff-n-max", "32", "--out", "sweep.csv"],
        ["calibrate", "--table", "t.json", "--engine", "oracle", "--detuning-hz=-11000.0",
         "--shift-hz", "41.5", "--fock-initial", "0", "--shots", "200", "--seed", "12345",
         "--out", "r0.json", "--steps", "1024"],
        ["calibrate", "--table", "t.json", "--engine", "oracle", "--detuning-hz=-11000.0",
         "--shift-hz=-38.25", "--fock-initial", "1", "--shots", "200", "--seed", "678",
         "--out", "r1.json", "--steps", "1024"],
        ["predict", "--table", "t.json", "--lambda-tilde=-0.0123", "--nbar", "0.4"],
        ["predict", "--table", "t.json", "--n-max", "24", "--lambda-tilde", "0.01"],
    ]),
    ({}, [
        ["coefficients", "--n-max", "24", "--out", "t.json"],
        _edit_stored_scalar,
        ["predict", "--table", "t.json", "--lambda-tilde", "0.01"],
    ]),
    ({"c.json": json.dumps({"sweep": {"points": 5, "fock": "0,2", "oracle": True,
                                      "cutoff-n-max": 24, "lambda-min": -0.05,
                                      "plot-script": "s.gp"}})}, [
        ["--config", "c.json", "sweep", "--out", "s.csv"],
        ["--config", "c.json", "sweep", "--no-oracle", "--points", "3", "--out", "t.csv"],
    ]),
    ({"c.json": json.dumps({"sweep": {"points": "many"}})}, [
        ["--config", "c.json", "sweep"],
    ]),
]


def run(tree: Path, inputs: dict, steps: list) -> tuple:
    """([(exit code, stdout, stderr) per command], {path: bytes}) of one
    chain on one tree."""
    with tempfile.TemporaryDirectory() as work:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), HOME=work)
        for name, text in inputs.items():
            (Path(work) / name).write_text(text)
        results = []
        for step in steps:
            if callable(step):
                step(Path(work))
                continue
            done = subprocess.run([sys.executable, "-W", "error", "-m", "msgate.cli", *step],
                                  cwd=work, env=env, capture_output=True, timeout=600)
            results.append((done.returncode, done.stdout, done.stderr))
        files = {p.relative_to(work).as_posix(): p.read_bytes()
                 for p in sorted(Path(work).rglob("*")) if p.is_file()}
        return results, files


def _differences(a: tuple, b: tuple) -> list[str]:
    """What differs between two runs of one chain."""
    parts = [f"{name}{f'[{k}]' if len(a[0]) > 1 else ''}"
             for k, (x, y) in enumerate(zip(a[0], b[0]))
             for name, u, v in zip(("exit", "stdout", "stderr"), x, y) if u != v]
    if a[1] != b[1]:
        parts.append("files " + ",".join(
            sorted(k for k in a[1].keys() | b[1].keys() if a[1].get(k) != b[1].get(k))))
    return parts


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (Path(tree).resolve() for tree in argv)
    entries = [({}, [args]) for args in COMMANDS] + CHAINS
    differ = 0
    for inputs, steps in entries:
        a, b = run(old, inputs, steps), run(new, inputs, steps)
        parts = _differences(a, b)
        differ += bool(parts)
        shown = " ; ".join(step.__name__ if callable(step) else
                           " ".join(shlex.quote(arg) for arg in step) for step in steps)
        exits = ",".join(str(result[0]) for result in a[0])
        line = f"{'DIFF ' + ' '.join(parts) if parts else 'same'}  (exit {exits})  {shown}"
        print(line.replace("\n", "\\n"))
    print(f"{len(entries) - differ} of {len(entries)} entries identical "
          f"({len(COMMANDS)} commands, {len(CHAINS)} chains)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Every public name of msgate has a caller inside the package, or is a named
cross-check route; every CLI option and every field of the configuration
dataclasses is listed; every README command parses
and the README's Python runs; the CLI needs numpy alone; the benchmark's
tracer finds every name it wraps.

A module's public names are its ``__all__``.  A name counts as called when
some statement under ``src/msgate`` other than its own top-level definition
reads it as a ``Name`` or an ``Attribute``, or imports it.
"""

import ast
import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from msgate.cli import build_parser
from msgate.experiment import SequenceConfig
from msgate.ideal import DimensionlessGateParams
from msgate.magnus import QuadratureSpec
from msgate.oracle import IntegratorConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "msgate"

# Public names that only the tests call, each with the reason it stays.  The
# list only shrinks: a name that gains a package caller must leave it.
CROSS_CHECK_ONLY = {
    "magnus.predicted_state": "second-order state, compared with the oracle's final state",
}

# The option dests of each command ("msgate" is the top level, without
# --help and --version).  Settable values are a tracked number: adding or
# removing an option must show up here.
CLI_OPTIONS = {
    "msgate": ("config",),
    "coefficients": ("n_max", "loops", "panels_1d", "panels_2d", "out", "force"),
    "sweep": ("table", "n_max", "loops", "lambda_min", "lambda_max", "points",
              "fock", "oracle", "steps", "cutoff_n_max", "out", "plot_script"),
    "calibrate": ("table", "n_max", "loops", "detuning_hz", "shift_hz",
                  "fock_initial", "nbar", "points", "shots", "engine", "steps",
                  "cutoff_n_max", "seed", "out"),
    "trajectory": ("loops", "samples", "out"),
    "predict": ("table", "n_max", "loops", "lambda_tilde", "fock_initial", "nbar",
                "initial"),
}

# The init fields of the configuration dataclasses, the settable values of
# the library as CLI_OPTIONS are of the CLI: adding or removing one must
# show up here too.
CONFIG_FIELDS = {
    "DimensionlessGateParams": ("omega_tilde", "tau_gate", "phi"),
    "IntegratorConfig": ("steps_per_gate", "guard_levels", "guard_tolerance",
                         "norm_tolerance"),
    "SequenceConfig": ("detuning", "qubit_shift", "mode", "phase_points", "shots",
                       "engine", "cutoff_n_max"),
    "QuadratureSpec": ("panels_1d", "panels_2d"),
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_names(modules):
    names = set()
    for stem, tree in modules.items():
        for node in tree.body:
            targets = getattr(node, "targets", [])
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names |= {f"{stem}.{name}" for name in ast.literal_eval(node.value)}
    return names


def _called_names(modules):
    """Qualified public names referred to outside their own definitions."""
    public = _public_names(modules)
    called = set()
    for stem, tree in modules.items():
        for stmt in tree.body:
            own = f"{stem}.{getattr(stmt, 'name', '')}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    ref = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    ref = node.attr
                elif isinstance(node, ast.alias):
                    ref = node.name
                else:
                    continue
                called |= {q for q in public if q.endswith(f".{ref}") and q != own}
    return called


def test_every_public_name_has_a_caller_or_a_reason():
    modules = _modules()
    uncalled = _public_names(modules) - _called_names(modules)
    assert uncalled == set(CROSS_CHECK_ONLY)


def test_cross_check_list_names_public_names():
    assert set(CROSS_CHECK_ONLY) <= _public_names(_modules())
    assert all(reason for reason in CROSS_CHECK_ONLY.values())


def test_cli_options_are_listed():
    parser, subparsers = build_parser()
    commands = {"msgate": parser, **subparsers}

    def dests(p):
        return tuple(a.dest for a in p._actions if a.dest not in ("help", "version", "command"))

    assert {name: dests(p) for name, p in commands.items()} == CLI_OPTIONS


def test_config_fields_are_listed():
    classes = (DimensionlessGateParams, IntegratorConfig, SequenceConfig, QuadratureSpec)
    fields = {cls.__name__: tuple(f.name for f in dataclasses.fields(cls) if f.init)
              for cls in classes}
    assert fields == CONFIG_FIELDS


def _readme_commands():
    """The argv of every ``msgate`` command in the README's sh blocks, with
    continuation lines joined and comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("msgate ")]


def test_readme_commands_parse():
    # Parsing only: a removed or renamed flag in the README fails here.
    parser, subparsers = build_parser()
    commands = _readme_commands()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: msgate {shlex.join(argv)}")
    assert {argv[0] for argv in commands} == set(subparsers)


def test_readme_python_runs(monkeypatch, tmp_path):
    # The quickstart's blocks build on each other, so they share one
    # namespace; a changed signature in the README's calls fails here.
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, msgate.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_tracer_finds_its_targets(monkeypatch):
    # perfbench/tracing.py wraps msgate functions by the names its callers
    # look them up under (cli.predict_phase, cli.oracle_sweep, ...); a
    # renamed or removed one fails here, not only under --trace 1.
    import msgate.cli as cli

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer({})
    original = cli.predict_phase
    with tracer.sequence_scope():
        assert cli.predict_phase is not original
    assert cli.predict_phase is original

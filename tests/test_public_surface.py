"""Every public name of msgate has a caller inside the package, or is a named
cross-check route; every CLI option is listed; every README command parses;
the CLI needs numpy alone.

A module's public names are its ``__all__``.  A name counts as called when
some statement under ``src/msgate`` other than its own top-level definition
reads it as a ``Name`` or an ``Attribute``, or imports it.
"""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from msgate.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "msgate"

# Public names that only the tests call, each with the reason it stays.  The
# list only shrinks: a name that gains a package caller must leave it.
CROSS_CHECK_ONLY = {
    "ideal.ideal_propagator": "full ideal gate, compared with the oracle at lam = 0",
    "magnus.predicted_state": "second-order state, compared with the oracle's final state",
    "magnus.predict_density_matrix": "reduced density matrix behind the scalar predictors",
    "magnus.first_order_traced_unitary": "the paper's effective qubit map at first order",
    "magnus.traced_unitary_factored": "the same map in factored, exactly unitary form",
    "oracle.hamiltonian_matrix": "dense Hamiltonian of the tests' RK4 reference route",
    "oracle.expectation_trajectory": "<a> along one gate, compared with the loop functions",
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


def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, msgate.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"

"""Every public name and public member of msgate has a caller inside the
package, or is a named cross-check route; every field of a public dataclass
is read inside the package, or is listed with its reason; every CLI option,
every field of the configuration dataclasses and every optional parameter
of a public function is listed; every README command parses and the
README's Python runs; the CLI needs numpy alone; the benchmark's tracer
finds every name it wraps, and its hooks run on real commands.

A module's public names are its ``__all__``.  A name counts as called when
some statement under ``src/msgate`` other than its own top-level definition
reads it as a ``Name`` or an ``Attribute``, or imports it; a reference from
inside a ``CROSS_CHECK_ONLY`` definition does not count, since that caller
is itself reached only from the tests.  A public member
is a method or property, not named with a leading underscore, of a class in
``__all__``; it counts as called when some code under ``src/msgate`` outside
its own definition reads it as an ``Attribute``.  A field of a public
dataclass counts as read when some code under ``src/msgate`` reads its name
as an ``Attribute``.  ``OPTIONAL_PARAMETERS`` is a snapshot of the defaulted
parameters of every ``__all__`` function, read with ``inspect.signature``:
each keyword knob is settable surface, as the CLI options are.  ``SOURCE_CODE_LINES`` is a snapshot of each module's code
lines, so that every change shows its net line count.
"""

import ast
import dataclasses
import importlib
import inspect
import io
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from msgate.cli import build_parser
from msgate.experiment import ENGINES, SequenceConfig
from msgate.ideal import DimensionlessGateParams
from msgate.magnus import QuadratureSpec
from msgate.oracle import IntegratorConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "msgate"

# Public names and members that only the tests call, each with the reason
# it stays.  The list only shrinks: a name that gains a package caller must
# leave it.
CROSS_CHECK_ONLY = {
    "magnus.predicted_state": "second-order state, compared with the oracle's final state",
}

# Fields of the public dataclasses that no code under src/msgate reads, each
# with the reason it stays.  The list only shrinks: a field that gains a
# reader must leave it.
UNREAD_FIELDS = {
    "oracle.IntegratorConfig.steps_per_gate":
        "changes no result; read only by the benchmark tracer, perfbench/tracing.py",
    "magnus.CoefficientTable.quad":
        "changes no value; read only by the benchmark tracer and the tests' quadrature reference",
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
    "IntegratorConfig": ("steps_per_gate",),
    "SequenceConfig": ("lambda_tilde", "mode", "phase_points", "shots", "engine",
                       "cutoff_n_max"),
    "QuadratureSpec": ("panels_1d", "panels_2d"),
}

# The defaulted parameters of each public function that has any, the
# settable values of the library's calls: adding or removing one must show
# up here too.
OPTIONAL_PARAMETERS = {
    "magnus.compute_second_order_tables": ("quad",),
    "magnus.compute_coefficient_table": ("omega_tilde", "n_max", "quad", "tau_gate"),
    "magnus.predict_phase": ("initial",),
    "magnus.predict_populations": ("initial",),
    "magnus.predict_coherence": ("initial",),
    "magnus.predict_density_matrix": ("initial",),
    "oracle.propagate_batch": ("config", "span"),
    "oracle.propagate_ramped_axis": ("config",),
    "experiment.fit_fringe": ("shots",),
    "experiment.run_calibration": ("rng",),
}


# The code lines of each module under src/msgate: lines that hold a token,
# counted with tokenize, leaving out docstrings, comments and blank lines.
# Net source lines are a tracked number: a change that adds or removes code
# must show up here.
SOURCE_CODE_LINES = {
    "__init__": 2,
    "cli": 414,
    "experiment": 199,
    "hilbert": 120,
    "ideal": 56,
    "magnus": 466,
    "oracle": 182,
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
    """Qualified public names referred to outside their own definitions and
    outside the cross-check routes' definitions."""
    public = _public_names(modules)
    called = set()
    for stem, tree in modules.items():
        for stmt in tree.body:
            own = f"{stem}.{getattr(stmt, 'name', '')}"
            if own in CROSS_CHECK_ONLY:
                continue
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


def _public_members(modules):
    """Qualified public methods and properties of the public classes, each
    mapped to the node of its own definition."""
    public = _public_names(modules)
    return {
        f"{stem}.{cls.name}.{node.name}": node
        for stem, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and f"{stem}.{cls.name}" in public
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def _called_members(modules):
    """Qualified public members read as an attribute outside their own
    definitions."""
    loads = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    called = set()
    for qualified, definition in _public_members(modules).items():
        own = {id(node) for node in ast.walk(definition)}
        if any(node.attr == definition.name and id(node) not in own for node in loads):
            called.add(qualified)
    return called


def test_every_public_name_has_a_caller_or_a_reason():
    modules = _modules()
    uncalled = ((_public_names(modules) - _called_names(modules))
                | (set(_public_members(modules)) - _called_members(modules)))
    assert uncalled == set(CROSS_CHECK_ONLY)


def test_cross_check_list_names_public_names():
    modules = _modules()
    assert set(CROSS_CHECK_ONLY) <= _public_names(modules) | set(_public_members(modules))
    assert all(reason for reason in CROSS_CHECK_ONLY.values())


def _public_fields(modules):
    """Qualified fields of the public dataclasses, not named with a leading
    underscore."""
    public = _public_names(modules)

    def is_dataclass(cls):
        return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                   for d in cls.decorator_list)

    return {
        f"{stem}.{cls.name}.{node.target.id}"
        for stem, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and f"{stem}.{cls.name}" in public and is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and not node.target.id.startswith("_")
    }


def test_every_dataclass_field_is_read_or_has_a_reason():
    modules = _modules()
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = _public_fields(modules)
    assert {f for f in fields if f.rsplit(".", 1)[1] not in read} == set(UNREAD_FIELDS)
    assert all(reason for reason in UNREAD_FIELDS.values())


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


def test_optional_parameters_are_listed():
    found = {}
    for qualified in _public_names(_modules()):
        stem, name = qualified.split(".")
        obj = getattr(importlib.import_module("msgate" if stem == "__init__" else
                                              f"msgate.{stem}"), name)
        if inspect.isfunction(obj):
            optional = tuple(p.name for p in inspect.signature(obj).parameters.values()
                             if p.default is not p.empty)
            if optional:
                found[qualified] = optional
    assert found == OPTIONAL_PARAMETERS


def _code_lines(text: str) -> int:
    """Lines of ``text`` that hold a token other than a comment, outside
    docstrings (any statement that is a bare string)."""
    docstrings = {line for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)
                  for line in range(node.lineno, node.end_lineno + 1)}
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    code = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type not in layout for line in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docstrings)


def test_source_code_lines_are_listed():
    found = {path.stem: _code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert found == SOURCE_CODE_LINES


def test_every_dataclass_is_frozen():
    # A dataclass here is a value: its fields are fixed at construction,
    # where any array among them is marked read-only, so nothing derived
    # from them (a table's scalars, a mode's weights) can fall out of step.
    decorators = {
        f"{stem}.{cls.name}": deco
        for stem, tree in _modules().items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for deco in cls.decorator_list
        if getattr(getattr(deco, "func", deco), "id", None) == "dataclass"
    }
    loose = {name for name, deco in decorators.items()
             if not any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                        for k in getattr(deco, "keywords", []))}
    assert len(decorators) >= 10 and "magnus.CoefficientTable" in decorators
    assert loose == set()


def test_code_line_count_skips_docstrings_and_comments():
    text = '''"""Module docstring,
    over two lines."""

x = 1  # a comment
# a comment line
y = ("a"
     "b")


def f():
    """Docstring."""
    return """not a
docstring"""
'''
    # x, the two lines of y, def f and the three lines of its return.
    assert _code_lines(text) == 6


def test_input_rules_have_one_owner():
    # hilbert's _count, _finite, _number and _label own the count,
    # finite-value, single-number and qubit-label rules, and
    # magnus._check_lambda the lambda cap: a copy of a rule elsewhere drifts
    # from them, as copies of the count rule and the single-number check did.
    # A value keeps what its rules return: a rule called for its check alone
    # in a __post_init__ leaves the caller's object (a numpy scalar, a 0-d
    # array) in the field, where it hashes, compares and serialises apart.
    rules = {"_count", "_finite", "_number"}
    for stem, tree in _modules().items():
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        text = (SRC / f"{stem}.py").read_text()
        if stem != "hilbert":
            assert "numbers" not in imported, stem
            assert "must be finite" not in text, stem
            assert "must be a single number" not in text, stem
            assert "unknown qubit label" not in text, stem
        if stem != "magnus":
            assert "LAMBDA_HARD_CAP" not in text, stem
        discarded = [
            f"{stem}:{node.lineno}"
            for init in ast.walk(tree)
            if isinstance(init, ast.FunctionDef) and init.name == "__post_init__"
            for node in ast.walk(init)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name) and node.value.func.id in rules
        ]
        assert discarded == []


def test_diagonalisation_has_one_owner():
    # oracle._exact_evolve owns the package's one eigh, so an open
    # _shared_spectra scope reaches every diagonalisation; an eigh elsewhere
    # would pay again for a spectrum the scope already holds.
    modules = _modules()
    owner = {id(node) for node in ast.walk(_function(modules["oracle"], "_exact_evolve"))}
    uses = [(stem, ast.unparse(node), id(node) in owner)
            for stem, tree in modules.items() for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "eigh")
            or (isinstance(node, ast.alias) and node.name.rpartition(".")[2] == "eigh")]
    assert uses == [("oracle", "np.linalg.eigh", True)]


def test_cli_predictors_have_one_pass():
    # predict and sweep read every closed-form output from cli._predictions,
    # so an output is stated once for both.  Its calls go through the names
    # cli imports, the ones the benchmark tracer wraps.
    cli = _modules()["cli"]
    owner = {id(node) for node in ast.walk(_function(cli, "_predictions"))}
    calls = sorted((name, id(node) in owner) for node in ast.walk(cli)
                   if isinstance(node, ast.Call)
                   for name in [getattr(node.func, "id", getattr(node.func, "attr", ""))]
                   if name.startswith("predict_"))
    assert calls == [(f"predict_{what}", True) for what in
                     ("coherence", "fidelity", "phase", "populations", "purity")]


def test_input_sign_has_one_owner():
    # An |ee> prediction is the |gg> one at -lam with both qubits flipped:
    # magnus._scalars negates lam for ee and predict_density_matrix flips
    # the qubits.  A predictor that tested the input itself would restate
    # the symmetry as its own sign-and-swap branch.
    labels = {"gg", "ge", "eg", "ee"}

    def compares_initial(node):
        operands = [node.left, *node.comparators]
        names = {n.id for op in operands for n in ast.walk(op) if isinstance(n, ast.Name)}
        consts = {n.value for op in operands for n in ast.walk(op) if isinstance(n, ast.Constant)}
        return "initial" in names and bool(consts & labels)

    tree = _modules()["magnus"]
    owners = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn) if isinstance(node, ast.Compare) and compares_initial(node)}
    assert owners == {"_scalars", "predict_density_matrix"}


def _parameters_and_fields(tree):
    """Every function parameter (lambdas too) and every annotated class
    field of a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names |= {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          a.vararg, a.kwarg) if arg is not None}
        elif isinstance(node, ast.ClassDef):
            names |= {f.target.id for f in node.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}
    return names


def test_units_have_one_owner():
    # The library is dimensionless: a center-line error is lambda_tilde, lam
    # over the detuning, and cli alone converts the Hz its options take.  A
    # parameter or field for a detuning, a shift or a frequency elsewhere
    # would start a second unit system, as SequenceConfig's rad/s fields did.
    found = {stem: _parameters_and_fields(tree) for stem, tree in _modules().items()}
    assert {"lambda_tilde", "slope", "mode"} <= found["experiment"]
    dimensional = {(stem, name) for stem, names in found.items() if stem != "cli"
                   for name in names
                   if name in ("detuning", "qubit_shift") or name.endswith("_hz")}
    assert dimensional == set()


def test_level_average_has_one_owner():
    # hilbert._level_sum owns the average over Fock levels, a sum in level
    # order; a dot product of the weights elsewhere would add the levels in
    # whatever order the BLAS build picks.
    for stem in _modules():
        text = (SRC / f"{stem}.py").read_text()
        assert re.search(r"(weights|probabilities)\)?\s*@", text) is None, stem
        assert (re.search(r"def _level_sum\b", text) is not None) == (stem == "hilbert"), stem


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_thermal_averaging_has_one_owner():
    # magnus._scalars alone turns a thermal mode into its mean scalars, and
    # every predictor reads it, directly or through the density matrix; a
    # predictor that averaged its own outputs would be a second owner.
    tree = _modules()["magnus"]
    thermal = ("ThermalDistribution", "_level_sum")

    def reads(node, names):
        return sorted(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in names)

    helper = reads(_function(tree, "_scalars"), thermal)
    assert set(helper) == set(thermal) and reads(tree, thermal) == helper
    predictors = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("predict_")]
    assert len(predictors) == 6
    for node in predictors:
        assert reads(node, ("_scalars", "predict_density_matrix")), node.name


def test_defaults_have_one_owner():
    # SequenceConfig owns the calibration-run defaults, QuadratureSpec the
    # recorded panel counts, DimensionlessGateParams the default gate and
    # experiment's engine map the engine names: the CLI and the table build
    # read them there, since a restated literal drifts from its owner.
    field_defaults = {f"{cls.__name__}.{f.name}": f.default
                      for cls in (SequenceConfig, QuadratureSpec) for f in dataclasses.fields(cls)}
    owned = {
        ("coefficients", "--panels-1d"): "QuadratureSpec.panels_1d",
        ("coefficients", "--panels-2d"): "QuadratureSpec.panels_2d",
        ("sweep", "--cutoff-n-max"): "SequenceConfig.cutoff_n_max",
        ("calibrate", "--points"): "SequenceConfig.phase_points",
        ("calibrate", "--shots"): "SequenceConfig.shots",
        ("calibrate", "--engine"): "SequenceConfig.engine",
        ("calibrate", "--cutoff-n-max"): "SequenceConfig.cutoff_n_max",
    }
    modules = _modules()
    found, command = {}, None
    for stmt in _function(modules["cli"], "build_parser").body:
        call = getattr(stmt, "value", None)
        if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
            continue
        if call.func.attr == "add_parser":
            command = call.args[0].value
        elif call.func.attr == "add_argument" and (command, call.args[0].value) in owned:
            default = next(k.value for k in call.keywords if k.arg == "default")
            found[command, call.args[0].value] = ast.unparse(default)
    assert found == owned
    _, subparsers = build_parser()
    for (command, flag), owner in owned.items():
        action = next(a for a in subparsers[command]._actions if flag in a.option_strings)
        assert action.default == field_defaults[owner], (command, flag)

    build = _function(modules["magnus"], "compute_coefficient_table")
    names = [a.arg for a in build.args.args]
    defaults = dict(zip(names[len(names) - len(build.args.defaults):], build.args.defaults))
    for name in ("omega_tilde", "tau_gate"):
        assert ast.unparse(defaults[name]) == f"DimensionlessGateParams.{name}"

    strings = {node.value for node in ast.walk(_function(modules["experiment"], "simulate_fringe"))
               if isinstance(node, ast.Constant)}
    assert not strings & set(ENGINES)


def _callers(is_call):
    """(module, function) of every call under src/msgate that ``is_call``
    picks out, the function being the innermost enclosing def (None at
    module level)."""
    found = set()

    def visit(node, stem, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and is_call(child):
                found.add((stem, owner))
            visit(child, stem, child.name if isinstance(child, ast.FunctionDef) else owner)

    for stem, tree in _modules().items():
        visit(tree, stem, None)
    return found


def _method_call(name):
    return lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == name


def test_input_files_have_one_reader():
    # magnus._read_json_object reads every input file, the table and the
    # config alike, and names the file when its content is not a JSON
    # object; a second reader drifts from it, as the config's did.
    def json_read(call):
        return (isinstance(call.func, ast.Attribute) and call.func.attr in ("load", "loads")
                and getattr(call.func.value, "id", None) == "json")

    assert _callers(json_read) == {("magnus", "_read_json_object")}


def test_table_structure_is_checked_where_it_is_read():
    # _scalars serves every predictor, the phase slope and both fringe
    # engines, so they refuse an off-line table alike; the coefficients
    # command checks the table it is about to write.  A check at load or
    # build would refuse tables the library builds and saves.
    assert _callers(_method_call("check_health")) == {
        ("magnus", "_scalars"), ("cli", "cmd_coefficients")}


def test_unhealthy_table_has_one_rule():
    # The line has one rule, check_health's; the constructor refuses a
    # non-finite entry, and the coefficients command re-raises the rule's
    # message with its own ending.  Trust (the Fock edge) raises
    # TruncationError only, so a second structure rule cannot hide there.
    found = set()

    def visit(node, stem, owner):
        for child in ast.iter_child_nodes(node):
            exc = getattr(child, "exc", None) if isinstance(child, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "UnhealthyTableError":
                found.add((stem, owner))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, stem, f"{owner}.{child.name}" if owner else child.name)
            else:
                visit(child, stem, owner)

    for stem, tree in _modules().items():
        visit(tree, stem, None)
    assert found == {("magnus", "CoefficientTable.__post_init__"),
                     ("magnus", "CoefficientTable.check_health"),
                     ("cli", "cmd_coefficients")}


def test_composite_layout_has_one_owner():
    # hilbert.FockCutoff owns the qubit-major layout: index, number, s_z and
    # blocks.  A second module that splits a ket into its four qubit pairs
    # by hand restates it.
    def splits_pairs(call):
        first = call.args[0] if call.args else None
        return (_method_call("reshape")(call) and isinstance(first, ast.Constant)
                and first.value == 4)

    assert {stem for stem, _ in _callers(splits_pairs)} == {"hilbert"}
    for stem, tree in _modules().items():
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_diagonals" not in defined, stem
    # S_z is FockCutoff.s_z alone: no module keeps a Pauli-z matrix to build
    # a second S_z from Kronecker products of it.
    import msgate.hilbert as hilbert

    assert not hasattr(hilbert, "SIGMA_Z")
    for stem, tree in _modules().items():
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        assert "SIGMA_Z" not in names, stem
        pauli_z = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.List)
                   and ast.unparse(node).replace(" ", "").replace(".0", "")
                   in ("[[1,0],[0,-1]]", "[1,-1]")]
        assert pauli_z == [], (stem, pauli_z)


def _is_coherence_pair(node) -> bool:
    """A dict literal mapping a qubit label to a (row, column) pair."""
    return isinstance(node, ast.Dict) and any(
        isinstance(key, ast.Constant) and key.value in ("gg", "ee")
        and isinstance(value, ast.Tuple) and len(value.elts) == 2
        and all(isinstance(e, ast.Constant) and type(e.value) is int for e in value.elts)
        for key, value in zip(node.keys, node.values))


def test_conventions_have_one_owner():
    # cli owns the versioned CSV text, ideal the coherence each input's
    # relative phase is read from, and oracle its health thresholds, as
    # module constants that no caller can set: a second copy drifts.
    health = {"guard_levels", "guard_tolerance", "norm_tolerance"}
    for stem, tree in _modules().items():
        assert ("# schema=" in (SRC / f"{stem}.py").read_text()) == (stem == "cli"), stem
        pairs = [node.lineno for node in ast.walk(tree) if _is_coherence_pair(node)]
        assert len(pairs) == (stem == "ideal"), (stem, pairs)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                fields = {node.target.id for node in cls.body
                          if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
                assert not fields & health, (stem, cls.name)


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


def test_benchmark_tracer_finds_its_targets(monkeypatch, tmp_path):
    # perfbench/tracing.py wraps msgate functions by the names its callers
    # look them up under (cli.predict_phase, cli.oracle_sweep, ...), and its
    # hooks read their arguments (quad.panels_2d, table.quad,
    # config.steps_per_gate); a renamed or removed one fails here, not only
    # under --trace 1.  The commands are small copies of the benchmark's.
    import msgate.cli as cli

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.chdir(tmp_path)
    import tracing

    tracer = tracing.Tracer({})
    commands = [
        ["coefficients", "--n-max", "16", "--out", "table.json"],
        ["sweep", "--table", "table.json", "--oracle", "--steps", "8", "--points", "5",
         "--fock", "0,1", "--cutoff-n-max", "16", "--out", "sweep.csv"],
        ["calibrate", "--table", "table.json", "--engine", "oracle", "--steps", "8",
         "--points", "8", "--detuning-hz", "11000", "--shift-hz", "30",
         "--cutoff-n-max", "16", "--out", "report.json"],
    ]
    run = tracer.traced_main(cli.main)
    original = cli.predict_phase
    with tracer.sequence_scope():
        assert cli.predict_phase is not original
        assert [run(argv) for argv in commands] == [0, 0, 0]
    assert cli.predict_phase is original
    # Each wrapper closes over its span name; cli.main's span is made by
    # traced_main, outside the plan.
    planned = {inspect.getclosurevars(wrapped).nonlocals["name"]
               for *_, wrapped in tracer._targets}
    assert planned - {span[0] for span in tracer.spans} == set()
    assert "cli.main" not in planned
    # The hooks ran: the ones that read panels_2d and steps_per_gate count
    # work, and the derived-scalars hook keeps each table it saw.
    assert tracer.totals["nodes"] and tracer.derived_seen
    assert tracer.totals["static_column_steps"] and tracer.totals["ramped_column_steps"]


def test_benchmark_reference_generator_binds_its_calls(monkeypatch):
    # perfbench/make_refs.py builds tables with compute_coefficient_table(quad=)
    # and reads table.derived(); it propagates with IntegratorConfig(steps_per_gate=)
    # and the positional propagate_batch and propagate_ramped_axis, with a
    # phase per column.  A renamed or removed binding fails here, not only
    # when refs.json is regenerated.  Nothing is written.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import make_refs
    import reference

    scalars = make_refs.table_scalars(8, 4, 2)
    ref = reference.Scalars(scalars)
    assert ref.a.shape == ref.b.shape == ref.trusted.shape == (9,)
    check = make_refs.exact_vs_rk4(steps=8, n_max=24)
    assert check["static_max_abs"] <= 1e-10 and check["ramped_max_abs"] <= 1e-10

"""Command-line interface.

Subcommands
-----------
coefficients   build the exact coefficient tables and write them as JSON
sweep          closed-form predictions (and optional exact full-Hamiltonian
               oracle curves) across a miscalibration grid, as versioned CSV
calibrate      simulate a two-gate calibration scan, fit the fringe, and
               invert it for the center-line error
trajectory     sampled phase-space loop of the driven mode, as versioned CSV
predict        print every closed-form predictor for one operating point

A JSON config file (``--config``) may hold a section per subcommand whose
keys mirror the long option names; explicit flags always win.  A flag takes
JSON true or false, any other option a string or a number, which goes
through the option's own type and choices.  Exit codes: 0 success, 2
usage or configuration error, 3 numerical-health failure; the README's
"Exit codes" note lists every case of each.
Float options take negative values in exponent form either as a separate
token (``--shift-hz -3e1``) or as ``--shift-hz=-3e1``.

``--loops K`` (default 1) names the calibrated gate of K closed loops:
coupling over detuning 1/(2 sqrt K) for a gate time of 2 pi K.
``coefficients`` is the only command that writes a table; its ``--panels-*``
are validated, then neither written nor digested: they change no value (the
tables are exact).  ``predict``, ``sweep`` and ``calibrate`` load
``--table``, or else build in memory (milliseconds) the table that
``--n-max``/``--loops`` describe; those two are refused with ``--table``.  The table owns the gate: ``sweep --oracle``
and both ``calibrate`` engines run its ``omega_tilde`` and ``tau_gate``.
``trajectory`` draws the loop of the ``--loops`` gate.  ``--fock-initial``
and ``--nbar`` are exclusive.

``main(argv)`` may be called repeatedly in one process.  It builds its
parser once, on the first call, and a ``--config`` section applies to its
own call only: it never carries into a later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .experiment import (ENGINES, _MIN_PHASE_POINTS, SequenceConfig, phi_seq_prediction,
                         run_calibration)
from .hilbert import QUBIT_LABELS, FockCutoff, ThermalDistribution, _count, _finite
from .ideal import DimensionlessGateParams, loop_functions
from .magnus import (
    CoefficientTable,
    QuadratureSpec,
    TruncationError,
    UnhealthyTableError,
    _read_json_object,
    _write_all,
    compute_coefficient_table,
    load_coefficient_table,
    predict_coherence,
    predict_fidelity,
    predict_phase,
    predict_populations,
    predict_purity,
)
from .oracle import GuardBandError, NormDriftError, sweep as oracle_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

SWEEP_REPORT_SCHEMA = "msgate/sweep-report/1"
TRAJECTORY_SCHEMA = "msgate/trajectory/1"
CALIBRATION_SCHEMA = "msgate/calibration-report/1"


class CliError(Exception):
    """User/configuration problem (exit code 2)."""


def _read_input(read, path: str, what: str):
    """``read(path)``, with an input file that cannot be opened refused as a
    usage error naming ``what`` and ``path``."""
    try:
        return read(path)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc.strerror}") from None


def _gate(args) -> DimensionlessGateParams:
    """The calibrated gate of ``--loops`` (one loop when unset), whose
    count is refused under the option's name."""
    loops = 1 if args.loops is None else _count("--loops", args.loops, 1)
    return DimensionlessGateParams.calibrated(loops)


def _table_for(args, quad: QuadratureSpec | None = None) -> CoefficientTable:
    """The table of a command: the file ``--table`` names, or else the
    table of the calibrated gate that ``--n-max`` and ``--loops`` describe,
    built in memory (unset, they and ``quad`` take compute_coefficient_table's
    defaults).  The grid options are refused beside ``--table``, whose file
    fixes the gate.  ``coefficients`` has no ``--table`` and passes its
    validated ``quad``.  The table's first predictor checks its health."""
    if getattr(args, "table", None):
        for flag, value in (("--n-max", args.n_max), ("--loops", args.loops)):
            if value is not None:
                raise CliError(f"{flag} describes an in-memory build; it cannot be "
                               "given with --table, whose file fixes the gate")
        return _read_input(load_coefficient_table, args.table, "table file")
    gate = _gate(args)
    grid = {"omega_tilde": gate.omega_tilde, "tau_gate": gate.tau_gate,
            "n_max": args.n_max, "quad": quad}
    return compute_coefficient_table(**{k: v for k, v in grid.items() if v is not None})


def _add_loops(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loops", type=int,
                   help="closed loops of the calibrated gate (default 1)")


def _add_grid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, help="Fock cutoff of the table (default 40)")
    _add_loops(p)


def _add_table_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", help="coefficient JSON produced by 'coefficients' "
                   "(default: build in memory from --n-max and --loops)")
    _add_grid_options(p)


def _add_initial_mode(p: argparse.ArgumentParser) -> None:
    mode = p.add_mutually_exclusive_group()
    # No default for --fock-initial, so that "--fock-initial 0 --nbar X" is
    # refused too; the commands read an unset level as 0.
    mode.add_argument("--fock-initial", type=int, help="initial Fock level (default 0)")
    mode.add_argument("--nbar", type=float, help="thermal initial mode of this mean")


def _initial_mode(args) -> int | ThermalDistribution:
    """The ``--fock-initial`` level (default 0), refused under the option's
    name if it is negative, or the thermal mode of ``--nbar``.  argparse
    refuses the two flags together; this also catches a config file
    supplying one."""
    if args.nbar is None:
        return _count("--fock-initial", args.fock_initial or 0)
    if args.fock_initial is not None:
        raise CliError(f"{args.command}: --fock-initial and --nbar are exclusive")
    return ThermalDistribution(args.nbar)


def _finite_or_null(x: float) -> float | None:
    """JSON has no inf or nan: write those as null."""
    return x if math.isfinite(x) else None


def _csv_text(schema: str, columns: dict) -> str:
    """Versioned CSV text: a schema line, a header of the column names, and
    one row per entry of the equally sized columns, each value its repr."""
    cells = [[repr(v) for v in np.ravel(col).tolist()] for col in columns.values()]
    lines = [f"# schema={schema}", ",".join(columns), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise CliError(f"{args.command}: missing required option(s) {flags}")


# ---------------------------------------------------------------- commands

def cmd_coefficients(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        raise CliError(f"{out} exists; pass --force to overwrite")
    try:
        table = _table_for(args, QuadratureSpec(args.panels_1d, args.panels_2d))
        table.check_health()  # no predictor reads it before it is written
    except UnhealthyTableError as exc:
        raise UnhealthyTableError(f"{exc}; the table was not written") from None
    digest = table.save(out)
    der = table.derived()
    if der.trusted.any():
        trusted = f"0..{int(np.max(np.nonzero(der.trusted)[0]))}"
    else:
        trusted = "none (raise --n-max)"
    print(f"wrote {out}")
    print(f"provenance {digest}")
    print(f"n_max {table.n_max}  trusted levels {trusted}")
    print(f"structure residual {der.structure_residual:.3e}")
    shown = der.a[:4]
    print(f"a[0..{shown.size - 1}] {' '.join(f'{v:.6f}' for v in shown)}")
    return EXIT_OK


def _fock_levels(text: str) -> list[int]:
    """The distinct levels of a ``sweep --fock`` list, in its order, each
    refused under the option's name if it is negative."""
    try:
        fock = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise CliError(f"--fock takes comma-separated integer levels, got {text!r}") from None
    if not fock:
        raise CliError("--fock must name at least one level")
    for i, n in enumerate(fock):
        _count("--fock", n)
        if n in fock[:i]:
            raise CliError(f"--fock names level {n} more than once")
    return fock


def _predictions(mode, lam, table: CoefficientTable, initial: str = "gg") -> dict:
    """Every closed-form predictor at ``mode`` (a level, a list of levels
    or a thermal mode) and ``lam`` (one value or a grid), each called once,
    keyed as ``predict`` prints them.  ``populations`` keeps its trailing
    (gg, ge, eg, ee) axis."""
    pops = predict_populations(mode, lam, table, initial)
    coh = predict_coherence(mode, lam, table, initial)
    return {"phase": predict_phase(mode, lam, table, initial),
            "fidelity": predict_fidelity(mode, lam, table),
            "populations": pops, "population_sum": pops.sum(axis=-1),
            "coherence_re": coh.real, "coherence_im": coh.imag,
            "purity": predict_purity(mode, lam, table)}


def cmd_sweep(args) -> int:
    out = Path(args.out)
    # The --out path with the suffix .png; a path with no name, such as
    # ".", still gets one and fails where the CSV does.
    figure = out.parent / f"{out.stem}.png"
    plot = args.plot_script and Path(args.plot_script).resolve()
    if plot and plot == out.resolve():
        raise CliError(f"--plot-script names the --out file {args.out}; give it its own path")
    if plot and "\n" in args.out:
        raise CliError("--plot-script cannot name an --out path that holds a newline")
    if plot and figure.resolve() in (plot, out.resolve()):
        raise CliError(f"the figure {figure} would overwrite --out or the plot script")
    _count("--points", args.points, 1)
    _finite("--lambda-min", args.lambda_min)
    _finite("--lambda-max", args.lambda_max)
    fock = _fock_levels(args.fock)
    # Checked under the option's name, with or without --oracle.
    cutoff = FockCutoff(_count("--cutoff-n-max", args.cutoff_n_max))
    table = _table_for(args)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.points)
    # One predictor pass over the (level, lambda) grid; the CSV is written
    # from (level, lambda) columns, level-major.
    pred = _predictions(fock, lams, table)
    grid = pred["phase"].shape
    columns = {
        "lambda_tilde": np.broadcast_to(lams, grid),
        "fock_n": np.broadcast_to(np.array(fock)[:, None], grid),
        "pred_phase": pred["phase"],
        **{f"pred_p_{q}": pred["populations"][..., i] for i, q in enumerate(QUBIT_LABELS)},
        # hypot, as Python's abs of a complex: np.abs differs in the last bit.
        "pred_coherence_abs": np.hypot(pred["coherence_re"], pred["coherence_im"]),
        **{f"pred_{k}": pred[k] for k in ("fidelity", "purity", "population_sum")},
    }
    if args.oracle:
        # The table's gate, on the same (level, lambda) grid.
        oracle = oracle_sweep(lams, fock, table.params, cutoff)
        columns.update((f"oracle_{k}", v) for k, v in oracle.items())
    outputs = {out: _csv_text(SWEEP_REPORT_SCHEMA, columns)}
    if args.plot_script:
        outputs[Path(args.plot_script)] = _sweep_plot_text(out, figure, fock, args.oracle)
    _write_all(outputs)
    print(f"wrote {out} ({pred['phase'].size} rows)")
    if args.plot_script:
        print(f"wrote {args.plot_script}")
    return EXIT_OK


def _gnuplot_string(text) -> str:
    """``text`` as a gnuplot single-quoted string, each ``'`` in it doubled.
    A newline cannot be quoted there; ``cmd_sweep`` refuses it."""
    return "'" + str(text).replace("'", "''") + "'"


def _sweep_plot_text(csv_path, figure_path, fock, oracle: bool) -> str:
    """A gnuplot script of four panels, each plotting per level the model
    column with lines and, with ``oracle``, the oracle column with points.
    It reads the CSV at ``csv_path`` and draws the PNG figure at
    ``figure_path``, both written as gnuplot strings.  ``cmd_sweep`` names
    the figure after the CSV, the ``--out`` path with the suffix ``.png``
    (``sweep.csv`` draws ``sweep.png``), and refuses a figure path that
    names the CSV or the script."""
    lines = [
        "# gnuplot script generated by msgate sweep",
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'lambda_tilde'",
        "csv = " + _gnuplot_string(csv_path),
        "set terminal pngcairo size 1200,800",
        "set output " + _gnuplot_string(figure_path),
        "set multiplot layout 2,2",
    ]
    panels = [
        ("relative phase", "pred_phase", "oracle_relative_phase"),
        ("P(ee)", "pred_p_ee", "oracle_p_ee"),
        ("fidelity", "pred_fidelity", "oracle_fidelity"),
        ("purity", "pred_purity", "oracle_purity"),
    ]
    series = [("lines", "model"), ("points", "oracle")][: 2 if oracle else 1]
    for title, *cols in panels:
        lines.append(f"set title '{title}'")
        plots = [
            f"csv using (column('lambda_tilde')):(column('fock_n')=={n} ? column('{col}') : 1/0)"
            f" with {style} title 'n={n} {who}'"
            for n in fock for col, (style, who) in zip(cols, series)
        ]
        lines.append("plot " + ", \\\n     ".join(plots))
    lines.append("unset multiplot")
    return "\n".join(lines) + "\n"


def cmd_calibrate(args) -> int:
    _require(args, "detuning-hz", "shift-hz")
    # Counts and frequencies are checked under their option names, before
    # any table is made.
    _count("--points", args.points, _MIN_PHASE_POINTS)
    _count("--cutoff-n-max", args.cutoff_n_max)
    _count("--shots", args.shots)
    _count("--seed", args.seed)
    if _finite("--detuning-hz", args.detuning_hz) == 0.0:
        raise CliError("--detuning-hz must be nonzero")
    _finite("--shift-hz", args.shift_hz)
    table = _table_for(args)
    # The library is dimensionless, so Hz stops at this command: the run
    # takes lambda_tilde, lam over the detuning with both in rad/s, and its
    # estimate goes back to Hz through the detuning.
    config = SequenceConfig(
        lambda_tilde=(2.0 * math.pi * args.shift_hz) / (2.0 * math.pi * args.detuning_hz),
        mode=_initial_mode(args),
        phase_points=args.points,
        shots=None if args.shots == 0 else args.shots,
        engine=args.engine,
        cutoff_n_max=args.cutoff_n_max,
    )
    rng = np.random.default_rng(args.seed)
    fit, estimate, phi_d, p_obs = run_calibration(config, table, rng)
    shift_hz = estimate.lambda_tilde * args.detuning_hz
    err_hz = estimate.lambda_tilde_err * abs(args.detuning_hz)
    report = {
        "schema": CALIBRATION_SCHEMA,
        "package_version": __version__,
        "inputs": {
            "detuning_hz": args.detuning_hz,
            "true_shift_hz": args.shift_hz,
            "engine": args.engine,
            "shots": config.shots,
            "phase_points": args.points,
            "fock_initial": config.mode if isinstance(config.mode, int) else None,
            "n_bar": args.nbar,
            "seed": args.seed,
            "cutoff_n_max": config.cutoff_n_max if args.engine == "oracle" else None,
            "table_provenance": table.provenance_hash,
        },
        "fit": {
            "amplitude": fit.amplitude,
            "phase": fit.phase,
            "offset": fit.offset,
            "amplitude_err": _finite_or_null(fit.amplitude_err),
            "phase_err": _finite_or_null(fit.phase_err),
            "offset_err": _finite_or_null(fit.offset_err),
            "covariance": [[_finite_or_null(x) for x in row] for row in fit.covariance.tolist()],
            "residual_rms": fit.residual_rms,
        },
        "estimate": {
            "shift_hz": shift_hz,
            "shift_err_hz": _finite_or_null(err_hz),
            "phi_seq": fit.phase,
            "phi_seq_predicted": phi_seq_prediction(config.lambda_tilde, estimate.slope),
            "slope": estimate.slope,
            "caveats": estimate.caveats,
        },
        "scan": {
            "phi_d": [float(x) for x in phi_d],
            "p_ee": [float(x) for x in p_obs],
        },
    }
    if args.out:
        _write_all({Path(args.out): json.dumps(report, indent=2, sort_keys=True) + "\n"})
        print(f"wrote {args.out}")
    print(
        f"phi_seq = {fit.phase:+.6f} rad -> shift = {shift_hz:+.3f} Hz "
        f"(1 sigma {err_hz:.3f} Hz; true {args.shift_hz:+.3f} Hz)"
    )
    for caveat in estimate.caveats:
        print(f"caveat: {caveat}")
    return EXIT_OK


def cmd_trajectory(args) -> int:
    samples = _count("--samples", args.samples, 2)
    gate = _gate(args)
    tau = np.linspace(0.0, gate.tau_gate, samples)
    f, g = loop_functions(tau, gate)
    # The two spin branches ride the loop at +F and -F.
    columns = {"tau": tau, "re_alpha_plus": f.real, "im_alpha_plus": f.imag,
               "re_alpha_minus": (-f).real, "im_alpha_minus": (-f).imag, "area_phase": g}
    _write_all({Path(args.out): _csv_text(TRAJECTORY_SCHEMA, columns)})
    print(f"wrote {args.out} ({args.samples} samples)")
    return EXIT_OK


def cmd_predict(args) -> int:
    _require(args, "lambda-tilde")
    table = _table_for(args)
    lam = args.lambda_tilde
    mode = _initial_mode(args)
    pred = _predictions(mode, lam, table, args.initial)
    doc = {"lambda_tilde": lam, "initial": args.initial,
           "fock": mode if isinstance(mode, int) else None, "n_bar": args.nbar,
           **pred, "populations": pred["populations"].tolist()}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------- wiring

class _Parser(argparse.ArgumentParser):
    """Reads "-9.6e-05" as a value, not an option name (subparsers inherit it)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="msgate",
        description="Force-gate miscalibration tables, predictors and calibration",
    )
    parser.add_argument("--version", action="version", version=f"msgate {__version__}")
    parser.add_argument("--config", help="JSON file with per-subcommand defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coefficients", help="build and save coefficient tables")
    _add_grid_options(p)
    p.add_argument("--panels-1d", type=int, default=QuadratureSpec.panels_1d,
                   help="validated only; tables are exact")
    p.add_argument("--panels-2d", type=int, default=QuadratureSpec.panels_2d,
                   help="validated only; tables are exact")
    p.add_argument("--out", default="coefficients.json", help="output JSON path")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_coefficients)

    p = sub.add_parser("sweep", help="predictions (and exact oracle) across a lambda grid")
    _add_table_options(p)
    p.add_argument("--lambda-min", type=float, default=-0.1)
    p.add_argument("--lambda-max", type=float, default=0.1)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--fock", default="0,1,2,3", help="comma-separated Fock levels")
    p.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=False,
                   help="also propagate the full Hamiltonian exactly at each grid point")
    p.add_argument("--steps", type=int, default=4096, help="ignored (propagation is exact)")
    p.add_argument("--cutoff-n-max", type=int, default=SequenceConfig.cutoff_n_max)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--plot-script", help="write a gnuplot script next to the CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="simulate (model or exact oracle) and invert a scan")
    _add_table_options(p)
    # Required inputs stay optional at parse time so a config file can
    # supply them; _require() enforces presence after the merge.
    p.add_argument("--detuning-hz", type=float,
                   help="signed drive-sideband gap in Hz (cycles/s)")
    p.add_argument("--shift-hz", type=float,
                   help="true injected center-line error in Hz")
    _add_initial_mode(p)
    p.add_argument("--points", type=int, default=SequenceConfig.phase_points)
    p.add_argument("--shots", type=int, default=SequenceConfig.shots,
                   help="0 means exact probabilities")
    p.add_argument("--engine", choices=ENGINES, default=SequenceConfig.engine)
    p.add_argument("--steps", type=int, default=4096, help="ignored (propagation is exact)")
    p.add_argument("--cutoff-n-max", type=int, default=SequenceConfig.cutoff_n_max,
                   help="too low exits 3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("trajectory", help="phase-space loop of the driven mode")
    _add_loops(p)
    p.add_argument("--samples", type=int, default=257)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("predict", help="closed-form predictors at one point")
    _add_table_options(p)
    p.add_argument("--lambda-tilde", type=float)
    _add_initial_mode(p)
    p.add_argument("--initial", choices=["gg", "ee"], default="gg")
    p.set_defaults(func=cmd_predict)

    return parser, dict(sub.choices)


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser that every main() call parses with, built once per process.
    Nothing may change it: _apply_config folds a config into its own."""
    return build_parser()


def _config_value(command: str, key: str, value, action: argparse.Action):
    """A config value parsed as its option parses a command-line value.

    argparse converts only string defaults and checks no flag, so the value
    goes through the option's own ``type`` and ``choices`` here: a flag
    takes JSON true or false, any other option a string or a number."""
    where = f"config key {key!r} of {command!r}"
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise CliError(f"{where} is a flag: it takes true or false, not {json.dumps(value)}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CliError(f"{where} takes a string or a number, not {json.dumps(value)}")
    convert = action.type or str
    try:
        parsed = convert(str(value))
    except ValueError:
        raise CliError(f"{where}: invalid {convert.__name__} value {json.dumps(value)}") from None
    if action.choices is not None and parsed not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise CliError(f"{where}: invalid choice {parsed!r} (choose from {choices})")
    return parsed


def _apply_config(subparsers, config, args, argv):
    """Fold config-file values in as subcommand defaults; flags still win.
    The defaults go on a parser built for this call alone, so the shared
    one never carries them into a later call."""
    for name in config:
        if name not in subparsers:
            raise CliError(f"config section {name!r} names no subcommand")
    section = config.get(args.command, {})
    if not isinstance(section, dict):
        raise CliError(f"config section {args.command!r} must be an object")
    if not section:
        return args
    actions = {a.dest: a for a in subparsers[args.command]._actions if a.dest != "help"}
    defaults = {}
    for key, value in section.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise CliError(f"config key {key!r} is not an option of {args.command!r}")
        defaults[action.dest] = _config_value(args.command, key, value, action)
    parser, private = build_parser()
    private[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _shared_parser()
    try:
        args = parser.parse_args(argv)
        config = args.config and _read_input(
            functools.partial(_read_json_object, what="config file"), args.config, "config file")
        if config:
            args = _apply_config(subparsers, config, args, argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # Every input file is read behind a CliError, so what is left is an
        # output path that cannot be written.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TruncationError, GuardBandError, NormDriftError,
            UnhealthyTableError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Subcommands
-----------
coefficients   build the exact coefficient tables and write them as JSON
sweep          closed-form predictions (and optional exact full-Hamiltonian
               oracle curves) across a miscalibration grid, as versioned CSV
calibrate      simulate a two-gate calibration scan, fit the fringe, and
               invert it for the center-line error
trajectory     sampled phase-space loop of the driven mode, as CSV
predict        print every closed-form predictor for one operating point

A JSON config file (``--config``) may hold a section per subcommand whose
keys mirror the long option names; explicit flags always win.  Exit codes:
0 success, 2 usage/configuration error (including an output path that
cannot be written, after which ``sweep`` leaves neither its CSV nor its
plot script, and a table file whose schema is not the current
``msgate/coefficients/3`` (schema 1 and 2 files get a message to rebuild
the table), that cannot be read, lacks an entry or holds one of the wrong
type, holds a table that is not base64 of exactly (n_max + 1)^2
little-endian complex128 values, or whose stored derived scalars or
provenance digest do not match its contents), 3 numerical-health failure
(Fock truncation, an initial level above the oracle cutoff, guard-band
occupation, norm drift, a table with non-finite entries or a structure
residual past 1e-6: a built one is not written, a loaded one is refused).
Float options take negative values in exponent form either as a separate
token (``--shift-hz -3e1``) or as ``--shift-hz=-3e1``.

``coefficients`` is the only command that writes a table; its ``--panels-*``
are recorded but change no value (the tables are exact).  ``predict``,
``sweep`` and ``calibrate`` load ``--table``, or else build in memory
(milliseconds) the table that ``--n-max``/``--omega-tilde`` describe; those
two are refused with ``--table``.  The table owns the gate: ``sweep
--oracle`` and both ``calibrate`` engines run its ``omega_tilde`` and
``tau_gate``.  ``--fock-initial`` and ``--nbar`` are exclusive.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .experiment import SequenceConfig, phi_seq_prediction, run_calibration
from .hilbert import FockCutoff, ThermalDistribution
from .ideal import DimensionlessGateParams, phase_space_trajectory, write_trajectory_csv
from .magnus import (
    LAMBDA_HARD_CAP,
    CoefficientTable,
    QuadratureSpec,
    TruncationError,
    UnhealthyTableError,
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
CALIBRATION_SCHEMA = "msgate/calibration-report/1"


class CliError(Exception):
    """User/configuration problem (exit code 2)."""


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CliError("config file must hold a JSON object")
    return doc


_GRID_OPTIONS = ("n_max", "omega_tilde")


def _build(args, quad: QuadratureSpec | None = None) -> CoefficientTable:
    """Build the table the grid options describe (unset ones, ``quad`` too,
    take compute_coefficient_table's defaults); refuse it unless healthy."""
    grid = {k: getattr(args, k) for k in _GRID_OPTIONS if getattr(args, k) is not None}
    if quad is not None:
        grid["quad"] = quad
    table = compute_coefficient_table(**grid)
    try:
        table.check_health()
    except UnhealthyTableError as exc:
        raise UnhealthyTableError(f"{exc}; the table was not written") from None
    return table


def _table_for(args) -> CoefficientTable:
    """Load the named table, or build one in memory from the grid options."""
    if not args.table:
        return _build(args)
    for name in _GRID_OPTIONS:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise CliError(f"{flag} describes an in-memory build; it cannot be "
                           "given with --table, whose file fixes the gate")
    try:
        return load_coefficient_table(args.table)
    except OSError as exc:
        raise CliError(f"cannot read table file {args.table}: {exc.strerror}")


def _add_grid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, help="Fock cutoff of the table (default 40)")
    p.add_argument("--omega-tilde", type=float, help="coupling over detuning (default 0.5)")


def _add_table_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", help="coefficient JSON produced by 'coefficients' "
                   "(default: build in memory from --n-max and --omega-tilde)")
    _add_grid_options(p)


def _add_initial_mode(p: argparse.ArgumentParser) -> None:
    mode = p.add_mutually_exclusive_group()
    # No default for --fock-initial, so that "--fock-initial 0 --nbar X" is
    # refused too; the commands read an unset level as 0.
    mode.add_argument("--fock-initial", type=int, help="initial Fock level (default 0)")
    mode.add_argument("--nbar", type=float, help="thermal initial mode of this mean")


def _fock_level(args) -> int | None:
    """The initial Fock level, or None for ``--nbar``.  argparse refuses the
    two flags together; this also catches a config file supplying one."""
    if args.nbar is None:
        return args.fock_initial or 0
    if args.fock_initial is not None:
        raise CliError(f"{args.command}: --fock-initial and --nbar are exclusive")
    return None


def _float_fmt(x: float) -> str:
    return repr(float(x))


def _finite_or_null(x: float) -> float | None:
    """JSON has no inf or nan: write those as null."""
    return x if math.isfinite(x) else None


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
    table = _build(args, QuadratureSpec(args.panels_1d, args.panels_2d))
    out.parent.mkdir(parents=True, exist_ok=True)
    table.save(out)
    der = table.derived()
    if der.trusted.any():
        trusted = f"0..{int(np.max(np.nonzero(der.trusted)[0]))}"
    else:
        trusted = "none (raise --n-max)"
    print(f"wrote {out}")
    print(f"provenance {table.provenance_hash}")
    print(f"n_max {table.n_max}  trusted levels {trusted}")
    print(f"structure residual {der.structure_residual:.3e}")
    print(f"a[0..3] {' '.join(f'{v:.6f}' for v in der.a[:4])}")
    return EXIT_OK


def _sweep_predicted_row(table, n: int, lam: float) -> dict:
    pops = predict_populations(n, lam, table)
    coh = predict_coherence(n, lam, table)
    return {
        "pred_phase": predict_phase(n, lam, table),
        "pred_p_gg": pops[0],
        "pred_p_ge": pops[1],
        "pred_p_eg": pops[2],
        "pred_p_ee": pops[3],
        "pred_coherence_abs": abs(coh),
        "pred_fidelity": predict_fidelity(n, lam, table),
        "pred_purity": predict_purity(n, lam, table),
        "pred_population_sum": float(pops.sum()),
    }


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise CliError(f"--points must be at least 1, got {args.points}")
    table = _table_for(args)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.points)
    if np.abs(lams).max() > LAMBDA_HARD_CAP:
        raise CliError(
            f"grid reaches |lambda_tilde| {np.abs(lams).max():.3f} > {LAMBDA_HARD_CAP}"
        )
    fock = [int(s) for s in args.fock.split(",") if s.strip() != ""]
    if not fock:
        raise CliError("--fock must name at least one level")
    rows = []
    for n in fock:
        for lam in lams:
            row = {"lambda_tilde": lam, "fock_n": n}
            row.update(_sweep_predicted_row(table, n, lam))
            rows.append(row)

    columns = list(rows[0])  # the CSV columns, in row-key order
    if args.oracle:
        # The table's gate, in the same (n, lambda) grid order as the rows.
        oracle_rows = oracle_sweep(lams, fock, table.params, FockCutoff(args.cutoff_n_max))
        oracle_cols = [
            "relative_phase",
            "p_gg",
            "p_ge",
            "p_eg",
            "p_ee",
            "coherence_abs",
            "fidelity",
            "purity",
            "norm_drift",
            "guard_band_mass",
        ]
        for row, src in zip(rows, oracle_rows, strict=True):
            for c in oracle_cols:
                row[f"oracle_{c}"] = src[c]
        columns += [f"oracle_{c}" for c in oracle_cols]

    out = Path(args.out)
    lines = [f"# schema={SWEEP_REPORT_SCHEMA}", ",".join(columns)]
    for row in rows:
        cells = [
            str(int(row[c])) if c == "fock_n" else _float_fmt(row[c])
            for c in columns
        ]
        lines.append(",".join(cells))
    outputs = {out: "\n".join(lines) + "\n"}
    if args.plot_script:
        outputs[Path(args.plot_script)] = _sweep_plot_text(
            out, fock, "oracle" if args.oracle else None
        )
    _write_all(outputs)
    print(f"wrote {out} ({len(rows)} rows)")
    if args.plot_script:
        print(f"wrote {args.plot_script}")
    return EXIT_OK


def _write_all(outputs: dict[Path, str]) -> None:
    """Write every file or none, creating missing parent directories: each
    text goes to a temporary file beside its path, and the temporaries
    replace their paths only once all are written, so a path that cannot be
    written leaves the others untouched."""
    tmps = {}
    try:
        for path, text in outputs.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_dir():  # os.replace would fail only after earlier renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            tmps[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(tmps[path], "w", newline="") as fh:
                fh.write(text)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    finally:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)


def _sweep_plot_text(csv_path, fock, oracle_tag) -> str:
    lines = [
        "# gnuplot script generated by msgate sweep",
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'lambda_tilde'",
        f"csv = '{csv_path}'",
        "set terminal pngcairo size 1200,800",
        "set output 'sweep.png'",
        "set multiplot layout 2,2",
    ]
    panels = [
        ("relative phase", "pred_phase", "oracle_relative_phase"),
        ("P(ee)", "pred_p_ee", "oracle_p_ee"),
        ("fidelity", "pred_fidelity", "oracle_fidelity"),
        ("purity", "pred_purity", "oracle_purity"),
    ]
    for title, pred_col, oracle_col in panels:
        lines.append(f"set title '{title}'")
        plots = []
        for n in fock:
            sel = f"(column('fock_n')=={n} ? column('{pred_col}') : 1/0)"
            plots.append(
                f"csv using (column('lambda_tilde')):{sel} with lines title 'n={n} model'"
            )
            if oracle_tag:
                sel_o = f"(column('fock_n')=={n} ? column('{oracle_col}') : 1/0)"
                plots.append(
                    f"csv using (column('lambda_tilde')):{sel_o} with points title 'n={n} oracle'"
                )
        lines.append("plot " + ", \\\n     ".join(plots))
    lines.append("unset multiplot")
    return "\n".join(lines) + "\n"


def cmd_calibrate(args) -> int:
    _require(args, "detuning-hz", "shift-hz")
    table = _table_for(args)
    detuning = 2.0 * math.pi * args.detuning_hz
    shift = 2.0 * math.pi * args.shift_hz
    config = SequenceConfig(
        detuning=detuning,
        qubit_shift=shift,
        fock_initial=_fock_level(args) or 0,
        n_bar=args.nbar,
        phase_points=args.points,
        shots=None if args.shots == 0 else args.shots,
        engine=args.engine,
        cutoff_n_max=args.cutoff_n_max,
    )
    rng = np.random.default_rng(args.seed)
    fit, estimate, phi_d, p_obs = run_calibration(config, table, rng)
    report = {
        "schema": CALIBRATION_SCHEMA,
        "package_version": __version__,
        "inputs": {
            "detuning_hz": args.detuning_hz,
            "true_shift_hz": args.shift_hz,
            "engine": args.engine,
            "shots": config.shots,
            "phase_points": args.points,
            "fock_initial": config.fock_initial,
            "n_bar": args.nbar,
            "seed": args.seed,
            "table_provenance": table.provenance_hash,
        },
        "fit": {
            "amplitude": fit.amplitude,
            "phase": fit.phase,
            "offset": fit.offset,
            "phase_err": _finite_or_null(fit.phase_err),
            "residual_rms": fit.residual_rms,
        },
        "estimate": {
            "shift_hz": estimate.lambda_hat / (2.0 * math.pi),
            "shift_err_hz": _finite_or_null(estimate.lambda_err / (2.0 * math.pi)),
            "phi_seq": estimate.phi_seq,
            "phi_seq_predicted": phi_seq_prediction(shift, detuning, estimate.slope),
            "slope": estimate.slope,
            "caveats": estimate.caveats,
        },
        "scan": {
            "phi_d": [float(x) for x in phi_d],
            "p_ee": [float(x) for x in p_obs],
        },
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    err = estimate.lambda_err / (2.0 * math.pi)
    print(
        f"phi_seq = {fit.phase:+.6f} rad -> shift = "
        f"{estimate.lambda_hat / (2 * math.pi):+.3f} Hz "
        f"(1 sigma {err:.3f} Hz; true {args.shift_hz:+.3f} Hz)"
    )
    for caveat in estimate.caveats:
        print(f"caveat: {caveat}")
    return EXIT_OK


def cmd_trajectory(args) -> int:
    params = DimensionlessGateParams(
        omega_tilde=args.omega_tilde, tau_gate=2.0 * math.pi * args.loops
    )
    traj = phase_space_trajectory(params, args.samples)
    write_trajectory_csv(args.out, traj)
    print(f"wrote {args.out} ({args.samples} samples)")
    return EXIT_OK


def cmd_predict(args) -> int:
    _require(args, "lambda-tilde")
    table = _table_for(args)
    lam = args.lambda_tilde
    fock = _fock_level(args)
    target = ThermalDistribution(args.nbar) if fock is None else fock
    doc = {
        "lambda_tilde": lam,
        "initial": args.initial,
        "fock": fock,
        "n_bar": args.nbar,
        "phase": predict_phase(target, lam, table, args.initial),
        "fidelity": predict_fidelity(target, lam, table),
    }
    if fock is not None:  # these predictors take a single level only
        pops = predict_populations(fock, lam, table, args.initial)
        coh = predict_coherence(fock, lam, table, args.initial)
        doc.update(
            {
                "populations": [float(p) for p in pops],
                "population_sum": float(pops.sum()),
                "coherence_re": coh.real,
                "coherence_im": coh.imag,
                "purity": predict_purity(fock, lam, table),
            }
        )
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
    p.add_argument("--panels-1d", type=int, default=2**14, help="recorded only; tables are exact")
    p.add_argument("--panels-2d", type=int, default=2**10, help="recorded only; tables are exact")
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
    p.add_argument("--cutoff-n-max", type=int, default=32)
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
    p.add_argument("--points", type=int, default=16)
    p.add_argument("--shots", type=int, default=200, help="0 means exact probabilities")
    p.add_argument("--engine", choices=["oracle", "first_order_model"], default="oracle")
    p.add_argument("--steps", type=int, default=4096, help="ignored (propagation is exact)")
    p.add_argument("--cutoff-n-max", type=int, default=32, help="too low exits 3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("trajectory", help="phase-space loop of the driven mode")
    p.add_argument("--omega-tilde", type=float, default=0.5)
    p.add_argument("--loops", type=int, default=1)
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


def _apply_config(parser, subparsers, config, args, argv):
    """Fold config-file values in as subcommand defaults; flags still win."""
    section = config.get(args.command, {})
    if not isinstance(section, dict):
        raise CliError(f"config section {args.command!r} must be an object")
    if not section:
        return args
    for key in section:
        if not hasattr(args, key.replace("-", "_")):
            raise CliError(f"config key {key!r} is not an option of {args.command!r}")
    subparsers[args.command].set_defaults(
        **{k.replace("-", "_"): v for k, v in section.items()}
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        if config:
            args = _apply_config(parser, subparsers, config, args, argv)
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

"""The workloads: their set-up, their fixed operation sequence, and the
correctness check of every operation.

BENCHMARK.json gates two of them: table_build, and oracle, which runs
oracle_sweep's operation and then oracle_calibrate's two in one sequence.
oracle_sweep, oracle_calibrate and model_calibrate stay runnable on their
own as diagnostics.

Every operation is one ``msgate.cli.main(argv)`` call, the command a user
types.  The workload seed decides the lambda grid offsets, the injected
shifts, the shot-noise seeds and the order of the model_calibrate stream;
msgate receives only the generated argv.  All tables have the CLI-default
shape n_max 40 (41 x 41).

Three sizes (``--size``):

- ``bench``, the gated default: operations of 0.7-2 s, so that a 30 s run
  repeats the sequence 8-40 times and each operation's best repeat falls
  in a quiet stretch of the shared host.  The table is built at panels
  4096/256 (24 trusted levels) and the oracle runs 1024 RK4 steps.
- ``full``: the sizes users meet at CLI defaults: ``msgate coefficients``
  with no options (panels 16384/1024, about 15 s) and the oracle at 4096
  steps (sweep about 8 s, calibration about 4 s).  A run holds one or two
  repeats, whose time tracks the host's load over that minute; use it to
  cite CLI-default costs, not as a gate.
- ``tiny``: smoke mode, a few seconds per workload.

Signed numbers are passed as ``--option=value``: argparse takes a separate
argument such as ``-9.6e-05`` (exponent form) for an option name.

model_calibrate is not in BENCHMARK.json: its Python-bound commands slow
down by up to 1.8x when the shared host is busy, which put its run-to-run
spread at 9-33%.  It stays runnable as a diagnostic of per-command costs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from reference import Scalars, sweep_reference, table_key

SIZES = ("bench", "full", "tiny")
CLI_DEFAULT = (40, 2**14, 2**10)  # msgate coefficients with no options
SETUP_TABLE = (40, 2**12, 2**8)  # read by the other workloads; built by bench table_build
TINY_TABLE = (40, 2**8, 2**5)
ORACLE_STEPS = {"bench": 1024, "full": 4096, "tiny": 1024}

COEFF_TOL = 1e-8  # refinement tolerance of acceptance gate 9
STRUCTURE_TOL = 1e-6
MIN_TRUSTED = 24
OUTPUT_TOL = 1e-8
GUARD_TOL = 1e-10
NORM_TOL = 1e-6
# |lambda_hat - lambda| / sigma beyond this is a failed calibration.  Shot
# noise alone exceeds 6 sigma about twice in a billion Gaussian draws.
Z_MAX = 6.0

DETUNING_HZ = -11e3
SHOTS = 200


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    argv: list[str]
    check: Callable[[str], dict | None]  # stdout -> extra measurements


def _close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if not np.all(err <= tol):
        raise CheckFailed(f"{what}: error {np.nanmax(err):.3e} exceeds {tol:.1e}")


def _table_args(shape) -> list[str]:
    n_max, p1, p2 = shape
    return ["--n-max", str(n_max), "--panels-1d", str(p1), "--panels-2d", str(p2)]


class Workload:
    """Shared plumbing: tables, predictor checks and calibration checks."""

    name = ""

    def __init__(self, seed: int, size: str, work: Path, refs: dict):
        self.rng = np.random.default_rng(seed)
        self.size = size
        self.tiny = size == "tiny"
        self.work = work
        self.refs = refs
        self.table_shape = TINY_TABLE if self.tiny else SETUP_TABLE
        self.table_path = work / "table.json"

    def scalars(self, shape) -> Scalars:
        return Scalars(self.refs["tables"][table_key(*shape)])

    @property
    def ref(self) -> Scalars:
        """Reference scalars of the table the workload reads."""
        return self.scalars(self.table_shape)

    def build_table(self, call) -> None:
        argv = ["coefficients", *_table_args(self.table_shape), "--out", str(self.table_path)]
        _require_ok(call(argv), argv)

    def setup(self, call) -> None:
        """Build what the workload reads, warm up, and fix ``self.ops``."""
        self.build_table(call)
        self.prepare(call)

    def prepare(self, call) -> None:
        """Warm up and fix ``self.ops``; the table has been built."""
        raise NotImplementedError

    def sequence(self) -> list[Op]:
        return self.ops

    # ------------------------------------------------------- shared checks

    def predict_op(self) -> Op:
        table = self.table_path
        lam = float(self.rng.uniform(-0.1, 0.1))
        if self.rng.random() < 0.3:
            n_bar = float(self.rng.uniform(0.05, 0.5))
            argv = ["predict", "--table", str(table), f"--lambda-tilde={lam!r}",
                    f"--nbar={n_bar!r}"]
            return Op(argv, lambda out: self._check_thermal(out, lam, n_bar))
        n = int(self.rng.integers(0, 6))
        initial = "gg" if self.rng.random() < 0.5 else "ee"
        argv = ["predict", "--table", str(table), f"--lambda-tilde={lam!r}",
                "--fock-initial", str(n), "--initial", initial]
        return Op(argv, lambda out: self._check_fock(out, lam, n, initial))

    def _check_fock(self, out: str, lam: float, n: int, initial: str) -> None:
        doc = json.loads(out)
        ref = self.ref
        one = (np.array([n]), np.array([1.0]))
        sign = 1.0 if initial == "gg" else -1.0
        coh = ref.coherence(n, lam, initial)
        pops = ref.populations(n, lam, initial)
        _close(doc["phase"], ref.phase(*one, lam, sign), OUTPUT_TOL, "phase")
        _close(doc["fidelity"], ref.fidelity(*one, lam), OUTPUT_TOL, "fidelity")
        _close(doc["populations"], pops, OUTPUT_TOL, "populations")
        _close(doc["population_sum"], pops.sum(), OUTPUT_TOL, "population sum")
        _close([doc["coherence_re"], doc["coherence_im"]], [coh.real, coh.imag],
               OUTPUT_TOL, "coherence")
        _close(doc["purity"], ref.purity(n, lam), OUTPUT_TOL, "purity")

    def _check_thermal(self, out: str, lam: float, n_bar: float) -> None:
        doc = json.loads(out)
        ref = self.ref
        levels, weights = ref.thermal(n_bar)
        _close(doc["phase"], ref.phase(levels, weights, lam), OUTPUT_TOL, "thermal phase")
        _close(doc["fidelity"], ref.fidelity(levels, weights, lam), OUTPUT_TOL,
               "thermal fidelity")

    def calibrate_op(self, engine: str, fock: int, shift_hz: float, extra: list[str],
                     report: Path) -> Op:
        seed = int(self.rng.integers(0, 2**31))
        argv = ["calibrate", "--table", str(self.table_path), "--engine", engine,
                f"--detuning-hz={DETUNING_HZ!r}", f"--shift-hz={shift_hz!r}",
                "--fock-initial", str(fock), "--shots", str(SHOTS), "--seed", str(seed),
                "--out", str(report), *extra]
        return Op(argv, lambda out: self._check_calibration(report, shift_hz))

    def _check_calibration(self, report: Path, shift_hz: float) -> dict:
        est = json.loads(report.read_text())["estimate"]
        sigma = est["shift_err_hz"]
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise CheckFailed(f"calibration error bar {sigma} is not a positive number")
        z = abs(est["shift_hz"] - shift_hz) / sigma
        if z > Z_MAX:
            raise CheckFailed(f"|lambda_hat - lambda| = {z:.2f} sigma exceeds {Z_MAX}")
        return {"z": z}

    def signed_shift(self, sign: float) -> float:
        return float(sign) * float(self.rng.uniform(30.0, 300.0))

    def check_sweep_predictions(self, rows: list[dict]) -> None:
        ref = self.ref
        for row in rows:
            want = ref.sweep_row(int(row["fock_n"]), float(row["lambda_tilde"]))
            for col, value in want.items():
                _close(float(row[col]), value, OUTPUT_TOL, f"{col} at row {row['fock_n']}")


def _require_ok(result, argv) -> None:
    rc, _, err = result
    if rc != 0:
        raise CheckFailed(f"set-up command {' '.join(argv)} exited {rc}: {err[-400:]}")


def read_sweep_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        if not fh.readline().startswith("# schema="):
            raise CheckFailed("sweep CSV lacks its schema line")
        return list(csv.DictReader(fh))


class TableBuild(Workload):
    """One ``msgate coefficients`` (CLI defaults at size full), written to a fresh path.

    The check reloads the written file and compares its scalars with the
    stored references; reading tables is timed in model_calibrate.
    """

    name = "table_build"

    def __init__(self, *args):
        super().__init__(*args)
        self.build_shape = {"bench": SETUP_TABLE, "full": CLI_DEFAULT, "tiny": TINY_TABLE}[self.size]
        self.out = self.work / "built.json"

    def setup(self, call) -> None:
        # A tiny build warms imports, allocators and BLAS threads; a full
        # warm-up would double the run for no information.
        argv = ["coefficients", *_table_args(TINY_TABLE), "--out", str(self.work / "warm.json")]
        _require_ok(call(argv), argv)
        build = ["coefficients", "--out", str(self.out)]
        if self.build_shape != CLI_DEFAULT:
            build += _table_args(self.build_shape)
        self.ops = [Op(build, self._check_table)]

    def _check_table(self, out: str) -> None:
        try:
            der = json.loads(self.out.read_text())["derived"]
        finally:
            self.out.unlink(missing_ok=True)  # the next build writes a fresh path
        ref = self.scalars(self.build_shape)
        trusted = np.asarray(der["trusted"], dtype=bool)
        if trusted.sum() < MIN_TRUSTED or not trusted[ref.trusted].all():
            raise CheckFailed(f"only {int(trusted.sum())} trusted levels")
        if der["structure_residual"] > STRUCTURE_TOL:
            raise CheckFailed(f"structure residual {der['structure_residual']:.3e}")
        lv = ref.trusted
        for name in ("a", "c_gg", "c_ee", "c_eg"):
            _close(np.asarray(der[name])[lv], getattr(ref, name)[lv], COEFF_TOL, name)
        _close(np.asarray(der["b"]["re"])[lv], ref.b.real[lv], COEFF_TOL, "b.real")
        _close(np.asarray(der["b"]["im"])[lv], ref.b.imag[lv], COEFF_TOL, "b.imag")


class OracleSweep(Workload):
    """``msgate sweep --oracle`` over 21 lambda x Fock 0..3 (84 RK4 columns)."""

    name = "oracle_sweep"

    def __init__(self, *args):
        super().__init__(*args)
        self.points, self.fock = (3, [0, 1]) if self.tiny else (21, [0, 1, 2, 3])
        self.steps = ORACLE_STEPS[self.size]
        self.lo = -0.1 + float(self.rng.uniform(0.0, 0.01))
        self.hi = 0.1 - float(self.rng.uniform(0.0, 0.01))
        self.csv = self.work / "sweep.csv"

    def argv(self, points, fock, steps, out) -> list[str]:
        return ["sweep", "--table", str(self.table_path), f"--lambda-min={self.lo!r}",
                f"--lambda-max={self.hi!r}", "--points", str(points),
                "--fock", ",".join(map(str, fock)), "--oracle", "--steps", str(steps),
                "--cutoff-n-max", "32", "--out", str(out)]

    def prepare(self, call) -> None:
        lams = np.linspace(self.lo, self.hi, self.points)
        self.exact = sweep_reference(lams, self.fock, 32, 0.5)
        warm = self.argv(2, [0], 256, self.work / "warm.csv")
        _require_ok(call(warm), warm)
        self.ops = [Op(self.argv(self.points, self.fock, self.steps, self.csv), self._check)]

    def _check(self, out: str) -> None:
        rows = read_sweep_csv(self.csv)
        if len(rows) != self.points * len(self.fock):
            raise CheckFailed(f"sweep wrote {len(rows)} rows")
        self.check_sweep_predictions(rows)
        for k, row in enumerate(rows):
            n, i = int(row["fock_n"]), k % self.points
            for col, want in self.exact[(n, i)].items():
                _close(float(row[f"oracle_{col}"]), want, OUTPUT_TOL, f"oracle_{col} n={n}")
            if float(row["oracle_guard_band_mass"]) > GUARD_TOL:
                raise CheckFailed("guard-band mass above tolerance")
            if float(row["oracle_norm_drift"]) > NORM_TOL:
                raise CheckFailed("norm drift above tolerance")


class OracleCalibrate(Workload):
    """Two ``msgate calibrate --engine oracle`` runs, Fock 0 and 1, opposite shifts."""

    name = "oracle_calibrate"

    def prepare(self, call) -> None:
        op = self.calibrate_op("oracle", 0, self.signed_shift(1.0),
                               ["--steps", "256", "--points", "8"], self.work / "warm.json")
        _require_ok(call(op.argv), op.argv)
        sign = 1.0 if self.rng.random() < 0.5 else -1.0
        extra = ["--steps", str(ORACLE_STEPS[self.size])] + (["--points", "8"] if self.tiny else [])
        self.ops = [
            self.calibrate_op("oracle", fock, self.signed_shift(s), extra,
                              self.work / f"calibration-{fock}.json")
            for fock, s in ((0, sign), (1, -sign))
        ]


class Oracle(Workload):
    """oracle_sweep's operation, then oracle_calibrate's two, in one sequence.

    Both RK4 kernels in one gated workload: the static axis with 84 columns
    and many distinct lambda, the ramped axis at batch 1 then 16 with one
    lambda.  The trace tells them apart (``oracle.static`` and
    ``oracle.ramped``); one workload instead of two leaves room in the
    benchmark's time budget for runs long enough to be steady.
    """

    name = "oracle"

    def prepare(self, call) -> None:
        parts = [cls(int(self.rng.integers(0, 2**31)), self.size, self.work, self.refs)
                 for cls in (OracleSweep, OracleCalibrate)]
        for part in parts:
            part.prepare(call)
        self.ops = [op for part in parts for op in part.ops]


class ModelCalibrate(Workload):
    """A seeded stream of short commands against the saved table."""

    name = "model_calibrate"
    # 120 operations, so that p90 over them has 12 beyond it.
    MIX = {"predict": 66, "calibrate": 36, "sweep": 18}
    TINY_MIX = {"predict": 4, "calibrate": 2, "sweep": 2}

    def prepare(self, call) -> None:
        mix = self.TINY_MIX if self.tiny else self.MIX
        ops = [self.predict_op() for _ in range(mix["predict"])]
        ops += [
            self.calibrate_op("first_order_model", int(self.rng.integers(0, 3)),
                              self.signed_shift(self.rng.choice([-1.0, 1.0])), [],
                              self.work / f"calibration-{k}.json")
            for k in range(mix["calibrate"])
        ]
        ops += [self._sweep_op(self.work / f"sweep-{k}.csv") for k in range(mix["sweep"])]
        order = self.rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]
        warm = self.predict_op()
        _require_ok(call(warm.argv), warm.argv)

    def _sweep_op(self, out: Path) -> Op:
        lo = -0.1 + float(self.rng.uniform(0.0, 0.02))
        hi = 0.1 - float(self.rng.uniform(0.0, 0.02))
        argv = ["sweep", "--table", str(self.table_path), f"--lambda-min={lo!r}",
                f"--lambda-max={hi!r}", "--points", "41", "--fock", "0,1,2,3",
                "--out", str(out)]
        return Op(argv, lambda _: self._check_sweep(out))

    def _check_sweep(self, out: Path) -> None:
        rows = read_sweep_csv(out)
        if len(rows) != 41 * 4:
            raise CheckFailed(f"sweep wrote {len(rows)} rows")
        self.check_sweep_predictions(rows)


WORKLOADS = {w.name: w for w in (TableBuild, Oracle, OracleSweep, OracleCalibrate, ModelCalibrate)}

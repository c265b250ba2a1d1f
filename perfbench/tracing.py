"""In-memory spans around the calls into msgate's modules, and the per-layer
metrics derived from them.

Each public function is wrapped where its caller looks it up (for example
``msgate.cli.compute_coefficient_table`` and
``msgate.experiment.propagate_ramped_axis``), only while a traced sequence
runs.  A span records name, start, end, parent and sequence index.  Hooks
run after a span has closed and only keep references to inputs and
outputs; every comparison against a reference happens after the traced
sequences, so it adds nothing to any span.

Layer-to-metric map: which end-to-end metric each per-layer metric should
move, on which workload.  BENCHMARK.json gates table_build and oracle;
oracle runs oracle_sweep's operation and then oracle_calibrate's two, so
"wall_s on oracle_sweep" below shows as wall_s and op_p90_s on oracle, and
"wall_s on oracle_calibrate" as wall_s and op_p50_s on oracle.
model_calibrate runs but is not gated (see workloads.py); on the gated
workloads the read side shows in oracle, which loads a table per command.

========================  =====================================  ==========================================
layer                     per-layer metrics                      moves
========================  =====================================  ==========================================
cli                       cli.main.calls, cli.self_s,            op_p50_s on model_calibrate; failures on
                          cli.exit_nonzero                       every workload
magnus (build)            magnus.first_order.s,                  wall_s on table_build; nothing elsewhere
                          magnus.second_order.{s,nodes,gflop,
                          gflop_per_s}
magnus (store)            magnus.save.{s,bytes},                 wall_s on table_build (write side);
                          magnus.load.{s,calls},                 op_p50_s on model_calibrate (read side)
                          magnus.derived.{s,calls}
magnus (predict)          magnus.predict.{s,calls},              op_p50_s on model_calibrate; table health
                          magnus.table.max_rel_err,              feeds failures on table_build
                          magnus.trusted_levels,
                          magnus.structure_residual
oracle (static axis)      oracle.static.{s,calls,column_steps,   wall_s on oracle_sweep
                          ns_per_column_step},
                          oracle.observables.{s,calls}
oracle (ramped axis)      oracle.ramped.{s,calls,column_steps,   wall_s on oracle_calibrate
                          ns_per_column_step}
oracle (shape, health)    oracle.distinct_lambda,                explains oracle_sweep against
                          oracle.norm_drift_max,                 oracle_calibrate; feeds failures
                          oracle.guard_mass_max,
                          oracle.max_abs_err
experiment                experiment.simulate.self_s,            op_p50_s on model_calibrate; wall_s on
                          experiment.fit.{s,calls,               oracle_calibrate
                          cov_undetermined},
                          experiment.estimate.max_z
run                       trace.wall_s, trace.overhead_frac,     none: diagnostics
                          proc.cpu_s
========================  =====================================  ==========================================

Times, calls and computed counts are per workload sequence (totals over the
traced sequences divided by their number).  Counts marked "computed" come
from input sizes, never from timing, and repeat exactly:
``magnus.second_order.nodes`` is the 2D Simpson grid (2 * panels_2d + 1)^2;
``magnus.second_order.gflop`` is nodes * dim^2 * 3 weight sets * 8 real
flops per complex multiply-add (the weighted moment GEMMs only);
``oracle.*.column_steps`` is columns * RK4 steps per call;
``oracle.distinct_lambda`` is the largest number of distinct lambda values
one operation hands to the oracle.  ``hilbert`` and ``ideal`` get no spans:
they take at most about 1% of any workload and are timed inside their
callers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import time
from collections import defaultdict

import numpy as np

from reference import ExactGate, Scalars, table_key

# name -> (unit, better).  BENCHMARK.json lists the same names and units;
# smoke mode checks that they agree.
PER_LAYER = {
    "cli.main.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.exit_nonzero": ("count", "lower"),
    "magnus.first_order.s": ("s", "lower"),
    "magnus.second_order.s": ("s", "lower"),
    "magnus.second_order.nodes": ("count", "lower"),
    "magnus.second_order.gflop": ("GFLOP", "lower"),
    "magnus.second_order.gflop_per_s": ("GFLOP/s", "higher"),
    "magnus.save.s": ("s", "lower"),
    "magnus.save.bytes": ("bytes", "lower"),
    "magnus.load.s": ("s", "lower"),
    "magnus.load.calls": ("count", "lower"),
    "magnus.derived.s": ("s", "lower"),
    "magnus.derived.calls": ("count", "lower"),
    "magnus.predict.s": ("s", "lower"),
    "magnus.predict.calls": ("count", "lower"),
    "magnus.table.max_rel_err": ("1", "lower"),
    "magnus.trusted_levels": ("count", "higher"),
    "magnus.structure_residual": ("1", "lower"),
    "oracle.static.s": ("s", "lower"),
    "oracle.static.calls": ("count", "lower"),
    "oracle.static.column_steps": ("count", "lower"),
    "oracle.static.ns_per_column_step": ("ns", "lower"),
    "oracle.observables.s": ("s", "lower"),
    "oracle.observables.calls": ("count", "lower"),
    "oracle.ramped.s": ("s", "lower"),
    "oracle.ramped.calls": ("count", "lower"),
    "oracle.ramped.column_steps": ("count", "lower"),
    "oracle.ramped.ns_per_column_step": ("ns", "lower"),
    "oracle.distinct_lambda": ("count", "lower"),
    "oracle.norm_drift_max": ("1", "lower"),
    "oracle.guard_mass_max": ("1", "lower"),
    "oracle.max_abs_err": ("1", "lower"),
    "experiment.simulate.self_s": ("s", "lower"),
    "experiment.fit.s": ("s", "lower"),
    "experiment.fit.calls": ("count", "lower"),
    "experiment.fit.cov_undetermined": ("count", "lower"),
    "experiment.estimate.max_z": ("1", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("1", "lower"),
    "proc.cpu_s": ("s", "lower"),
}

# Quadrature and RK4 kernels, whose absence model_calibrate must show.
HEAVY_SPANS = ("magnus.first_order", "magnus.second_order", "oracle.static", "oracle.ramped")


class Tracer:
    """Spans and raw hook data for the traced sequences of one run."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.spans: list[list] = []  # [name, start, end, parent, sequence]
        self._stack: list[int] = []
        self.sequence = -1
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self.oracle_calls: list[tuple] = []
        self.derived_seen: list[tuple] = []
        self._op_lambdas: set[float] = set()
        self._targets = self._wrap_targets()

    # ------------------------------------------------------------ recording

    def wrap(self, name, fn, hook=None):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.sequence])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return traced

    def _wrap_targets(self) -> list[tuple]:
        import msgate.cli as cli
        import msgate.experiment as experiment
        import msgate.magnus as magnus
        import msgate.oracle as oracle

        plan = [
            (cli, "compute_coefficient_table", "magnus.build", None),
            (magnus, "compute_first_order_table", "magnus.first_order", None),
            (magnus, "compute_second_order_tables", "magnus.second_order", self._second_order),
            (magnus, "save_coefficient_table", "magnus.save", self._save),
            (cli, "load_coefficient_table", "magnus.load", None),
            (magnus, "derived_scalars", "magnus.derived", self._derived),
            (cli, "oracle_sweep", "oracle.sweep", None),
            (oracle, "propagate_batch", "oracle.static", self._static),
            (oracle, "observables", "oracle.observables", None),
            (experiment, "propagate_ramped_axis", "oracle.ramped", self._ramped),
            (cli, "run_calibration", "experiment.calibrate", None),
            (experiment, "simulate_fringe", "experiment.simulate", None),
            (experiment, "fit_fringe", "experiment.fit", self._fit),
        ]
        plan += [
            (cli, f"predict_{what}", "magnus.predict", None)
            for what in ("phase", "populations", "coherence", "fidelity", "purity")
        ]
        return [
            (module, attr, getattr(module, attr), self.wrap(name, getattr(module, attr), hook))
            for module, attr, name, hook in plan
        ]

    @contextlib.contextmanager
    def sequence_scope(self):
        """Route msgate's calls through the wrappers for one sequence."""
        self.sequence += 1
        for module, attr, _, wrapped in self._targets:
            setattr(module, attr, wrapped)
        try:
            yield
        finally:
            for module, attr, original, _ in self._targets:
                setattr(module, attr, original)

    def traced_main(self, main):
        span = self.wrap("cli.main", main)

        def run(argv):
            self._op_lambdas = set()
            rc = None
            try:
                rc = span(argv)
                return rc
            finally:
                self.totals["exit_nonzero"] += rc != 0
                self.maxima["distinct_lambda"] = max(
                    self.maxima["distinct_lambda"], len(self._op_lambdas)
                )

        return run

    # ----------------------------------------------------------------- hooks

    def _second_order(self, args, result) -> None:
        nodes = (2 * args["quad"].panels_2d + 1) ** 2
        dim = args["cutoff"].dim
        self.totals["nodes"] += nodes
        self.totals["gflop"] += 8.0 * 3 * nodes * dim * dim / 1e9

    def _save(self, args, result) -> None:
        self.totals["save_bytes"] += os.path.getsize(args["path"])

    def _derived(self, args, result) -> None:
        table = args["table"]
        key = table_key(table.n_max, table.quad.panels_1d, table.quad.panels_2d)
        self.derived_seen.append((key, result))

    def _propagated(self, kind, amps, result, lambdas, steps, record) -> None:
        final, drift, guard = result
        columns = 1 if np.ndim(amps) == 1 else np.shape(amps)[1]
        self.totals[f"{kind}_column_steps"] += columns * steps
        self.maxima["norm_drift"] = max(self.maxima["norm_drift"], float(np.max(drift)))
        self.maxima["guard_mass"] = max(self.maxima["guard_mass"], float(guard))
        self._op_lambdas.update(float(x) for x in np.unique(lambdas))
        self.oracle_calls.append((kind, record, amps, final))

    def _static(self, args, result) -> None:
        params = args["params"]
        span = args["span"] or (0.0, params.tau_gate)
        record = (args["cutoff"].n_max, params.omega_tilde, params.phi,
                  np.asarray(args["lambda_values"], dtype=float), span)
        self._propagated("static", args["amps"], result, args["lambda_values"],
                         args["config"].steps_per_gate, record)

    def _ramped(self, args, result) -> None:
        record = (args["cutoff"].n_max, args["omega_tilde"], args["lambda_tilde"],
                  np.asarray(args["phi_values"], dtype=float), args["span"])
        self._propagated("ramped", args["amps"], result, [args["lambda_tilde"]],
                         args["config"].steps_per_gate, record)

    def _fit(self, args, result) -> None:
        if not math.isfinite(result.phase_err):
            self.totals["cov_undetermined"] += 1

    # ---------------------------------------------------------------- derive

    def _span_stats(self) -> tuple[dict, dict, dict]:
        """Per span name: total duration, total self time, call count."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[idx]
            calls[name] += 1
        return total, own, calls

    def _oracle_max_abs_err(self) -> float:
        gates: dict[tuple, ExactGate] = {}
        worst = 0.0
        for kind, record, amps, final in self.oracle_calls:
            n_max, omega = record[0], record[1]
            gate = gates.setdefault((n_max, omega), ExactGate(n_max, omega))
            if kind == "static":
                exact = gate.static(amps, record[3], record[4], phi=record[2])
            else:
                exact = gate.ramped(amps, record[2], record[3], record[4])
            worst = max(worst, float(np.abs(exact - np.reshape(final, exact.shape)).max()))
        return worst

    def _table_health(self) -> tuple[float, float, float]:
        worst_err, trusted, residual = 0.0, math.inf, 0.0
        for key, der in self.derived_seen:
            ref = Scalars(self.refs["tables"][key])
            levels = ref.trusted
            for name in ("a", "b", "c_gg", "c_ee", "c_eg"):
                got = np.asarray(getattr(der, name))[levels]
                want = getattr(ref, name)[levels]
                err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                worst_err = max(worst_err, float(err.max()))
            trusted = min(trusted, int(np.count_nonzero(der.trusted)))
            residual = max(residual, float(der.structure_residual))
        return worst_err, (0 if trusted == math.inf else trusted), residual

    def metrics(self, traced_wall: float, overhead: float, cpu_s: float,
                max_z: float) -> dict[str, float]:
        """Per-layer metrics; ``traced_wall`` is the mean traced sequence time."""
        n = self.sequence + 1
        total, own, calls = self._span_stats()
        max_rel_err, trusted, residual = self._table_health()

        def per_seq(value):
            return value / n

        def ns_per(span, steps):
            return 1e9 * total[span] / self.totals[steps] if self.totals[steps] else 0.0

        second = total["magnus.second_order"]
        values = {
            "cli.main.calls": per_seq(calls["cli.main"]),
            "cli.self_s": per_seq(own["cli.main"]),
            "cli.exit_nonzero": per_seq(self.totals["exit_nonzero"]),
            "magnus.first_order.s": per_seq(total["magnus.first_order"]),
            "magnus.second_order.s": per_seq(second),
            "magnus.second_order.nodes": per_seq(self.totals["nodes"]),
            "magnus.second_order.gflop": per_seq(self.totals["gflop"]),
            "magnus.second_order.gflop_per_s": self.totals["gflop"] / second if second else 0.0,
            "magnus.save.s": per_seq(total["magnus.save"]),
            "magnus.save.bytes": per_seq(self.totals["save_bytes"]),
            "magnus.load.s": per_seq(total["magnus.load"]),
            "magnus.load.calls": per_seq(calls["magnus.load"]),
            "magnus.derived.s": per_seq(total["magnus.derived"]),
            "magnus.derived.calls": per_seq(calls["magnus.derived"]),
            "magnus.predict.s": per_seq(total["magnus.predict"]),
            "magnus.predict.calls": per_seq(calls["magnus.predict"]),
            "magnus.table.max_rel_err": max_rel_err,
            "magnus.trusted_levels": trusted,
            "magnus.structure_residual": residual,
            "oracle.static.s": per_seq(total["oracle.static"]),
            "oracle.static.calls": per_seq(calls["oracle.static"]),
            "oracle.static.column_steps": per_seq(self.totals["static_column_steps"]),
            "oracle.static.ns_per_column_step": ns_per("oracle.static", "static_column_steps"),
            "oracle.observables.s": per_seq(total["oracle.observables"]),
            "oracle.observables.calls": per_seq(calls["oracle.observables"]),
            "oracle.ramped.s": per_seq(total["oracle.ramped"]),
            "oracle.ramped.calls": per_seq(calls["oracle.ramped"]),
            "oracle.ramped.column_steps": per_seq(self.totals["ramped_column_steps"]),
            "oracle.ramped.ns_per_column_step": ns_per("oracle.ramped", "ramped_column_steps"),
            "oracle.distinct_lambda": self.maxima["distinct_lambda"],
            "oracle.norm_drift_max": self.maxima["norm_drift"],
            "oracle.guard_mass_max": self.maxima["guard_mass"],
            "oracle.max_abs_err": self._oracle_max_abs_err(),
            "experiment.simulate.self_s": per_seq(own["experiment.simulate"]),
            "experiment.fit.s": per_seq(total["experiment.fit"]),
            "experiment.fit.calls": per_seq(calls["experiment.fit"]),
            "experiment.fit.cov_undetermined": per_seq(self.totals["cov_undetermined"]),
            "experiment.estimate.max_z": max_z,
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": overhead,
            "proc.cpu_s": per_seq(cpu_s),
        }
        return {name: float(v) for name, v in values.items()}

    def stress_report(self, traced_wall: float) -> list[str]:
        """Self-time shares of the traced sequence: what the workload stresses."""
        _, own, _ = self._span_stats()
        n = self.sequence + 1
        spans = {k: v / n for k, v in own.items()}
        top = max(spans, key=spans.get)
        lines = [f"largest span by self time {top} {spans[top]:.4f} s "
                 f"({spans[top] / traced_wall:.1%} of {traced_wall:.4f} s)"]
        lines += [f"{k} {spans[k] / traced_wall:.1%} of the sequence"
                  for k in HEAVY_SPANS if k in spans]
        if not any(k in spans for k in HEAVY_SPANS):
            lines.append("no quadrature or RK4 spans")
        return lines

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "sequence"],
            "spans": self.spans,
            "totals": dict(self.totals),
            "maxima": dict(self.maxima),
        }

"""Regenerate ``refs.json``, the stored references the benchmark checks against.

Run from the checkout root on code whose tables are trusted:

    python3 perfbench/make_refs.py

It builds each table shape the workloads read (the CLI default, the table
built in set-up, and the tiny shape of smoke mode) with msgate's quadrature,
stores the derived per-level scalars, and records how closely the exact
propagator of ``reference.py`` agrees with msgate's RK4 at 8192 steps.
The full-size table takes about 14 s on 2 cores.
"""

from __future__ import annotations

import json
import math

import numpy as np

from env import use_checkout_source
from reference import REFS_PATH, ExactGate, table_key

# (n_max, panels_1d, panels_2d): CLI default, set-up table, smoke-mode table.
SHAPES = [(40, 2**14, 2**10), (40, 2**12, 2**8), (40, 2**8, 2**5)]


def table_scalars(n_max: int, panels_1d: int, panels_2d: int) -> dict:
    from msgate.magnus import QuadratureSpec, compute_coefficient_table

    table = compute_coefficient_table(n_max=n_max, quad=QuadratureSpec(panels_1d, panels_2d))
    der = table.derived()
    return {
        "a": der.a.tolist(),
        "b_re": der.b.real.tolist(),
        "b_im": der.b.imag.tolist(),
        "c_gg": der.c_gg.tolist(),
        "c_ee": der.c_ee.tolist(),
        "c_eg": der.c_eg.tolist(),
        "trusted": [int(t) for t in der.trusted],
        "structure_residual": der.structure_residual,
    }


def exact_vs_rk4(steps: int = 8192, n_max: int = 32) -> dict:
    """Largest amplitude gap between the exact propagator and msgate's RK4."""
    from msgate.hilbert import FockCutoff
    from msgate.ideal import DimensionlessGateParams
    from msgate.oracle import IntegratorConfig, propagate_batch, propagate_ramped_axis

    cutoff = FockCutoff(n_max)
    d = cutoff.dim
    gate = ExactGate(n_max, 0.5)
    config = IntegratorConfig(steps_per_gate=steps)
    one_loop = (0.0, 2.0 * math.pi)

    amps = np.zeros((4 * d, 4), dtype=complex)
    amps[np.arange(4), np.arange(4)] = 1.0
    lams = np.array([-0.1, -0.02, 0.05, 0.1])
    rk4, _, _ = propagate_batch(amps, cutoff, DimensionlessGateParams(), lams, config)
    static = float(np.abs(rk4 - gate.static(amps, lams, one_loop)).max())

    lam = 0.02
    phis = np.array([0.0, 0.7, 2.1])
    init = np.zeros((4 * d, 3), dtype=complex)
    init[[0, 1, d], [0, 1, 2]] = 1.0
    mid, _, _ = propagate_ramped_axis(init, cutoff, 0.5, lam, phis, one_loop, config)
    second = (2.0 * math.pi, 4.0 * math.pi)
    fin, _, _ = propagate_ramped_axis(mid, cutoff, 0.5, lam, phis, second, config)
    exact = gate.ramped(gate.ramped(init, lam, phis, one_loop), lam, phis, second)
    ramped = float(np.abs(fin - exact).max())
    return {"steps": steps, "cutoff_n_max": n_max, "static_max_abs": static,
            "ramped_max_abs": ramped}


def main() -> None:
    use_checkout_source()
    from msgate import __version__

    check = exact_vs_rk4()
    if max(check["static_max_abs"], check["ramped_max_abs"]) > 1e-10:
        raise SystemExit(f"exact propagator disagrees with RK4: {check}")
    doc = {
        "msgate_version": __version__,
        "exact_vs_rk4": check,
        "tables": {table_key(*shape): table_scalars(*shape) for shape in SHAPES},
    }
    REFS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS_PATH}: {check}")


if __name__ == "__main__":
    main()

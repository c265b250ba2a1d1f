"""Release gate: nine end-to-end checks, one printed PASS/FAIL line each.

Every check pits an independent route (matrix exponentials, exact
full-Hamiltonian propagation, simulated calibration scans) against the
closed-form layer at a fixed tolerance; check 9 also holds the RK4
reference route to fourth order against the exact propagator, and the
quadrature of the tables' integral definitions to convergence onto the
spectral tables.  Shared oracle batches are module-scoped.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from msgate.cli import EXIT_OK, main
from msgate.experiment import (
    SequenceConfig,
    effective_phase_slope,
    estimate_lambda,
    fit_fringe,
    run_calibration,
    sample_fringe,
    simulate_fringe,
)
from msgate.hilbert import CompositeState, displacement_matrix
from msgate.ideal import DimensionlessGateParams, ideal_output_state
from msgate.magnus import (
    QuadratureSpec,
    compute_coefficient_table,
    predict_coherence,
    predict_fidelity,
    predict_phase,
    predict_populations,
    predict_purity,
)
from msgate.oracle import (
    IntegratorConfig,
    observables,
    propagate_batch,
    relative_phase_pair,
)
from quadrature import quadrature_table

EPSILON = -2.0 * math.pi * 11e3  # rad/s
H = 0.01
STENCIL = (-2 * H, -H, 0.0, H, 2 * H)
SCALING_GRID = (0.01, 0.02, 0.04, 0.08)


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _gg_observables(lam_values, cutoff, config):
    """Observables of the propagated |gg, n> inputs on a (n, lambda) grid."""
    params = DimensionlessGateParams()
    pairs = [(n, lam) for n in range(4) for lam in lam_values]
    amps = np.zeros((cutoff.composite_dim, len(pairs)), dtype=complex)
    for j, (n, _) in enumerate(pairs):
        amps[cutoff.index(0, n), j] = 1.0
    lam_cols = np.array([lam for _, lam in pairs])
    final, drift, guard = propagate_batch(amps, cutoff, params, lam_cols, config)
    assert drift.max() < 1e-9 and guard < 1e-8
    return {
        (n, lam): observables(CompositeState(final[:, j], cutoff), "gg", n)
        for j, (n, lam) in enumerate(pairs)
    }


@pytest.fixture(scope="module")
def stencil_obs(oracle_cutoff, fast_integrator):
    return _gg_observables(STENCIL, oracle_cutoff, fast_integrator)


@pytest.fixture(scope="module")
def scaling_obs(oracle_cutoff, fast_integrator):
    both_signs = tuple(SCALING_GRID) + tuple(-m for m in SCALING_GRID)
    return _gg_observables(both_signs, oracle_cutoff, fast_integrator)


@pytest.fixture(scope="module")
def table_file(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "table.json"
    table.save(path)
    return path


def test_1_displacement_closed_forms(capsys):
    dim, pad = 13, 64
    lower = np.diag(np.sqrt(np.arange(1, pad)), -1)
    alphas = [0.0] + [
        r * np.exp(1j * t)
        for r in (0.3, 0.6, 0.9, 1.2)
        for t in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ]
    worst = 0.0
    for alpha in alphas:
        big = expm(alpha * lower - np.conj(alpha) * lower.T)
        worst = max(worst, np.abs(displacement_matrix(alpha, dim) - big[:dim, :dim]).max())
    _report(
        capsys, 1, worst <= 1e-8,
        f"displacement vs expm oracle max|diff| {worst:.2e} "
        f"(tol 1e-8; m,n <= 12, |alpha| <= 1.2, oracle cutoff 64)",
    )


def test_2_ideal_gate_regression(capsys, oracle_cutoff, fast_integrator):
    params = DimensionlessGateParams()
    pairs = [(q, label, n)
             for q, label in enumerate(("gg", "ge", "eg", "ee"))
             for n in range(4)]
    amps = np.zeros((oracle_cutoff.composite_dim, len(pairs)), dtype=complex)
    for j, (q, _, n) in enumerate(pairs):
        amps[oracle_cutoff.index(q, n), j] = 1.0
    final, drift, guard = propagate_batch(
        amps, oracle_cutoff, params, np.zeros(len(pairs)), fast_integrator
    )
    assert drift.max() < 1e-9 and guard < 1e-9
    worst_entry, worst_fid = 0.0, 1.0
    for j, (_, label, n) in enumerate(pairs):
        target = ideal_output_state(label, n, oracle_cutoff)
        worst_entry = max(worst_entry, np.abs(final[:, j] - target.amplitudes).max())
        obs = observables(CompositeState(final[:, j], oracle_cutoff), label, n)
        worst_fid = min(worst_fid, obs["fidelity"])
    ok = worst_entry <= 1e-8 and worst_fid >= 1.0 - 1e-10
    _report(
        capsys, 2, ok,
        f"calibrated gate vs closed form: max entry diff {worst_entry:.2e} "
        f"(tol 1e-8), min traced fidelity 1-{1.0 - worst_fid:.2e} "
        f"(need >= 1-1e-10) over 16 basis inputs",
    )


def test_3_first_order_phase_slope(capsys, stencil_obs, derived):
    worst = 0.0
    for n in range(4):
        f = [stencil_obs[(n, lam)]["relative_phase"] for lam in STENCIL]
        slope = (-f[4] + 8.0 * f[3] - 8.0 * f[1] + f[0]) / (12.0 * H)
        worst = max(worst, abs(slope - derived.a[n]) / abs(derived.a[n]))
    _report(
        capsys, 3, worst <= 1e-3,
        f"five-point d(phase)/d(lambda) at 0 vs a_n: worst rel err {worst:.2e} "
        f"(tol 1e-3, n = 0..3)",
    )


def test_4_second_order_curvatures(capsys, stencil_obs, derived):
    def curvature(values):
        f = list(values)
        return (-f[4] + 16.0 * f[3] - 30.0 * f[2] + 16.0 * f[1] - f[0]) / (
            12.0 * H * H
        )

    worst_ratio, failures = 0.0, []
    for n in range(4):
        row = [stencil_obs[(n, lam)] for lam in STENCIL]
        got = {
            "P(gg)": curvature(o["populations"][0] for o in row),
            "P(ee)": curvature(o["populations"][3] for o in row),
            "P(eg)": curvature(o["populations"][2] for o in row),
            "fidelity": curvature(o["fidelity"] for o in row),
            "purity": curvature(o["purity"] for o in row),
        }
        b_im = derived.b[n].imag
        expected = {
            "P(gg)": 2.0 * derived.c_gg[n],
            "P(ee)": 2.0 * derived.c_ee[n],
            "P(eg)": 2.0 * derived.c_eg[n],
            "fidelity": derived.c_gg[n] + derived.c_ee[n] - b_im,
            "purity": -2.0 * (
                b_im - derived.a[n] ** 2 / 2.0 - derived.c_gg[n] - derived.c_ee[n]
            ),
        }
        for name, want in expected.items():
            tol = max(0.01 * abs(want), 1e-4)
            err = abs(got[name] - want)
            worst_ratio = max(worst_ratio, err / tol)
            if err > tol:
                failures.append(f"{name}[n={n}] err {err:.2e} > tol {tol:.2e}")
    _report(
        capsys, 4, not failures,
        f"oracle curvatures vs 2c_gg/2c_ee/2c_eg/fidelity/purity coefficients: "
        f"worst err/tol {worst_ratio:.2f} (1% rel, floor 1e-4, n = 0..3)"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_5_residual_scaling(capsys, scaling_obs, table):
    # Residual at each magnitude is the worse of the two miscalibration
    # signs: one-sided residuals can dip where adjacent Taylor orders cancel
    # near the top of the ladder, faking a slow-growth exponent.
    def residuals(n, lam):
        obs = scaling_obs[(n, lam)]
        pops = predict_populations(n, lam, table)
        row, col = relative_phase_pair("gg")
        coh = complex(obs["rho"].matrix[row, col])
        out = {"phase": abs(predict_phase(n, lam, table) - obs["relative_phase"])}
        for i, key in enumerate(("P(gg)", "P(ge)", "P(eg)", "P(ee)")):
            out[key] = abs(pops[i] - obs["populations"][i])
        out["coherence"] = abs(predict_coherence(n, lam, table) - coh)
        out["fidelity"] = abs(predict_fidelity(n, lam, table) - obs["fidelity"])
        out["purity"] = abs(predict_purity(n, lam, table) - obs["purity"])
        return out

    log_mag = np.log(np.array(SCALING_GRID))
    slopes = {}
    for n in range(4):
        per_mag = [
            {key: max(plus[key], minus[key]) for key in plus}
            for plus, minus in (
                (residuals(n, m), residuals(n, -m)) for m in SCALING_GRID
            )
        ]
        for key in per_mag[0]:
            series = np.array([r[key] for r in per_mag])
            log_resid = np.log(np.maximum(series, 1e-16))
            slopes[(n, key)] = np.polyfit(log_mag, log_resid, 1)[0]
    worst_key = min(slopes, key=slopes.get)
    worst = slopes[worst_key]
    _report(
        capsys, 5, worst >= 2.5,
        f"worst-sign |prediction - oracle| log-log slopes over |lambda| "
        f"{SCALING_GRID}: min {worst:.2f} at {worst_key[1]}[n={worst_key[0]}] "
        f"(need >= 2.5, {len(slopes)} series)",
    )


def test_6_sweep_figure_properties(capsys, table_file, tmp_path):
    out = tmp_path / "figure-data.csv"
    rc = main([
        "sweep", "--table", str(table_file), "--lambda-min", "-0.1",
        "--lambda-max", "0.1", "--points", "41", "--fock", "0,1,2,3",
        "--out", str(out),
    ])
    assert rc == EXIT_OK
    data = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
    slopes, sym_ok, purity_ok = [], True, True
    for n in range(4):
        sel = data[data["fock_n"] == n]
        lam = sel["lambda_tilde"]
        slopes.append(np.polyfit(lam, sel["pred_phase"], 1)[0])
        sym = sel["pred_p_ge"] + sel["pred_p_eg"]
        sym_ok &= bool(np.allclose(sym, sym[::-1], atol=1e-12) and sym.min() >= -1e-15)
        pur = sel["pred_purity"]
        purity_ok &= bool(
            pur.max() <= 1.0 + 1e-12
            and abs(lam[np.argmin(pur)]) == np.abs(lam).max()
        )
    magnitudes = np.abs(slopes)
    ordered = bool(np.all(np.diff(magnitudes) < 0))
    ok = ordered and sym_ok and purity_ok
    _report(
        capsys, 6, ok,
        f"sweep CSV over lambda in [-0.1, 0.1], n = 0..3: phase |slope| "
        f"{np.array2string(magnitudes, precision=3)} decreasing {ordered}, "
        f"P(ge)+P(eg) symmetric/nonnegative {sym_ok}, purity <= 1 with "
        f"edge minimum {purity_ok}",
    )


def test_7_two_gate_fringe_slope(capsys, table, derived):
    shift = 50.0  # rad/s
    worst = 0.0
    for n in range(4):
        fitted = {}
        for sign in (1.0, -1.0):
            config = SequenceConfig(
                detuning=EPSILON, qubit_shift=sign * shift, fock_initial=n,
                shots=None, engine="oracle", cutoff_n_max=32, phase_points=8,
            )
            phi_d, p = simulate_fringe(config, table)
            fitted[sign] = fit_fringe(phi_d, p).phase
        slope = (fitted[1.0] - fitted[-1.0]) / (2.0 * shift)
        expected = 2.0 * derived.a[n] / EPSILON
        worst = max(worst, abs(slope - expected) / abs(expected))
    _report(
        capsys, 7, worst <= 1e-2,
        f"two-gate fringe phase slope vs 2 a_n / detuning at "
        f"{EPSILON / (2 * math.pi):.0f} Hz: worst rel err {worst:.2e} "
        f"(tol 1e-2, n = 0..3)",
    )


def test_8_closed_loop_calibration(capsys, table):
    worst_rel = 0.0
    for lam_tilde in (-0.01, 0.003, 0.03):
        shift = lam_tilde * EPSILON
        config = SequenceConfig(
            detuning=EPSILON, qubit_shift=shift, shots=None, engine="oracle",
            cutoff_n_max=32, phase_points=16,
        )
        _, estimate, _, _ = run_calibration(config, table)
        worst_rel = max(worst_rel, abs(estimate.lambda_hat - shift) / abs(shift))
    noiseless_ok = worst_rel <= 0.05

    # A 32-point scan keeps the fitted-weight noise small at 200 shots, so
    # the reported error bars are calibrated to the few-percent level.
    truth = 0.01 * EPSILON
    config = SequenceConfig(
        detuning=EPSILON, qubit_shift=truth, shots=None, engine="oracle",
        cutoff_n_max=32, phase_points=32,
    )
    phi_d, p_exact = simulate_fringe(config, table)
    slope = effective_phase_slope(table, 0)
    rng = np.random.default_rng(20260814)
    trials, hits = 1000, 0
    for _ in range(trials):
        observed = sample_fringe(p_exact, 200, rng)
        fit = fit_fringe(phi_d, observed, shots=200)
        estimate = estimate_lambda(fit, slope, EPSILON)
        hits += abs(estimate.lambda_hat - truth) <= 3.0 * estimate.lambda_err
    coverage = hits / trials
    coverage_ok = coverage >= 0.99
    _report(
        capsys, 8, noiseless_ok and coverage_ok,
        f"noiseless recovery worst rel err {worst_rel:.2%} (tol 5%, "
        f"|shift/detuning| <= 0.03); 3-sigma coverage {coverage:.1%} over "
        f"{trials} trials at 200 shots (need >= 99%)",
    )


def test_9_numerical_hygiene(capsys, oracle_cutoff, rk4_static, tmp_path):
    params = DimensionlessGateParams(lambda_tilde=0.05)
    initial = CompositeState.basis_state("gg", 1, oracle_cutoff)
    exact, drift, _ = propagate_batch(
        initial.amplitudes, oracle_cutoff, params, 0.05, IntegratorConfig()
    )
    drift = float(drift.max())
    drift_ok = drift <= 1e-9

    column = initial.amplitudes[:, None]
    errors = [
        np.abs(
            rk4_static(column, params, oracle_cutoff, [0.05], s)[:, 0]
            - exact
        ).max()
        for s in (256, 512, 1024)
    ]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    order_ok = all(12.0 < r < 20.0 for r in ratios)

    # The tables are exact; quadrature of their integral definitions must
    # land within the refinement bound of them and close in on refinement.
    quad = QuadratureSpec(panels_1d=4096, panels_2d=256)
    base = compute_coefficient_table(n_max=16, quad=quad)

    def quadrature_gap(spec):
        approx = quadrature_table(n_max=16, quad=spec)
        return max(
            float(np.abs(getattr(base, name) - getattr(approx, name)).max())
            for name in ("i_table", "j1", "j2", "j3")
        )

    coarse_gap = quadrature_gap(quad)
    fine_gap = quadrature_gap(QuadratureSpec(panels_1d=4096, panels_2d=512))
    refine_ok = coarse_gap < 1e-8 and fine_gap < coarse_gap

    first, second, recomputed = (tmp_path / f"t{i}.json" for i in range(3))
    base.save(first)
    base.save(second)
    compute_coefficient_table(n_max=16, quad=quad).save(recomputed)
    bytes_ok = (
        first.read_bytes() == second.read_bytes() == recomputed.read_bytes()
    )

    ok = drift_ok and order_ok and refine_ok and bytes_ok
    _report(
        capsys, 9, ok,
        f"norm drift {drift:.1e}/gate (tol 1e-9); RK4 step-halving error ratios "
        f"against the exact propagator {ratios[0]:.1f}, {ratios[1]:.1f} "
        f"(want ~16); quadrature vs spectral tables {coarse_gap:.1e} at "
        f"4096/256 (tol 1e-8), {fine_gap:.1e} at 4096/512 (must shrink); "
        f"repeated saves byte-identical {bytes_ok}",
    )

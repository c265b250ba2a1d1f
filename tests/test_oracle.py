"""Full-Hamiltonian oracle: exactness against RK4, health checks, convergence."""

import csv
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from msgate.cli import main
from msgate.experiment import SequenceConfig, simulate_fringe
from msgate.hilbert import SIGMA_Y_BASIS, CompositeState, FockCutoff
from msgate.ideal import (
    DimensionlessGateParams,
    collective_spin,
    ideal_output_state,
    ideal_propagator,
    loop_functions,
)
from msgate.oracle import (
    GuardBandError,
    IntegratorConfig,
    NormDriftError,
    _frame_hamiltonian,
    _exact_evolve,
    _rk4,
    _symmetry_blocks,
    expectation_trajectory,
    hamiltonian_matrix,
    observables,
    propagate_batch,
    propagate_ramped_axis,
    relative_phase_pair,
    sweep,
)

TAU = 2.0 * math.pi


class TestHamiltonian:
    def test_hermitian(self):
        params = DimensionlessGateParams(lambda_tilde=0.07)
        for tau in (0.0, 1.1, 4.5):
            h = hamiltonian_matrix(tau, params, FockCutoff(5))
            np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_sz_sign_on_gg(self):
        # <gg,0| H |gg,0> = lambda * <gg|S_z|gg> = +lambda in this frame.
        params = DimensionlessGateParams(lambda_tilde=0.3)
        h = hamiltonian_matrix(0.0, params, FockCutoff(2))
        assert h[0, 0] == pytest.approx(0.3)
        ee = FockCutoff(2).index(3, 0)
        assert h[ee, ee] == pytest.approx(-0.3)

    def test_rotating_frame_hamiltonian_is_constant(self, oracle_cutoff):
        # e^{-iN tau} H(tau) e^{iN tau} + N is the same matrix at every tau:
        # the H' whose eigendecomposition the exact propagator uses.
        params = DimensionlessGateParams(lambda_tilde=0.04, phi=0.3)
        number = np.tile(np.arange(oracle_cutoff.dim, dtype=float), 4)
        expected = _frame_hamiltonian(0.04, 0.5, 0.3, oracle_cutoff)
        for tau in (0.0, 0.7, 2.9, 5.1):
            rot = np.exp(-1j * tau * number)
            framed = (
                rot[:, None] * hamiltonian_matrix(tau, params, oracle_cutoff) * rot.conj()
                + np.diag(number)
            )
            np.testing.assert_allclose(framed, expected, atol=1e-14)


GRID_PHI = (0.0, 0.3, math.pi / 2, 2.0)
GRID_OMEGA = (0.5, 1.0 / (2.0 * math.sqrt(2.0)))  # one-loop and two-loop gates
GRID_LAM = (-0.2, 0.0, 0.07)


class TestSymmetryBlocks:
    """The block route of the exact propagator against the dense H'."""

    @pytest.mark.parametrize("n_max", [0, 1, 2, 5, 32])
    def test_matches_dense_expm(self, n_max):
        cutoff, dt = FockCutoff(n_max), 2.3
        unit = np.eye(cutoff.composite_dim, dtype=complex)
        for phi in GRID_PHI:
            for omega in GRID_OMEGA:
                for lam in GRID_LAM:
                    dense = expm(-1j * dt * _frame_hamiltonian(lam, omega, phi, cutoff))
                    blocks = _exact_evolve(lam, omega, phi, cutoff, unit, dt)
                    assert np.abs(blocks - dense).max() <= 1e-12, (phi, omega, lam)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 5, 32])
    def test_per_column_durations(self, n_max):
        # One input column at many durations, directly and through the
        # trajectory recorder (<a> in the lab frame at every record).
        cutoff = FockCutoff(n_max)
        params = DimensionlessGateParams(omega_tilde=GRID_OMEGA[1], lambda_tilde=0.07, phi=2.0)
        rng = np.random.default_rng(n_max)
        psi0 = rng.normal(size=cutoff.composite_dim) + 1j * rng.normal(size=cutoff.composite_dim)
        psi0 /= np.linalg.norm(psi0)
        h = _frame_hamiltonian(params.lambda_tilde, params.omega_tilde, params.phi, cutoff)
        taus = np.linspace(0.0, params.tau_gate, 9)
        dense = np.stack([expm(-1j * t * h) @ psi0 for t in taus], axis=1)
        chi = _exact_evolve(params.lambda_tilde, params.omega_tilde, params.phi, cutoff,
                            psi0[:, None], taus)
        assert np.abs(chi - dense).max() <= 1e-12

        # Small cutoffs fill the guard band; only the amplitudes are checked.
        permissive = IntegratorConfig(guard_tolerance=np.inf)
        traj = expectation_trajectory(CompositeState(psi0, cutoff), params, 9, permissive)
        lab = np.exp(1j * np.tile(np.arange(cutoff.dim), 4)[:, None] * taus) * dense
        a_op = np.kron(np.eye(4), np.diag(np.sqrt(np.arange(1.0, cutoff.dim)), 1))
        a_dense = np.einsum("ij,ij->j", lab.conj(), a_op @ lab)
        assert np.abs(traj["a_expect"] - a_dense).max() <= 1e-12
        np.testing.assert_allclose(traj["norm"], 1.0, atol=1e-12)

    @pytest.mark.parametrize("phi", GRID_PHI)
    def test_rotated_hamiltonian_is_block_diagonal(self, oracle_cutoff, phi):
        # e^{i(pi/2 - phi) S_z} H' e^{-i(pi/2 - phi) S_z} in the block basis
        # has nothing outside the singlet and the two triplet parity blocks,
        # and inside them it is the cached real coupling plus the diagonal.
        lam, omega = 0.07, 0.5
        basis, number, block_s_z, blocks = _symmetry_blocks(oracle_cutoff.n_max)
        s_z = np.repeat([1.0, 0.0, 0.0, -1.0], oracle_cutoff.dim)
        rot = np.exp(1j * (math.pi / 2 - phi) * s_z)
        h = _frame_hamiltonian(lam, omega, phi, oracle_cutoff)
        k = basis.conj().T @ (rot[:, None] * h * rot.conj()) @ basis
        sizes = [sl.stop - sl.start for sl, _ in blocks]
        assert sizes + [oracle_cutoff.composite_dim - blocks[-1][0].stop] == [49, 50, 33]
        assert np.abs(k.imag).max() <= 1e-14
        expected = np.diag(number + lam * block_s_z)
        for sl, coupling in blocks:
            expected[sl, sl] += omega * coupling
        assert np.abs(k - expected).max() <= 1e-14


class TestExactVsRK4:
    """The exact propagator against the RK4 reference route at 8192 steps."""

    STEPS = 8192

    def test_static_axis_stencil_batch(self, oracle_cutoff, rk4_static):
        params = DimensionlessGateParams()
        stencil = (-0.02, -0.01, 0.0, 0.01, 0.02)
        pairs = [(n, lam) for n in range(4) for lam in stencil]
        amps = np.zeros((oracle_cutoff.composite_dim, len(pairs)), dtype=complex)
        for j, (n, _) in enumerate(pairs):
            amps[oracle_cutoff.index(0, n), j] = 1.0
        lam_cols = np.array([lam for _, lam in pairs])
        exact, _, _ = propagate_batch(amps, oracle_cutoff, params, lam_cols)
        reference = rk4_static(amps, params, oracle_cutoff, lam_cols, self.STEPS)
        assert np.abs(exact - reference).max() <= 1e-10

    def test_two_gate_ramped_fringe(self, oracle_cutoff, table):
        # Gate 1 over [0, 2pi] at axis 0, gate 2 over [2pi, 4pi] at each scan
        # phase, with the axis ramp lam*s carried across both.
        lam, omega = 0.02, 0.5
        d = oracle_cutoff.dim
        raise_op = np.diag(np.sqrt(np.arange(1.0, d)), -1).astype(complex)
        k_y = sparse.csr_matrix(-omega * np.kron(collective_spin(0.0), raise_op))
        k_x = sparse.csr_matrix(-omega * np.kron(collective_spin(math.pi / 2), raise_op))
        stacked = sparse.vstack([k_y, k_y.conj().T, k_x, k_x.conj().T]).tocsr()

        def rk4_ramped(amps, phi, span):
            def apply_h(s, psi):
                y, y_dag, x, x_dag = (stacked @ psi).reshape(4, 4 * d, -1)
                e = np.exp(1j * s)
                angle = phi + lam * s
                return np.cos(angle) * (e * y + np.conj(e) * y_dag) + np.sin(angle) * (
                    e * x + np.conj(e) * x_dag
                )

            return _rk4(apply_h, amps, span[0], span[1], self.STEPS)

        init = np.zeros((4 * d, 2), dtype=complex)
        init[oracle_cutoff.index(0, 0), 0] = init[oracle_cutoff.index(0, 1), 1] = 1.0
        phis = np.array([0.0, 0.9, 2.1])
        gate1, gate2 = (0.0, TAU), (TAU, 2 * TAU)
        mid, _, _ = propagate_ramped_axis(init, oracle_cutoff, omega, lam, np.zeros(2), gate1)
        mid_ref = rk4_ramped(init, np.zeros(2), gate1)
        assert np.abs(mid - mid_ref).max() <= 1e-10

        cols, col_phis = np.repeat(mid_ref, phis.size, axis=1), np.tile(phis, 2)
        fin, _, _ = propagate_ramped_axis(cols, oracle_cutoff, omega, lam, col_phis, gate2)
        fin_ref = rk4_ramped(cols, col_phis, gate2)
        assert np.abs(fin - fin_ref).max() <= 1e-10

        detuning = -2.0 * math.pi * 11e3
        config = SequenceConfig(
            detuning=detuning, qubit_shift=lam * detuning, fock_initial=1, shots=None
        )
        _, fringe = simulate_fringe(config, table, phis)
        p_ee_ref = (np.abs(fin_ref[3 * d :, phis.size :]) ** 2).sum(axis=0)
        assert np.abs(fringe - p_ee_ref).max() <= 1e-10


class TestCalibratedPoint:
    def test_matches_exact_propagator(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        u = ideal_propagator(TAU, params, oracle_cutoff)
        for label, n in (("gg", 0), ("ge", 1), ("ee", 2)):
            initial = CompositeState.basis_state(label, n, oracle_cutoff)
            final, _, _ = propagate_batch(
                initial.amplitudes, oracle_cutoff, params, 0.0, fast_integrator
            )
            expected = u @ initial.amplitudes
            np.testing.assert_allclose(final, expected, atol=1e-9)

    def test_full_gate_fidelity(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        initial = CompositeState.basis_state("gg", 1, oracle_cutoff)
        final, drift, _ = propagate_batch(
            initial.amplitudes, oracle_cutoff, params, 0.0, fast_integrator
        )
        target = ideal_output_state("gg", 1, oracle_cutoff)
        fidelity = abs(CompositeState(final, oracle_cutoff).overlap(target)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)
        assert drift.max() < 1e-10


class TestHealthChecks:
    def test_guard_band_raises_on_small_cutoff(self):
        params = DimensionlessGateParams()
        cutoff = FockCutoff(4)
        initial = CompositeState.basis_state("gg", 0, cutoff)
        with pytest.raises(GuardBandError, match="guard-band"):
            propagate_batch(initial.amplitudes, cutoff, params, 0.0)

    def test_norm_drift_reported(self, oracle_cutoff, rk4_static):
        params = DimensionlessGateParams(lambda_tilde=0.05)
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        column = initial.amplitudes[:, None]

        def rk4_drift(steps):
            final = rk4_static(column, params, oracle_cutoff, [0.05], steps)
            return abs(np.linalg.norm(final) - 1.0)

        coarse, fine = rk4_drift(64), rk4_drift(4096)
        assert fine < coarse
        assert fine < 1e-9
        _, drift, _ = propagate_batch(initial.amplitudes, oracle_cutoff, params, 0.05)
        assert drift.max() < 1e-12

    def test_norm_tolerance_enforced(self, oracle_cutoff):
        config = IntegratorConfig(norm_tolerance=1e-6)
        config.check(np.array([1e-7, 0.0]), 0.0)
        with pytest.raises(NormDriftError, match="norm drift"):
            config.check(np.array([1e-7, 1e-5]), 0.0)
        # Every propagator applies the check itself: no drift, however
        # small, passes a negative tolerance.
        strict = IntegratorConfig(norm_tolerance=-1.0)
        state = CompositeState.basis_state("gg", 0, oracle_cutoff)
        params = DimensionlessGateParams(lambda_tilde=0.01)
        calls = [
            lambda: propagate_batch(state.amplitudes, oracle_cutoff, params, 0.01, strict),
            lambda: propagate_ramped_axis(
                state.amplitudes, oracle_cutoff, 0.5, 0.01, 0.0, (0.0, TAU), strict
            ),
            lambda: expectation_trajectory(state, params, config=strict),
        ]
        for call in calls:
            with pytest.raises(NormDriftError, match="norm drift"):
                call()

    def test_sweep_raises_on_guard_band(self):
        with pytest.raises(GuardBandError, match="guard-band"):
            sweep(np.array([0.0, 0.05]), [0], DimensionlessGateParams(), FockCutoff(3))


class TestConvergence:
    def test_rk4_fourth_order(self, rk4_static):
        # Global error should drop ~16x per step doubling.
        params = DimensionlessGateParams(lambda_tilde=0.1)
        cutoff = FockCutoff(16)
        initial = CompositeState.basis_state("gg", 0, cutoff).amplitudes[:, None]
        ref = rk4_static(initial, params, cutoff, [0.1], 8192)
        errors = []
        for steps in (64, 128, 256):
            res = rk4_static(initial, params, cutoff, [0.1], steps)
            errors.append(np.linalg.norm(res - ref))
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert 12.0 < r1 < 20.0
        assert 12.0 < r2 < 20.0


class TestRampedAxis:
    def test_matches_static_frame_at_zero_miscalibration(
        self, oracle_cutoff, fast_integrator
    ):
        params = DimensionlessGateParams()
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        static, _, _ = propagate_batch(
            initial.amplitudes, oracle_cutoff, params, np.array([0.0]),
            fast_integrator,
        )
        ramped, _, _ = propagate_ramped_axis(
            initial.amplitudes, oracle_cutoff, 0.5, 0.0, np.array([0.0]),
            (0.0, TAU), fast_integrator,
        )
        np.testing.assert_allclose(ramped, static, atol=1e-9)

    def test_populations_frame_invariant(self, oracle_cutoff, fast_integrator):
        # The two frames differ by a qubit-diagonal rotation, so populations
        # agree even away from calibration.
        lam = 0.05
        params = DimensionlessGateParams(lambda_tilde=lam)
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        static, _, _ = propagate_batch(
            initial.amplitudes, oracle_cutoff, params, np.array([lam]),
            fast_integrator,
        )
        ramped, _, _ = propagate_ramped_axis(
            initial.amplitudes, oracle_cutoff, 0.5, lam, np.array([0.0]),
            (0.0, TAU), fast_integrator,
        )
        pop_static = (np.abs(static.reshape(4, -1)) ** 2).sum(axis=1)
        pop_ramped = (np.abs(ramped.reshape(4, -1)) ** 2).sum(axis=1)
        np.testing.assert_allclose(pop_ramped, pop_static, atol=1e-8)

    def test_global_phase_variable_continues_ramp(self, oracle_cutoff):
        # Integrating [0, 2pi] then [2pi, 4pi] must equal one [0, 4pi] run:
        # the axis angle depends on absolute s, not time since gate start.
        lam = 0.02
        config = IntegratorConfig(steps_per_gate=2048)
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        mid, _, _ = propagate_ramped_axis(
            initial.amplitudes, oracle_cutoff, 0.5, lam, np.array([0.0]),
            (0.0, TAU), config,
        )
        two_step, _, _ = propagate_ramped_axis(
            mid, oracle_cutoff, 0.5, lam, np.array([0.0]), (TAU, 2 * TAU), config
        )
        single, _, _ = propagate_ramped_axis(
            initial.amplitudes, oracle_cutoff, 0.5, lam, np.array([0.0]),
            (0.0, 2 * TAU), IntegratorConfig(steps_per_gate=4096),
        )
        np.testing.assert_allclose(two_step, single, atol=1e-9)


class TestObservables:
    def test_ideal_scorecard(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        final, _, _ = propagate_batch(
            initial.amplitudes, oracle_cutoff, params, 0.0, fast_integrator
        )
        obs = observables(CompositeState(final, oracle_cutoff), "gg", 0)
        np.testing.assert_allclose(
            obs["populations"], [0.5, 0.0, 0.0, 0.5], atol=1e-9
        )
        assert obs["relative_phase"] == pytest.approx(-math.pi / 2, abs=1e-9)
        assert obs["coherence_abs"] == pytest.approx(0.5, abs=1e-9)
        assert obs["phase_reliable"]
        assert obs["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert obs["purity"] == pytest.approx(1.0, abs=1e-10)

    def test_phase_pairs(self):
        assert relative_phase_pair("gg") == (3, 0)
        assert relative_phase_pair("ee") == (0, 3)
        assert relative_phase_pair("ge") == (2, 1)

    def test_idle_pair_phase(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams(lambda_tilde=0.03)
        initial = CompositeState.basis_state("ge", 0, oracle_cutoff)
        final, _, _ = propagate_batch(
            initial.amplitudes, oracle_cutoff, params, 0.03, fast_integrator
        )
        obs = observables(CompositeState(final, oracle_cutoff), "ge", 0)
        # No first-order phase shift on the idle pair: +pi/2 to O(lam^2).
        assert obs["relative_phase"] == pytest.approx(math.pi / 2, abs=1e-2)


class TestTrajectory:
    def test_branch_circle(self, fast_integrator):
        # A |++,0> input (computational amplitudes) follows alpha(tau) = F(tau).
        def plus_plus(n_max):
            plus_plus_qubits = SIGMA_Y_BASIS.conj().T[:, 0]
            vacuum = np.eye(n_max + 1)[0]
            return CompositeState(np.kron(plus_plus_qubits, vacuum), FockCutoff(n_max))

        params = DimensionlessGateParams()
        traj = expectation_trajectory(
            plus_plus(20), params, n_records=17, config=fast_integrator
        )
        f, _ = loop_functions(traj["tau"], params)
        np.testing.assert_allclose(traj["a_expect"], f, atol=1e-6)
        np.testing.assert_allclose(traj["norm"], 1.0, atol=1e-10)
        assert traj["guard_band_mass"].max() <= fast_integrator.guard_tolerance
        # At cutoff 16 the loop leaves about 8e-10 in the guard band.
        with pytest.raises(GuardBandError, match="guard-band"):
            expectation_trajectory(plus_plus(16), params, n_records=17, config=fast_integrator)

    def test_requires_two_records(self, oracle_cutoff):
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        with pytest.raises(ValueError):
            expectation_trajectory(initial, DimensionlessGateParams(), n_records=1)


class TestSweep:
    def test_level_above_cutoff_raises(self):
        with pytest.raises(GuardBandError, match="Fock level 8 .*--cutoff-n-max"):
            sweep(np.array([0.0]), [0, 8], DimensionlessGateParams(), FockCutoff(6))

    def test_rows_and_csv(self, oracle_cutoff, table, tmp_path):
        params = DimensionlessGateParams()
        lams = np.array([-0.02, 0.0, 0.02])
        rows = sweep(lams, [0, 1], params, oracle_cutoff)
        assert len(rows) == 6
        assert [r["fock_n"] for r in rows] == [0, 0, 0, 1, 1, 1]
        zero = rows[1]
        assert zero["lambda_tilde"] == 0.0
        assert zero["fidelity"] == pytest.approx(1.0, abs=1e-8)
        assert all(r["guard_band_mass"] < 1e-10 for r in rows)
        # The CLI's sweep CSV carries these rows exactly, in the same order.
        table_path, out = tmp_path / "table.json", tmp_path / "sweep.csv"
        table.save(table_path)
        argv = ["sweep", "--table", str(table_path), "--lambda-min=-0.02",
                "--lambda-max", "0.02", "--points", "3", "--fock", "0,1",
                "--oracle", "--out", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            assert fh.readline() == "# schema=msgate/sweep-report/1\n"
            written = list(csv.DictReader(fh))
        for row, line in zip(rows, written, strict=True):
            assert int(line["fock_n"]) == row["fock_n"]
            for key in ("lambda_tilde", "p_ee", "relative_phase", "fidelity",
                        "purity", "norm_drift", "guard_band_mass"):
                column = key if key == "lambda_tilde" else f"oracle_{key}"
                assert float(line[column]) == row[key]

"""Full-Hamiltonian oracle: exactness against RK4, health checks, convergence."""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

import msgate.experiment as experiment
import msgate.oracle as oracle
from msgate.cli import main
from msgate.experiment import SequenceConfig, phase_scan, simulate_fringe
from msgate.hilbert import FockCutoff, ThermalDistribution, level_weights
from msgate.ideal import (
    DimensionlessGateParams,
    collective_spin,
    ideal_output_state,
    loop_functions,
    relative_phase_pair,
)
from msgate.oracle import (
    GuardBandError,
    IntegratorConfig,
    NormDriftError,
    _exact_evolve,
    _symmetry_blocks,
    hamiltonian_matrix,
    observables,
    propagate_batch,
    propagate_ramped_axis,
    sweep,
)
from quadrature import (
    SIGMA_Y_BASIS,
    basis_state,
    expectation_trajectory,
    frame_hamiltonian,
    ideal_propagator,
    ms_target_unitary,
    rk4,
)

TAU = 2.0 * math.pi


class TestHamiltonian:
    def test_hermitian(self):
        params = DimensionlessGateParams()
        for tau in (0.0, 1.1, 4.5):
            h = hamiltonian_matrix(tau, params, FockCutoff(5), 0.07)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_sz_sign_on_gg(self):
        # <gg,0| H |gg,0> = lambda * <gg|S_z|gg> = +lambda in this frame.
        h = hamiltonian_matrix(0.0, DimensionlessGateParams(), FockCutoff(2), 0.3)
        assert h[0, 0] == pytest.approx(0.3)
        ee = FockCutoff(2).index(3, 0)
        assert h[ee, ee] == pytest.approx(-0.3)

    def test_rotating_frame_hamiltonian_is_constant(self, oracle_cutoff):
        # e^{-iN tau} H(tau) e^{iN tau} + N is the same matrix at every tau:
        # the H' whose eigendecomposition the exact propagator uses.
        params = DimensionlessGateParams(phi=0.3)
        number = np.tile(np.arange(oracle_cutoff.dim, dtype=float), 4)
        expected = frame_hamiltonian(0.04, 0.5, 0.3, oracle_cutoff)
        for tau in (0.0, 0.7, 2.9, 5.1):
            rot = np.exp(-1j * tau * number)
            framed = (
                rot[:, None] * hamiltonian_matrix(tau, params, oracle_cutoff, 0.04) * rot.conj()
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
                    dense = expm(-1j * dt * frame_hamiltonian(lam, omega, phi, cutoff))
                    blocks = _exact_evolve(lam, omega, phi, cutoff, unit, dt)
                    assert np.abs(blocks - dense).max() <= 1e-12, (phi, omega, lam)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 5, 32])
    def test_per_column_durations(self, n_max, monkeypatch):
        # One input column at many durations, one call each, directly and
        # through the trajectory recorder (<a> in the lab frame at every record).
        cutoff = FockCutoff(n_max)
        params, lam = DimensionlessGateParams(omega_tilde=GRID_OMEGA[1], phi=2.0), 0.07
        rng = np.random.default_rng(n_max)
        psi0 = rng.normal(size=cutoff.composite_dim) + 1j * rng.normal(size=cutoff.composite_dim)
        psi0 /= np.linalg.norm(psi0)
        h = frame_hamiltonian(lam, params.omega_tilde, params.phi, cutoff)
        taus = np.linspace(0.0, params.tau_gate, 9)
        dense = np.stack([expm(-1j * t * h) @ psi0 for t in taus], axis=1)
        chi = np.hstack([_exact_evolve(lam, params.omega_tilde, params.phi, cutoff,
                                       psi0[:, None], t) for t in taus])
        assert np.abs(chi - dense).max() <= 1e-12

        # Small cutoffs fill the guard band; only the amplitudes are checked.
        monkeypatch.setattr(oracle, "_GUARD_TOLERANCE", np.inf)
        traj = expectation_trajectory(psi0, cutoff, params, lam, 9)
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
        h = frame_hamiltonian(lam, omega, phi, oracle_cutoff)
        k = basis.conj().T @ (rot[:, None] * h * rot.conj()) @ basis
        sizes = [sl.stop - sl.start for sl, _ in blocks]
        assert sizes + [oracle_cutoff.composite_dim - blocks[-1][0].stop] == [49, 50, 33]
        assert np.abs(k.imag).max() <= 1e-14
        expected = np.diag(number + lam * block_s_z)
        for sl, coupling in blocks:
            expected[sl, sl] += omega * coupling
        assert np.abs(k - expected).max() <= 1e-14


RAMP_LAM = 0.02


def rk4_ramped_axis(amps, cutoff, phi, span, steps, lam=RAMP_LAM, omega=0.5):
    """The ramped-axis Hamiltonian by fixed-step RK4: column j sees the spin
    axis at phi[j] + lam*s, with s the global time over ``span``."""
    d = cutoff.dim
    raise_op = np.diag(np.sqrt(np.arange(1.0, d)), -1).astype(complex)
    k_y = sparse.csr_matrix(-omega * np.kron(collective_spin(0.0), raise_op))
    k_x = sparse.csr_matrix(-omega * np.kron(collective_spin(math.pi / 2), raise_op))
    stacked = sparse.vstack([k_y, k_y.conj().T, k_x, k_x.conj().T]).tocsr()

    def apply_h(s, psi):
        y, y_dag, x, x_dag = (stacked @ psi).reshape(4, 4 * d, -1)
        e = np.exp(1j * s)
        angle = phi + lam * s
        return np.cos(angle) * (e * y + np.conj(e) * y_dag) + np.sin(angle) * (
            e * x + np.conj(e) * x_dag
        )

    return rk4(apply_h, amps, span[0], span[1], steps)


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
        d = oracle_cutoff.dim
        init = np.zeros((4 * d, 2), dtype=complex)
        init[oracle_cutoff.index(0, 0), 0] = init[oracle_cutoff.index(0, 1), 1] = 1.0
        config = SequenceConfig(lambda_tilde=RAMP_LAM, mode=1, phase_points=5, shots=None)
        phis = phase_scan(config.phase_points)
        gate1, gate2 = (0.0, TAU), (TAU, 2 * TAU)
        mid, _, _ = propagate_ramped_axis(init, oracle_cutoff, 0.5, RAMP_LAM, np.zeros(2), gate1)
        mid_ref = rk4_ramped_axis(init, oracle_cutoff, np.zeros(2), gate1, self.STEPS)
        assert np.abs(mid - mid_ref).max() <= 1e-10

        cols, col_phis = np.repeat(mid_ref, phis.size, axis=1), np.tile(phis, 2)
        fin, _, _ = propagate_ramped_axis(cols, oracle_cutoff, 0.5, RAMP_LAM, col_phis, gate2)
        fin_ref = rk4_ramped_axis(cols, oracle_cutoff, col_phis, gate2, self.STEPS)
        assert np.abs(fin - fin_ref).max() <= 1e-10

        _, fringe = simulate_fringe(config, table)
        p_ee_ref = (np.abs(fin_ref[3 * d :, phis.size :]) ** 2).sum(axis=0)
        assert np.abs(fringe - p_ee_ref).max() <= 1e-10

    def test_two_gate_thermal_fringe(self, oracle_cutoff, table):
        # The oracle assembles the fringe from the S_z parts of gate 1's
        # output; the reference runs gate 2 at every scan phase.  A thermal
        # mode occupies both parity blocks.  Its 56 gate-2 columns run at
        # 2048 steps, where the RK4 fringe is off by 1.6e-13 (6e-15 at 8192).
        mode = ThermalDistribution(0.05)
        config = SequenceConfig(lambda_tilde=RAMP_LAM, mode=mode, phase_points=7, shots=None)
        phis = phase_scan(config.phase_points)
        levels, weights = level_weights(mode)
        init = np.stack([basis_state("gg", n, oracle_cutoff) for n in levels], axis=1)
        steps = self.STEPS // 4
        mid = rk4_ramped_axis(init, oracle_cutoff, np.zeros(len(levels)), (0.0, TAU), steps)
        fin = rk4_ramped_axis(np.repeat(mid, phis.size, axis=1), oracle_cutoff,
                              np.tile(phis, len(levels)), (TAU, 2 * TAU), steps)
        p_ee = (np.abs(fin[3 * oracle_cutoff.dim :]) ** 2).sum(axis=0)
        _, fringe = simulate_fringe(config, table)
        assert np.abs(fringe - weights @ p_ee.reshape(len(levels), phis.size)).max() <= 1e-10


class TestFringeColumns:
    @pytest.mark.parametrize("points", [5, 16])
    @pytest.mark.parametrize("mode", [0, ThermalDistribution(0.05)], ids=["fock", "thermal"])
    def test_gate_two_takes_three_columns_per_level(self, table, monkeypatch, points, mode):
        # The scan phase is a frame factor, so gate 2 runs on the three S_z
        # parts of each level's state whatever the number of scan phases.
        columns, ramped = [], oracle.propagate_ramped_axis

        def spy(amps, *args, **kwargs):
            columns.append(np.shape(amps)[1])
            return ramped(amps, *args, **kwargs)

        monkeypatch.setattr("msgate.experiment.propagate_ramped_axis", spy)
        config = SequenceConfig(lambda_tilde=RAMP_LAM, mode=mode, phase_points=points, shots=None)
        simulate_fringe(config, table)
        levels = len(level_weights(mode)[0])
        assert columns == [levels, 3 * levels]


# Mixed batches: single-block columns |gg,0> (odd parity), |gg,1> (even)
# and |ee,2> (odd), |ge,0> (even triplet plus singlet), and |gg,0> + |gg,1>
# across both blocks, drawn with repeats at unsorted lambdas.
MIXED_LAMBDAS = (0.02, -0.03, 0.0)
MIXED_INPUTS = (("gg", 0), ("gg", 1), ("ee", 2), ("ge", 0))


@pytest.fixture(scope="module")
def mixed_pool(oracle_cutoff, rk4_static):
    """(inputs, finals): column k of inputs is input k, and finals[:, i, k]
    its RK4 final state at MIXED_LAMBDAS[i]."""
    kets = np.stack([basis_state(q, n, oracle_cutoff) for q, n in MIXED_INPUTS], axis=1)
    lams = np.repeat(MIXED_LAMBDAS, len(MIXED_INPUTS))
    finals = rk4_static(np.tile(kets, len(MIXED_LAMBDAS)), DimensionlessGateParams(),
                        oracle_cutoff, lams, TestExactVsRK4.STEPS)
    finals = finals.reshape(-1, len(MIXED_LAMBDAS), len(MIXED_INPUTS))
    # The last input, |gg,0> + |gg,1>, spans both parity blocks; by
    # linearity its final state is the same sum of finals.
    both = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    return np.c_[kets, kets @ both], np.concatenate([finals, (finals @ both)[..., None]], 2)


class TestMixedBatches:
    """One propagate_batch call over columns at repeated, unsorted lambdas in
    groups of unequal size, some groups occupying one parity block."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(MIXED_INPUTS)),
                              st.integers(0, len(MIXED_LAMBDAS) - 1)),
                    min_size=1, max_size=10))
    @example([(0, 1), (4, 2), (0, 0), (1, 1), (3, 0), (2, 1), (0, 2)])
    @example([(0, 0), (1, 0), (2, 2)])
    def test_matches_columns_and_rk4(self, oracle_cutoff, mixed_pool, picks):
        inputs, reference = mixed_pool
        kinds, which = np.array(picks).T
        params, lams = DimensionlessGateParams(), np.take(MIXED_LAMBDAS, which)
        final, _, _ = propagate_batch(inputs[:, kinds], oracle_cutoff, params, lams)
        for j, (k, i) in enumerate(picks):
            alone, _, _ = propagate_batch(inputs[:, k], oracle_cutoff, params, lams[j])
            assert np.abs(final[:, j] - alone).max() <= 1e-15, (j, picks)
            assert np.abs(final[:, j] - reference[:, i, k]).max() <= 1e-10, (j, picks)


class TestEighCalls:
    """The oracle calls ``eigh`` once per lambda and parity block occupied:
    |gg, n> lies in the odd block for even n and the even block for odd n."""

    @pytest.fixture()
    def eigh_sizes(self, monkeypatch):
        sizes, eigh = [], np.linalg.eigh

        def counting(a, *args, **kwargs):
            sizes.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return sizes

    @pytest.mark.parametrize("levels, sizes", [([0], [50] * 3), ([0, 1], [49, 50] * 3)])
    def test_sweep(self, oracle_cutoff, eigh_sizes, levels, sizes):
        sweep(np.array([-0.02, 0.0, 0.02]), levels, DimensionlessGateParams(), oracle_cutoff)
        assert sorted(eigh_sizes) == sorted(sizes)

    def test_each_lambda_group_on_its_own(self, oracle_cutoff, eigh_sizes):
        amps = np.stack([basis_state("gg", n, oracle_cutoff) for n in (0, 1, 2)], axis=1)
        propagate_batch(amps, oracle_cutoff, DimensionlessGateParams(), [0.01, 0.02, 0.01])
        assert sorted(eigh_sizes) == [49, 50]

    @pytest.mark.parametrize("mode, calls", [(0, 1), (ThermalDistribution(0.05), 2)])
    def test_oracle_fringe(self, table, eigh_sizes, mode, calls):
        # The two gates have one H', so gate 2 reuses gate 1's spectra; a
        # thermal mixture has both parities, so it needs both blocks.
        config = SequenceConfig(lambda_tilde=0.02, mode=mode, shots=None)
        simulate_fringe(config, table)
        assert len(eigh_sizes) == calls

    def test_fringe_scope_closes_when_gate_2_raises(self, table, eigh_sizes, monkeypatch):
        # At cutoff 12 gate 1 leaves 7e-12 in the guard band and gate 2
        # 9e-10, past the tolerance: gate 2 raises on gate 1's spectrum.
        gates, propagate = [], experiment.propagate_ramped_axis
        monkeypatch.setattr(experiment, "propagate_ramped_axis",
                            lambda *args: gates.append(args) or propagate(*args))
        config = SequenceConfig(lambda_tilde=0.02, shots=None, cutoff_n_max=12)
        with pytest.raises(GuardBandError, match="guard-band occupation"):
            simulate_fringe(config, table)
        assert (len(gates), len(eigh_sizes)) == (2, 1)
        assert oracle._SPECTRA.get() is None

    def test_later_call_diagonalises_again(self, table, oracle_cutoff, eigh_sizes):
        # A fringe's spectra go with its scope, and a call outside any scope
        # keeps none, so each later gate at the same lambda has its own eigh.
        simulate_fringe(SequenceConfig(lambda_tilde=0.02, shots=None), table)
        init = basis_state("gg", 0, oracle_cutoff)
        omega, tau = table.params.omega_tilde, table.params.tau_gate
        for _ in range(2):
            propagate_ramped_axis(init, oracle_cutoff, omega, 0.02, 0.0, (0.0, tau))
        assert len(eigh_sizes) == 3


class TestCalibratedPoint:
    def test_matches_exact_propagator(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        u = ideal_propagator(TAU, params, oracle_cutoff)
        for label, n in (("gg", 0), ("ge", 1), ("ee", 2)):
            initial = basis_state(label, n, oracle_cutoff)
            final, _, _ = propagate_batch(initial, oracle_cutoff, params, 0.0, fast_integrator)
            expected = u @ initial
            np.testing.assert_allclose(final, expected, atol=1e-9)

    def test_full_gate_fidelity(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        initial = basis_state("gg", 1, oracle_cutoff)
        final, drift, _ = propagate_batch(initial, oracle_cutoff, params, 0.0, fast_integrator)
        target = ideal_output_state("gg", 1, oracle_cutoff)
        fidelity = abs(np.vdot(final, target)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)
        assert drift.max() < 1e-10


class TestHealthChecks:
    def test_guard_band_raises_on_small_cutoff(self):
        params = DimensionlessGateParams()
        cutoff = FockCutoff(4)
        initial = basis_state("gg", 0, cutoff)
        with pytest.raises(GuardBandError, match="guard-band"):
            propagate_batch(initial, cutoff, params, 0.0)

    def test_norm_drift_reported(self, oracle_cutoff, rk4_static):
        params = DimensionlessGateParams()
        initial = basis_state("gg", 0, oracle_cutoff)
        column = initial[:, None]

        def rk4_drift(steps):
            final = rk4_static(column, params, oracle_cutoff, [0.05], steps)
            return abs(np.linalg.norm(final) - 1.0)

        coarse, fine = rk4_drift(64), rk4_drift(4096)
        assert fine < coarse
        assert fine < 1e-9
        _, drift, _ = propagate_batch(initial, oracle_cutoff, params, 0.05)
        assert drift.max() < 1e-12

    def test_norm_tolerance_enforced(self, oracle_cutoff, monkeypatch):
        oracle._check_health(np.array([1e-7, 0.0]), 0.0)
        with pytest.raises(NormDriftError, match="norm drift 1.000e-05 exceeds 1.0e-06"):
            oracle._check_health(np.array([1e-7, 1e-5]), 0.0)
        # Every propagator applies the check itself: no drift, however
        # small, passes a negative tolerance.
        monkeypatch.setattr(oracle, "_NORM_TOLERANCE", -1.0)
        state = basis_state("gg", 0, oracle_cutoff)
        params = DimensionlessGateParams()
        calls = [
            lambda: propagate_batch(state, oracle_cutoff, params, 0.01),
            lambda: propagate_ramped_axis(state, oracle_cutoff, 0.5, 0.01, 0.0, (0.0, TAU)),
            lambda: expectation_trajectory(state, oracle_cutoff, params, 0.01),
            lambda: sweep(np.array([0.01]), [0], params, oracle_cutoff),
        ]
        for call in calls:
            with pytest.raises(NormDriftError, match="norm drift"):
                call()

    def test_sweep_raises_on_guard_band(self):
        with pytest.raises(GuardBandError, match="guard-band"):
            sweep(np.array([0.0, 0.05]), [0], DimensionlessGateParams(), FockCutoff(3))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_refused(self, oracle_cutoff, lam):
        # Refused as a value, not reported as a health failure of the
        # columns it spoils, and never returned as NaN amplitudes.
        state = basis_state("gg", 0, oracle_cutoff)
        params = DimensionlessGateParams()
        calls = [
            lambda: propagate_batch(np.stack([state, state], axis=1), oracle_cutoff,
                                    params, [lam, 0.01]),
            lambda: propagate_ramped_axis(state, oracle_cutoff, 0.5, lam, [0.0], (0.0, TAU)),
            lambda: sweep(np.array([0.0, lam]), [0], params, oracle_cutoff),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"lambda_tilde must be finite, got {lam}"):
                call()

    def test_ramped_axis_takes_one_lambda(self, oracle_cutoff):
        # One ramp for every column: two values are refused by name, not
        # left to a reshape error.
        state = basis_state("gg", 0, oracle_cutoff)
        with pytest.raises(ValueError, match=r"^lambda_tilde must be a single number"):
            propagate_ramped_axis(state, oracle_cutoff, 0.5, [0.01, 0.02], 0.0, (0.0, TAU))

    @pytest.mark.parametrize("drift,guard,error", [
        (np.array([0.0, math.nan]), 0.0, NormDriftError),
        (np.array([0.0]), math.nan, GuardBandError),
    ])
    def test_nan_health_number_fails(self, drift, guard, error):
        # A NaN compares False against any tolerance; the check still fails.
        with pytest.raises(error):
            oracle._check_health(drift, guard)


class TestConvergence:
    def test_rk4_fourth_order(self, rk4_static):
        # Global error should drop ~16x per step doubling.
        params = DimensionlessGateParams()
        cutoff = FockCutoff(16)
        initial = basis_state("gg", 0, cutoff)[:, None]
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
        initial = basis_state("gg", 0, oracle_cutoff)
        static, _, _ = propagate_batch(
            initial, oracle_cutoff, params, np.array([0.0]), fast_integrator,
        )
        ramped, _, _ = propagate_ramped_axis(
            initial, oracle_cutoff, 0.5, 0.0, np.array([0.0]),
            (0.0, TAU), fast_integrator,
        )
        np.testing.assert_allclose(ramped, static, atol=1e-9)

    def test_populations_frame_invariant(self, oracle_cutoff, fast_integrator):
        # The two frames differ by a qubit-diagonal rotation, so populations
        # agree even away from calibration.
        lam = 0.05
        params = DimensionlessGateParams()
        initial = basis_state("gg", 0, oracle_cutoff)
        static, _, _ = propagate_batch(
            initial, oracle_cutoff, params, np.array([lam]), fast_integrator,
        )
        ramped, _, _ = propagate_ramped_axis(
            initial, oracle_cutoff, 0.5, lam, np.array([0.0]),
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
        initial = basis_state("gg", 0, oracle_cutoff)
        mid, _, _ = propagate_ramped_axis(
            initial, oracle_cutoff, 0.5, lam, np.array([0.0]),
            (0.0, TAU), config,
        )
        two_step, _, _ = propagate_ramped_axis(
            mid, oracle_cutoff, 0.5, lam, np.array([0.0]), (TAU, 2 * TAU), config
        )
        single, _, _ = propagate_ramped_axis(
            initial, oracle_cutoff, 0.5, lam, np.array([0.0]),
            (0.0, 2 * TAU), IntegratorConfig(steps_per_gate=4096),
        )
        np.testing.assert_allclose(two_step, single, atol=1e-9)


class TestObservables:
    def test_ideal_scorecard(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        initial = basis_state("gg", 0, oracle_cutoff)
        final, _, _ = propagate_batch(initial, oracle_cutoff, params, 0.0, fast_integrator)
        obs = observables(final, "gg", oracle_cutoff)
        np.testing.assert_allclose(
            obs["populations"], [0.5, 0.0, 0.0, 0.5], atol=1e-9
        )
        assert obs["relative_phase"] == pytest.approx(-math.pi / 2, abs=1e-9)
        assert obs["coherence_abs"] == pytest.approx(0.5, abs=1e-9)
        assert obs["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert obs["purity"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("label", ["gg", "ge", "eg", "ee"])
    def test_batch_columns_equal_single_calls(self, oracle_cutoff, fast_integrator, label):
        # Fock inputs 0..3 at three lambdas: column j of the batched
        # scorecard is the one-column scorecard of final[:, j], bit for bit,
        # and both match a per-column partial trace written out here.
        cutoff, q = oracle_cutoff, ["gg", "ge", "eg", "ee"].index(label)
        pairs = [(n, lam) for n in range(4) for lam in (-0.05, 0.0, 0.03)]
        amps = np.zeros((cutoff.composite_dim, len(pairs)), dtype=complex)
        for j, (n, _) in enumerate(pairs):
            amps[cutoff.index(q, n), j] = 1.0
        final, _, _ = propagate_batch(amps, cutoff, DimensionlessGateParams(),
                                      np.array([lam for _, lam in pairs]), fast_integrator)
        batch = observables(final, label, cutoff)
        assert batch["rho"].shape == (len(pairs), 4, 4)
        assert batch["populations"].shape == (len(pairs), 4)
        row, col = relative_phase_pair(label)
        target = ms_target_unitary()[:, q]
        for j in range(len(pairs)):
            single = observables(final[:, j], label, cutoff)
            assert set(single) == set(batch)
            for key, value in single.items():
                assert np.array_equal(batch[key][j], value), (key, j)
            v = final[:, j].reshape(4, cutoff.dim)
            rho = sum(np.outer(v[:, n], v[:, n].conj()) for n in range(cutoff.dim))
            np.testing.assert_allclose(single["rho"], rho, rtol=0, atol=1e-14)
            np.testing.assert_allclose(single["populations"], np.diag(rho).real, atol=1e-14)
            assert single["relative_phase"] == pytest.approx(np.angle(rho[row, col]), abs=1e-12)
            assert single["coherence_abs"] == pytest.approx(abs(rho[row, col]), abs=1e-14)
            assert single["fidelity"] == pytest.approx(
                (target.conj() @ rho @ target).real, abs=1e-14)
            assert single["purity"] == pytest.approx(np.trace(rho @ rho).real, abs=1e-14)

    def test_phase_pairs(self):
        assert relative_phase_pair("gg") == (3, 0)
        assert relative_phase_pair("ee") == (0, 3)
        assert relative_phase_pair("ge") == (2, 1)

    def test_unknown_label_refused(self, oracle_cutoff):
        final = basis_state("gg", 0, oracle_cutoff)
        with pytest.raises(ValueError, match="unknown qubit label 'xx'"):
            relative_phase_pair("xx")
        with pytest.raises(ValueError, match="unknown qubit label 'xx'"):
            observables(final, "xx", oracle_cutoff)

    def test_idle_pair_phase(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        initial = basis_state("ge", 0, oracle_cutoff)
        final, _, _ = propagate_batch(initial, oracle_cutoff, params, 0.03, fast_integrator)
        obs = observables(final, "ge", oracle_cutoff)
        # No first-order phase shift on the idle pair: +pi/2 to O(lam^2).
        assert obs["relative_phase"] == pytest.approx(math.pi / 2, abs=1e-2)


class TestTrajectory:
    def test_branch_circle(self):
        # A |++,0> input (computational amplitudes) follows alpha(tau) = F(tau).
        def plus_plus(n_max):
            plus_plus_qubits = SIGMA_Y_BASIS.conj().T[:, 0]
            vacuum = np.eye(n_max + 1)[0]
            return np.kron(plus_plus_qubits, vacuum), FockCutoff(n_max)

        params = DimensionlessGateParams()
        traj = expectation_trajectory(*plus_plus(20), params, 0.0, n_records=17)
        f, _ = loop_functions(traj["tau"], params)
        np.testing.assert_allclose(traj["a_expect"], f, atol=1e-6)
        np.testing.assert_allclose(traj["norm"], 1.0, atol=1e-10)
        assert traj["guard_band_mass"].max() <= oracle._GUARD_TOLERANCE
        # At cutoff 16 the loop leaves about 8e-10 in the guard band.
        with pytest.raises(GuardBandError, match="guard-band"):
            expectation_trajectory(*plus_plus(16), params, 0.0, n_records=17)

    def test_requires_two_records(self, oracle_cutoff):
        initial = basis_state("gg", 0, oracle_cutoff)
        with pytest.raises(ValueError):
            expectation_trajectory(initial, oracle_cutoff, DimensionlessGateParams(), 0.0,
                                   n_records=1)


class TestSweep:
    def test_level_above_cutoff_raises(self):
        with pytest.raises(GuardBandError, match="Fock level 8 .*--cutoff-n-max"):
            sweep(np.array([0.0]), [0, 8], DimensionlessGateParams(), FockCutoff(6))

    @pytest.mark.parametrize("lams, levels, grid", [
        (np.array([]), [0, 1], (2, 0)), ([0.0], [], (0, 1)), ([], [], (0, 0))],
        ids=["no-lambda", "no-level", "neither"])
    def test_empty_grid(self, lams, levels, grid):
        # An empty grid gives empty columns, as observables and the
        # predictors do; the health maxima used to raise numpy's
        # "zero-size array to reduction operation maximum".
        columns = sweep(lams, levels, DimensionlessGateParams(), FockCutoff(12))
        assert {key: col.shape for key, col in columns.items()} == dict.fromkeys(columns, grid)

    def test_non_integer_level_refused(self):
        # Unrefused, 1.5 ended in a bare IndexError.
        # The level reaches the check as a numpy float, shown as a plain number.
        with pytest.raises(ValueError, match=r"Fock level n must be an integer in 0\.\.6, got 1\.5$"):
            sweep(np.array([0.0]), [1.5], DimensionlessGateParams(), FockCutoff(6))

    def test_basis_columns_check_the_cutoff_then_each_level_in_order(self):
        cutoff = FockCutoff(6)
        levels = [3, 0, 3, 2, 0]
        expected = np.stack([basis_state("eg", n, cutoff) for n in levels], axis=1)
        assert np.array_equal(oracle._basis_columns(2, levels, cutoff), expected)
        with pytest.raises(GuardBandError, match="Fock level 9 "):
            oracle._basis_columns(0, [-1, 1.5, 9], cutoff)
        with pytest.raises(ValueError, match=r"got -1$"):
            oracle._basis_columns(0, [2, -1, 1.5], cutoff)
        with pytest.raises(ValueError, match=r"got 1\.5$"):
            oracle._basis_columns(0, [2, 1.5, -1], cutoff)

    def test_rows_and_csv(self, oracle_cutoff, table, tmp_path):
        params = DimensionlessGateParams()
        lams = np.array([-0.02, 0.0, 0.02])
        columns = sweep(lams, [0, 1], params, oracle_cutoff)
        assert list(columns) == ["relative_phase", "p_gg", "p_ge", "p_eg", "p_ee",
                                 "coherence_abs", "fidelity", "purity", "norm_drift",
                                 "guard_band_mass"]
        assert all(col.shape == (2, 3) for col in columns.values())
        assert lams[1] == 0.0
        assert columns["fidelity"][:, 1] == pytest.approx(1.0, abs=1e-8)
        assert (columns["guard_band_mass"] < 1e-10).all()
        # The CLI's sweep CSV carries these columns exactly, level-major.
        table_path, out = tmp_path / "table.json", tmp_path / "sweep.csv"
        table.save(table_path)
        argv = ["sweep", "--table", str(table_path), "--lambda-min=-0.02",
                "--lambda-max", "0.02", "--points", "3", "--fock", "0,1",
                "--oracle", "--out", str(out)]
        assert main(argv) == 0
        with open(out) as fh:
            assert fh.readline() == "# schema=msgate/sweep-report/1\n"
            written = list(csv.DictReader(fh))
        assert len(written) == 6
        for k, line in enumerate(written):
            i, j = divmod(k, lams.size)
            assert int(line["fock_n"]) == [0, 1][i]
            assert float(line["lambda_tilde"]) == lams[j]
            for key in ("p_ee", "relative_phase", "fidelity", "purity", "norm_drift",
                        "guard_band_mass"):
                assert float(line[f"oracle_{key}"]) == columns[key][i, j]

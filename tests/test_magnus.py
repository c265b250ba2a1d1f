"""Coefficient tables, derived scalars and closed-form predictors.

The spectral tables are checked against two independent routes:
  * the Van Loan block exponential (``quadrature.van_loan_derivatives``)
    gives dU/dlam and (1/2) d^2U/dlam^2 on a dense truncated space; the
    correction states read from the tables must match its columns;
  * the integral definitions, by quadrature (``quadrature.quadrature_table``),
    must converge to the tables as the panels are refined (acceptance 9),
    and the time-ordered triangle plus its mirror must rebuild a full-square
    integral that factorizes into two one-dimensional integrals.
The quadrature reference is itself checked two ways: a direct sum over
explicit displacement matrices at the *same* nodes isolates its
moment-assembly step, and an explicit two-matrix product at each node pair
isolates the analytic collapse of D(F1)^dag D(F2) into a phase times one
displacement.  Scalar values adjudicated against the RK4 oracle elsewhere
are frozen here as regression anchors.
"""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgate.magnus as magnus
from msgate.hilbert import FockCutoff, ThermalDistribution, displacement_matrix
from msgate.ideal import DimensionlessGateParams, ideal_output_state, loop_functions
from msgate.magnus import (
    LAMBDA_HARD_CAP,
    TABLE_SCHEMA,
    CoefficientTable,
    QuadratureSpec,
    TruncationError,
    UnhealthyTableError,
    compute_coefficient_table,
    compute_first_order_table,
    compute_second_order_tables,
    derived_scalars,
    first_order_correction,
    first_order_traced_unitary,
    load_coefficient_table,
    predict_coherence,
    predict_density_matrix,
    predict_fidelity,
    predict_phase,
    predict_populations,
    predict_purity,
    predicted_state,
    second_order_correction,
    traced_unitary_factored,
)
from quadrature import quadrature_table, second_order_tables, simpson, van_loan_derivatives

TAU = 2.0 * math.pi


def displacement_stack(betas, dim):
    """Recurrence matrices [<m|D(beta_k)|n>] for every node, shape (k, dim, dim)."""
    return np.stack([displacement_matrix(b, dim) for b in np.ravel(betas)])


# Regression anchors for the calibrated square pulse (adjudicated against
# finite differences of the RK4 oracle to ~1e-6 relative).
A_REF = np.array([5.6818460598, 2.9454768478, 1.2267828548, 0.2439356254])
B_REF = np.array(
    [
        -5.3901740395 + 20.9013788361j,
        -6.5883727929 + 9.8567882322j,
        -3.7057081690 + 5.4057167397j,
        -0.8685432518 + 3.4755020074j,
    ]
)
C_GG_REF = np.array([-0.0414643515, -2.1968481434, -0.9766641596, 0.3236918895])
C_EE_REF = np.array([-4.0262865061, -2.2406042201, -1.9003334064, -1.8008182314])
C_EG_REF = np.array([2.0338754288, 2.2187261817, 1.4384987830, 0.7385631710])


@pytest.fixture(scope="module")
def coarse():
    """Small quadrature table whose nodes the dual-route checks re-use."""
    return quadrature_table(n_max=16, quad=QuadratureSpec(panels_1d=256, panels_2d=16))


class TestQuadratureSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            QuadratureSpec(panels_1d=1000)

    def test_refined_doubles(self):
        spec = QuadratureSpec(panels_1d=64, panels_2d=16)
        ref = spec.refined()
        assert (ref.panels_1d, ref.panels_2d) == (128, 32)

    def test_simpson_integrates_cubics_exactly(self):
        x, w = simpson(8, 0.0, 2.0)
        assert w @ x**3 == pytest.approx(4.0, abs=1e-13)
        x, w = simpson(128, 0.0, 2.0)
        assert w @ np.exp(x) == pytest.approx(np.exp(2.0) - 1.0, rel=1e-10)


class TestFirstOrderTable:
    def test_structure_line(self, table):
        # Every entry lies on the (-1 + i) ray: Re + Im = 0 identically.
        assert table.structure_residual < 1e-12
        np.testing.assert_allclose(
            -1j * np.conj(table.i_table), table.i_table, atol=1e-12
        )

    def test_moment_route_matches_direct_quadrature(self, coarse):
        params = coarse.params
        dim = coarse.cutoff.dim
        tau, w = simpson(coarse.quad.panels_1d, 0.0, params.tau_gate)
        f, g = loop_functions(tau, params)
        mats = displacement_stack(f, dim)
        direct = 0.5j * np.einsum("k,kmn->mn", w * np.exp(1j * g), mats)
        np.testing.assert_allclose(coarse.i_table, direct, atol=1e-11)


def _triangle_nodes(params, panels):
    """Shared triangle->unit-square discretization for route comparisons."""
    t_g = params.tau_gate
    u, wu = simpson(panels, 0.0, 1.0)
    v, wv = simpson(panels, 0.0, 1.0)
    t1 = t_g * u
    f1, g1 = loop_functions(t1, params)
    t2 = t1[:, None] * v[None, :]
    f2, g2 = loop_functions(t2, params)
    jac = (wu * t_g * t_g * u)[:, None] * wv[None, :]
    return f1, g1, f2, g2, jac


def _direct_second_order(params, dim, panels):
    """(j1, j2, j3) summed node by node over recurrence displacement matrices."""
    g_end = float(loop_functions(params.tau_gate, params)[1])
    f1, g1, f2, g2, jac = _triangle_nodes(params, panels)
    theta = (f1[:, None] * f2.conj()).imag
    base = g2 - g1[:, None] + g_end
    d1 = displacement_stack(f2 - f1[:, None], dim)
    d2 = displacement_stack(f2 + f1[:, None], dim)
    w1 = (0.5 * jac * np.exp(1j * (base - theta))).ravel()
    w2 = (0.5 * jac * np.exp(1j * (base + theta))).ravel()
    w3 = (0.5 * jac * np.exp(1j * (g1[:, None] - g2 - theta))).ravel()
    j1 = np.einsum("k,kmn->mn", w1, d1)
    j2 = np.einsum("k,kmn->mn", w2, d2)
    j3 = np.einsum("k,kmn->mn", w3, d1)
    parity = np.add.outer(np.arange(dim), -np.arange(dim)) % 2
    j3[parity == 1] = 0.0
    return j1, j2, j3


class TestSecondOrderTables:
    def test_moment_route_matches_direct_quadrature(self, coarse):
        direct = _direct_second_order(coarse.params, coarse.cutoff.dim,
                                      coarse.quad.panels_2d)
        for got, want in zip((coarse.j1, coarse.j2, coarse.j3), direct):
            np.testing.assert_allclose(got, want, atol=1e-10)

    @given(
        omega=st.floats(0.3, 0.6),
        sign=st.sampled_from([-1.0, 1.0]),
        loops=st.sampled_from([1, 2]),
    )
    @settings(max_examples=8, deadline=None)
    def test_moment_route_matches_direct_off_calibration(self, omega, sign, loops):
        # Either detuning sign and one or two loops; the 33 outer rows of
        # panels_2d = 16 span three weighted-moment chunks of the reference.
        params = DimensionlessGateParams(omega_tilde=sign * omega,
                                         tau_gate=loops * TAU)
        quad = QuadratureSpec(panels_1d=256, panels_2d=16)
        tables = second_order_tables(params, FockCutoff(12), quad)
        direct = _direct_second_order(params, 13, quad.panels_2d)
        for got, want in zip(tables, direct):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_collapsed_integrand_matches_matrix_products(self, coarse):
        # Independent route: multiply the two truncated displacement matrices
        # at every node pair instead of collapsing them analytically.
        params = coarse.params
        pad, low = 28, 12
        g_end = float(loop_functions(params.tau_gate, params)[1])
        f1, g1, f2, g2, jac = _triangle_nodes(params, coarse.quad.panels_2d)
        k1 = displacement_stack(f1, pad)
        k2 = displacement_stack(f2, pad).reshape(f2.shape + (pad, pad))
        phase12 = 0.5 * jac * np.exp(1j * (g2 - g1[:, None] + g_end))
        phase3 = 0.5 * jac * np.exp(1j * (g1[:, None] - g2))
        hop = np.einsum("ima,ijab->ijmb", k1.conj().transpose(0, 2, 1), k2)
        j1_prod = np.einsum("ij,ijmn->mn", phase12, hop)
        j3_prod = np.einsum("ij,ijmn->mn", phase3, hop)
        j2_prod = np.einsum(
            "ij,ijmn->mn", phase12, np.einsum("ima,ijan->ijmn", k1, k2)
        )
        parity = np.add.outer(np.arange(low), -np.arange(low)) % 2
        j3_prod = j3_prod[:low, :low].copy()
        j3_prod[parity == 1] = 0.0
        np.testing.assert_allclose(coarse.j1[:low, :low], j1_prod[:low, :low],
                                   atol=1e-9)
        np.testing.assert_allclose(coarse.j2[:low, :low], j2_prod[:low, :low],
                                   atol=1e-9)
        np.testing.assert_allclose(coarse.j3[:low, :low], j3_prod, atol=1e-9)

    def test_j3_triangle_mirror_rebuilds_square(self, table):
        # The time-ordered triangle plus its mirror is the full square, whose
        # integral factorizes into C^dag C with C = Int e^{-iG} D(F) dtau.
        params = table.params
        dim = table.cutoff.dim
        tau, w = simpson(2**12, 0.0, params.tau_gate)
        f, g = loop_functions(tau, params)
        mats = displacement_stack(f, dim)
        c = np.einsum("k,kmn->mn", w * np.exp(-1j * g), mats)
        square = 0.5 * (c.conj().T @ c)
        lhs = table.j3 + table.j3.conj().T
        mask = (np.add.outer(np.arange(dim), -np.arange(dim)) % 2) == 0
        low = 13
        np.testing.assert_allclose(
            np.where(mask, lhs, 0.0)[:low, :low],
            np.where(mask, square, 0.0)[:low, :low],
            atol=5e-8,
        )

    def test_j3_parity_zeros(self, table):
        parity = np.add.outer(
            np.arange(table.cutoff.dim), -np.arange(table.cutoff.dim)
        ) % 2
        assert np.all(table.j3[parity == 1] == 0.0)

    def test_plus_minus_decomposition(self, table):
        np.testing.assert_allclose(
            table.j_plus + table.j_minus, table.j1 + table.j2, atol=1e-14
        )
        np.testing.assert_allclose(
            table.j_plus - table.j_minus, 2.0 * table.j3, atol=1e-14
        )


def _van_loan_gap(table, levels, pad=30):
    """(largest |correction state - Van Loan column|, largest |Van Loan entry|)
    over every qubit label and the given input levels, both derivative
    orders, all table rows."""
    dim, big = table.cutoff.dim, FockCutoff(table.n_max + pad)
    first, second = van_loan_derivatives(table.params, big)
    gaps, scales = [], []
    for q, label in enumerate(("gg", "ge", "eg", "ee")):
        for n in levels:
            col = big.index(q, n)
            for deriv, correction in ((first, first_order_correction),
                                      (second, second_order_correction)):
                want = -deriv[:, col].reshape(4, big.dim)[:, :dim].ravel()
                got = correction(label, n, table).amplitudes
                gaps.append(np.abs(got - want).max())
                scales.append(np.abs(want).max())
    return float(np.max(gaps)), float(np.max(scales))  # np.max keeps a nan


def _spectral_table(params, cutoff):
    """The library's tables for any closed loop, without the calibrated defaults."""
    return CoefficientTable(
        params, cutoff, QuadratureSpec(),
        compute_first_order_table(params, cutoff),
        *compute_second_order_tables(params, cutoff),
    )


class TestSpectralTables:
    def test_matches_van_loan_on_trusted_levels(self, table, derived):
        levels = np.nonzero(derived.trusted)[0]
        assert levels.size >= 4
        gap, _ = _van_loan_gap(table, levels)
        assert gap <= 1e-12

    @given(
        omega=st.floats(0.3, 0.6),
        sign=st.sampled_from([-1.0, 1.0]),
        loops=st.sampled_from([1, 2]),
    )
    @settings(max_examples=8, deadline=None)
    def test_matches_van_loan_off_calibration(self, omega, sign, loops):
        # Off the calibrated area the tables leave the (-1 + i) line, but the
        # correction-state maps, and so the read-off, still hold.  The bound
        # is relative: at two loops |d^2U/dlam^2| / 2 reaches about 40, and
        # the Van Loan exponential's own roundoff about 1e-12 there.
        params = DimensionlessGateParams(omega_tilde=sign * omega, tau_gate=loops * TAU)
        table = _spectral_table(params, FockCutoff(12))
        gap, scale = _van_loan_gap(table, range(13))
        assert gap <= 1e-13 * scale

    @pytest.mark.parametrize("omega", [1.0, math.sqrt(2.0)])
    def test_degenerate_branches(self, omega):
        # With omega^2 an integer, displaced and idle levels share energies,
        # so the divided differences meet their confluent limits (sqrt(2)
        # misses by one rounding, 1 not at all).
        table = _spectral_table(DimensionlessGateParams(omega_tilde=omega), FockCutoff(8))
        gap, scale = _van_loan_gap(table, range(9), pad=60)
        assert gap <= 1e-13 * scale

    @pytest.mark.parametrize("n_max, omega", [(40, 0.5), (120, 0.5), (120, 0.6)])
    def test_margin_doubling_moves_no_entry(self, n_max, omega, monkeypatch):
        base = compute_coefficient_table(omega_tilde=omega, n_max=n_max)
        margin = magnus._fock_margin
        monkeypatch.setattr(magnus, "_fock_margin", lambda n, w: 2 * margin(n, w))
        doubled = compute_coefficient_table(omega_tilde=omega, n_max=n_max)
        for name in ("i_table", "j1", "j2", "j3"):
            assert np.abs(getattr(doubled, name) - getattr(base, name)).max() <= 1e-13

    def test_quadrature_ignored(self, table):
        other = compute_coefficient_table(n_max=table.n_max, quad=QuadratureSpec(64, 16))
        for name in ("i_table", "j1", "j2", "j3"):
            np.testing.assert_array_equal(getattr(other, name), getattr(table, name))
        assert other.provenance_hash != table.provenance_hash


class TestComputeTable:
    def test_open_loop_rejected(self):
        with pytest.raises(ValueError, match="closed loops"):
            compute_coefficient_table(n_max=4, tau_gate=0.8 * TAU,
                                      quad=QuadratureSpec(64, 16))

    def test_cutoff_overflow_guard(self):
        with pytest.raises(ValueError, match="Fock margin"):
            compute_coefficient_table(n_max=150)

    def test_parameter_hash_covers_schema(self, table, monkeypatch):
        same = table.provenance_hash
        monkeypatch.setattr(magnus, "TABLE_SCHEMA", "msgate/coefficients/1")
        assert table.provenance_hash != same

    def test_parameter_hash_stability(self, table, tmp_path):
        # The provenance digest survives a save and load, and moves with n_max.
        path = tmp_path / "table.json"
        table.save(path)
        assert json.loads(path.read_text())["provenance_sha256"] == table.provenance_hash
        assert load_coefficient_table(path).provenance_hash == table.provenance_hash
        other = compute_coefficient_table(n_max=table.n_max + 1, quad=table.quad)
        assert other.provenance_hash != table.provenance_hash


class TestDerivedScalars:
    def test_frozen_values(self, derived):
        np.testing.assert_allclose(derived.a[:4], A_REF, atol=2e-7)
        np.testing.assert_allclose(derived.b[:4], B_REF, atol=2e-6)
        np.testing.assert_allclose(derived.c_gg[:4], C_GG_REF, atol=2e-7)
        np.testing.assert_allclose(derived.c_ee[:4], C_EE_REF, atol=2e-7)
        np.testing.assert_allclose(derived.c_eg[:4], C_EG_REF, atol=2e-7)

    def test_slope_positive_and_decreasing(self, derived):
        a = derived.a[:4]
        assert a[0] > 0
        assert np.all(np.diff(np.abs(a)) < 0)

    def test_trusted_band(self, table, derived):
        assert derived.trusted[:4].all()
        # Levels within the five-row guard band are never trusted.
        assert not derived.trusted[table.n_max - 4 :].any()
        with pytest.raises(TruncationError, match="not trusted"):
            derived.require_trusted(table.n_max)

    def test_tail_keys(self, derived):
        assert set(derived.tails) == {"c_gg", "c_ee", "c_eg", "b", "a_structure"}


class TestCorrectionStates:
    def test_first_order_parity_structure(self, table):
        n = 2
        psi1 = first_order_correction("gg", n, table)
        dim = table.cutoff.dim
        m = np.arange(dim)
        even = (m - n) % 2 == 0
        for q in (0, 3):
            assert np.all(psi1.qubit_block(q)[~even] == 0.0)
        for q in (1, 2):
            assert np.all(psi1.qubit_block(q)[even] == 0.0)
            assert np.abs(psi1.qubit_block(q)[~even]).max() > 0

    def test_second_order_cross_blocks(self, table):
        # A |gg,n> input leaves odd-parity second-order weight on the ge/eg
        # blocks; a |ge,n> input leaves odd-parity weight on gg/ee.
        psi2 = second_order_correction("gg", 1, table)
        assert np.abs(psi2.qubit_block(1)).max() > 1e-3
        np.testing.assert_allclose(
            psi2.qubit_block(1), psi2.qubit_block(2), atol=1e-15
        )
        psi2_mid = second_order_correction("ge", 1, table)
        assert np.abs(psi2_mid.qubit_block(0)).max() > 1e-3
        np.testing.assert_allclose(
            psi2_mid.qubit_block(0), -psi2_mid.qubit_block(3), atol=1e-15
        )

    def test_ee_mirrors_gg(self, table):
        # Swapping g<->e on both qubits swaps the roles of the gg/ee blocks
        # and flips the sign of the first-order diagonal pieces.
        n = 2
        gg1 = first_order_correction("gg", n, table)
        ee1 = first_order_correction("ee", n, table)
        np.testing.assert_allclose(
            ee1.qubit_block(3), -gg1.qubit_block(0), atol=1e-15
        )
        np.testing.assert_allclose(
            ee1.qubit_block(0), -gg1.qubit_block(3), atol=1e-15
        )

    def test_predicted_state_orders(self, table):
        lam = 0.05
        psi0 = predicted_state("gg", 0, lam, table, order=0)
        np.testing.assert_allclose(
            psi0.amplitudes, ideal_output_state("gg", 0, table.cutoff).amplitudes
        )
        psi1 = predicted_state("gg", 0, lam, table, order=1)
        psi2 = predicted_state("gg", 0, lam, table, order=2)
        diff = np.linalg.norm(psi2.amplitudes - psi1.amplitudes)
        assert diff == pytest.approx(
            lam**2 * second_order_correction("gg", 0, table).norm, rel=1e-12
        )
        with pytest.raises(ValueError, match="order"):
            predicted_state("gg", 0, lam, table, order=3)

    def test_bad_label_and_level(self, table):
        with pytest.raises(ValueError, match="label"):
            first_order_correction("xx", 0, table)
        with pytest.raises(ValueError, match="outside"):
            second_order_correction("gg", table.n_max + 1, table)


class TestPredictors:
    def test_calibrated_point(self, table):
        assert predict_phase(0, 0.0, table) == pytest.approx(-math.pi / 2)
        assert predict_phase(0, 0.0, table, initial="ge") == math.pi / 2
        np.testing.assert_allclose(
            predict_populations(0, 0.0, table), [0.5, 0.0, 0.0, 0.5], atol=1e-15
        )
        assert predict_fidelity(0, 0.0, table) == 1.0
        assert predict_purity(0, 0.0, table) == 1.0
        assert predict_coherence(0, 0.0, table) == pytest.approx(-0.5j)

    def test_phase_formula(self, table, derived):
        lam, n = 0.03, 1
        expected = -math.pi / 2 + lam * derived.a[n] + lam**2 * derived.b[n].real
        assert predict_phase(n, lam, table) == pytest.approx(expected, abs=1e-14)
        flipped = -math.pi / 2 - lam * derived.a[n] + lam**2 * derived.b[n].real
        assert predict_phase(n, lam, table, initial="ee") == pytest.approx(
            flipped, abs=1e-14
        )
        first = -math.pi / 2 + lam * derived.a[n]
        assert predict_phase(n, lam, table, order=1) == pytest.approx(
            first, abs=1e-14
        )

    def test_phase_matches_coherence_angle(self, table):
        lam, n = 0.003, 0
        coh = predict_coherence(n, lam, table)
        # Same observable two ways; they differ by the (a lam)^3 / 3 term the
        # analytic angle expansion drops.
        assert math.isclose(
            float(np.angle(coh)), predict_phase(n, lam, table), abs_tol=5e-6
        )

    def test_population_symmetry(self, table):
        lam, n = 0.04, 2
        pops_gg = predict_populations(n, lam, table, initial="gg")
        pops_ee = predict_populations(n, lam, table, initial="ee")
        assert pops_gg[0] == pops_ee[3]
        assert pops_gg[3] == pops_ee[0]
        np.testing.assert_allclose(pops_gg[1:3], pops_ee[1:3])

    def test_density_matrix(self, table):
        lam, n = 0.05, 1
        rho = predict_density_matrix(n, lam, table)
        pops = predict_populations(n, lam, table)
        np.testing.assert_allclose(np.diag(rho.matrix).real, pops, atol=1e-15)
        assert rho.coherence(3, 0) == predict_coherence(n, lam, table)
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-15)
        renorm = predict_density_matrix(n, lam, table).normalized()
        assert renorm.trace == pytest.approx(1.0, abs=1e-14)

    def test_fidelity_purity_forms(self, table, derived):
        lam, n = 0.06, 3
        fid = 1.0 + 0.5 * lam**2 * (
            derived.c_gg[n] + derived.c_ee[n] - derived.b[n].imag
        )
        assert predict_fidelity(n, lam, table) == pytest.approx(fid, abs=1e-14)
        pur = 1.0 - lam**2 * (
            derived.b[n].imag
            - 0.5 * derived.a[n] ** 2
            - derived.c_gg[n]
            - derived.c_ee[n]
        )
        assert predict_purity(n, lam, table) == pytest.approx(pur, abs=1e-14)

    def test_thermal_dispatch(self, table, derived):
        lam = 0.01
        dist = ThermalDistribution(0.05)
        phase = predict_phase(dist, lam, table)
        slope = (phase - predict_phase(dist, -lam, table)) / (2 * lam)
        a_bar = dist.probabilities @ derived.a[:8]
        assert slope == pytest.approx(a_bar, rel=1e-12)

    def test_hard_cap(self, table):
        with pytest.raises(ValueError, match="hard cap"):
            predict_phase(0, 0.9, table)
        assert abs(LAMBDA_HARD_CAP - 0.5) < 1e-15

    def test_untrusted_level_refused(self, table):
        with pytest.raises(TruncationError):
            predict_populations(table.n_max - 1, 0.01, table)
        # A thermal mode reaching past the table meets its untrusted rows.
        assert ThermalDistribution(2.0).n_max > table.n_max
        with pytest.raises(TruncationError):
            predict_fidelity(ThermalDistribution(2.0), 0.01, table)

    def test_bad_initial(self, table):
        with pytest.raises(ValueError):
            predict_populations(0, 0.01, table, initial="ge")


class TestTracedUnitary:
    def test_factored_matches_fixed_phase_form(self, derived):
        lam = 0.004
        a0 = derived.a[0]
        fixed = first_order_traced_unitary(a0, lam)
        factored = traced_unitary_factored(a0, lam)
        ratio = np.exp(0.25j * math.pi)
        # Equal up to the overall phase and O((a lam)^2) terms.
        np.testing.assert_allclose(factored, ratio * fixed, atol=5e-4)

    def test_factored_exactly_unitary(self, derived):
        u = traced_unitary_factored(derived.a[0], 0.2)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-14)

    def test_fixed_phase_form_unitary_to_first_order(self, derived):
        lam = 1e-4
        u = first_order_traced_unitary(derived.a[0], lam)
        dev = np.abs(u @ u.conj().T - np.eye(4)).max()
        assert dev < 2.0 * (derived.a[0] * lam) ** 2


class TestPersistence:
    def test_round_trip(self, table, tmp_path):
        path = tmp_path / "table.json"
        table.save(path)
        loaded = load_coefficient_table(path)
        # The file holds the tables' own bytes: every entry comes back exact.
        for name in ("i_table", "j1", "j2", "j3"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(table, name))
        assert loaded.params == table.params
        assert loaded.provenance_hash == table.provenance_hash

    def test_signed_zero_round_trip(self, table, tmp_path):
        # A -0.0 is stored and hashed as 0.0, so the reloaded table equals
        # the built one, carries its digest and saves to the same bytes.
        j3 = table.j3.copy()
        j3[1, 0] = complex(-0.0, -0.0)  # odd n - m: zero in every j3
        built = CoefficientTable(table.params, table.cutoff, table.quad,
                                 table.i_table, table.j1, table.j2, j3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        built.save(p1)
        loaded = load_coefficient_table(p1)
        for name in ("i_table", "j1", "j2", "j3"):
            assert np.array_equal(getattr(loaded, name), getattr(built, name))
        parts = loaded.j3.view(float)
        assert not np.signbit(parts[parts == 0.0]).any()
        assert loaded.provenance_hash == built.provenance_hash
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_reproducible(self, table, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        table.save(p1)
        table.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        load_coefficient_table(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_leaves_nothing(self, table, tmp_path, monkeypatch):
        # The temporary file is written in full, then the rename fails.
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(magnus.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            table.save(tmp_path / "table.json")
        assert list(tmp_path.iterdir()) == []

    def test_tampered_parameters_rejected(self, table, tmp_path):
        path = tmp_path / "table.json"
        table.save(path)
        doc = json.loads(path.read_text())
        doc["params"]["omega_tilde"] = 0.51
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="provenance"):
            load_coefficient_table(path)

    @pytest.mark.parametrize(
        "block, field, entry, name",
        [
            ("derived", "a", (0,), "'a'"),
            ("tables", "j1", ("re", 2, 2), "'c_gg'"),  # feeds c_gg and c_ee
        ],
    )
    def test_tampered_content_rejected(self, table, tmp_path, edit_table_entry,
                                       block, field, entry, name):
        # The stored derived block is recomputed from the tables on load and
        # compared before the provenance digest, which names no entry.
        path = tmp_path / "table.json"
        table.save(path)
        doc = json.loads(path.read_text())
        if block == "tables":
            edit_table_entry(doc, field, *entry, lambda x: x * (1.0 + 1e-9))
        else:
            doc[block][field][entry[0]] *= 1.0 + 1e-9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"derived {name}"):
            load_coefficient_table(path)

    @pytest.mark.parametrize("field, part, m, n", [
        ("j1", "re", 2, 0), ("j2", "im", 3, 1), ("j3", "re", 4, 0),
    ])
    def test_tampered_off_diagonal_rejected(self, table, tmp_path, edit_table_entry,
                                            field, part, m, n):
        # No derived scalar reads these entries, but the correction states
        # do; only the provenance digest catches the change.
        path = tmp_path / "table.json"
        table.save(path)
        doc = json.loads(path.read_text())
        edit_table_entry(doc, field, part, m, n, lambda x: x + 0.5)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="provenance.*msgate coefficients"):
            load_coefficient_table(path)

    def test_load_keeps_recomputed_scalars(self, table, tmp_path, monkeypatch):
        path = tmp_path / "table.json"
        table.save(path)
        calls = []
        monkeypatch.setattr(magnus, "derived_scalars",
                            lambda t: calls.append(t) or derived_scalars(t))
        loaded = load_coefficient_table(path)
        predict_phase(0, 0.01, loaded)
        predict_fidelity(ThermalDistribution(0.05), 0.01, loaded)
        assert len(calls) == 1 and calls[0] is loaded

    def test_non_finite_entry_rejected(self, table, tmp_path, edit_table_entry):
        path = tmp_path / "table.json"
        table.save(path)
        doc = json.loads(path.read_text())
        edit_table_entry(doc, "j2", "im", 3, 1, lambda x: math.nan)
        path.write_text(json.dumps(doc))
        with pytest.raises(UnhealthyTableError, match="j2 has non-finite"):
            load_coefficient_table(path)

    def test_off_line_table_rejected(self, tmp_path):
        # omega_tilde 0.4 closes the loop with the wrong area; the library
        # still builds and saves such a table, but loading refuses it.
        off = compute_coefficient_table(omega_tilde=0.4, n_max=8,
                                        quad=QuadratureSpec(64, 16))
        path = tmp_path / "table.json"
        off.save(path)
        with pytest.raises(UnhealthyTableError, match="structure residual"):
            load_coefficient_table(path)
        with pytest.raises(UnhealthyTableError, match="structure residual"):
            off.check_health()

    def test_schema_1_file_rejected(self, table, tmp_path):
        # Version-1 files hold quadrature tables; the message says how to
        # replace them.
        assert TABLE_SCHEMA == "msgate/coefficients/3"
        path = tmp_path / "table.json"
        table.save(path)
        doc = json.loads(path.read_text())
        doc["schema"] = "msgate/coefficients/1"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'msgate/coefficients/1'.*msgate coefficients"):
            load_coefficient_table(path)

    def test_schema_2_file_rejected(self, table, tmp_path):
        # Version-2 files store the tables as nested float lists.
        path = tmp_path / "table.json"
        table.save(path)
        doc = json.loads(path.read_text())
        doc["schema"] = "msgate/coefficients/2"
        doc["tables"] = {
            key: {"re": arr.real.tolist(), "im": arr.imag.tolist()}
            for key, arr in [("i", table.i_table), ("j1", table.j1),
                             ("j2", table.j2), ("j3", table.j3)]
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'msgate/coefficients/2'.*msgate coefficients"):
            load_coefficient_table(path)

    @pytest.mark.parametrize("stored, message", [
        (lambda text: base64.b64encode(base64.b64decode(text)[:-16]).decode(),
         "j1 has the wrong shape: 9984 bytes, expected 10000"),
        (lambda text: text[:-4] + "!!!!", "j1 is not valid base64"),
        (lambda text: "é" + text[1:], "j1 is not valid base64"),
        (lambda text: 1.5, "j1 is not a base64 string"),
        (lambda text: [[0.0] * 25] * 25, "j1 is not a base64 string"),
    ], ids=["truncated", "bad-character", "non-ascii", "number", "list"])
    def test_bad_table_encoding_rejected(self, table, tmp_path, stored, message):
        path = tmp_path / "table.json"
        table.save(path)
        doc = json.loads(path.read_text())
        doc["tables"]["j1"] = stored(doc["tables"]["j1"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_coefficient_table(path)

    def test_wrong_schema_rejected(self, table, tmp_path):
        path = tmp_path / "table.json"
        table.save(path)
        doc = json.loads(path.read_text())
        doc["schema"] = "msgate/coefficients/999"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            load_coefficient_table(path)

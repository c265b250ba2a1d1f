"""Calibrated-gate closed forms: loop functions, propagator, target states."""

import math

import numpy as np
import pytest

from msgate.hilbert import FockCutoff
from msgate.ideal import (
    DimensionlessGateParams,
    collective_spin,
    ideal_output_state,
    loop_functions,
)
from msgate.oracle import observables
from quadrature import basis_state, ideal_propagator, ms_target_unitary

TAU_GATE = 2.0 * math.pi


def closes_with_quarter_area(params: DimensionlessGateParams) -> bool:
    """The loop closes (F(tau_gate) = 0) and encloses the area +/- pi/2."""
    f, g = loop_functions(params.tau_gate, params)
    return bool(abs(f) < 1e-12 and abs(abs(g) - math.pi / 2.0) < 1e-12)


class TestParams:
    def test_defaults_are_calibrated(self):
        params = DimensionlessGateParams()
        assert params.omega_tilde == 0.5
        assert closes_with_quarter_area(params)

    def test_detuned_coupling_not_calibrated(self):
        assert not closes_with_quarter_area(DimensionlessGateParams(omega_tilde=0.4))
        assert not closes_with_quarter_area(DimensionlessGateParams(tau_gate=0.7 * TAU_GATE))

    def test_calibrated_loops(self):
        # One loop is the default gate exactly; K loops enclose the same area.
        assert DimensionlessGateParams.calibrated(1) == DimensionlessGateParams()
        for loops in (2, 3, 7):
            params = DimensionlessGateParams.calibrated(loops)
            assert params.omega_tilde == pytest.approx(0.5 / math.sqrt(loops), rel=1e-15)
            assert params.tau_gate == loops * TAU_GATE
            assert closes_with_quarter_area(params)

    @pytest.mark.parametrize("loops", [0, -1, 1.5, 2.0, True])
    def test_calibrated_rejects_non_positive_or_non_integer(self, loops):
        with pytest.raises(ValueError, match="loops must be an integer >= 1"):
            DimensionlessGateParams.calibrated(loops)

    def test_calibrated_accepts_numpy_integers(self):
        assert DimensionlessGateParams.calibrated(np.int64(2)) == \
            DimensionlessGateParams.calibrated(2)

    def test_rejects_zero_drive(self):
        with pytest.raises(ValueError):
            DimensionlessGateParams(omega_tilde=0.0)

    @pytest.mark.parametrize("tau_gate", [0.0, -TAU_GATE])
    def test_rejects_non_positive_duration(self, tau_gate):
        with pytest.raises(ValueError, match="tau_gate must be positive"):
            DimensionlessGateParams(tau_gate=tau_gate)

    @pytest.mark.parametrize("name", ["omega_tilde", "tau_gate", "phi"])
    @pytest.mark.parametrize("value", [1j, True, "0.5"], ids=["complex", "bool", "str"])
    def test_rejects_non_real(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a real number, got {value!r}"):
            DimensionlessGateParams(**{name: value})

    @pytest.mark.parametrize("name", ["omega_tilde", "tau_gate", "phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DimensionlessGateParams(**{name: value})


class TestLoopFunctions:
    def test_loop_closes(self):
        params = DimensionlessGateParams()
        f, g = loop_functions(TAU_GATE, params)
        assert abs(f) < 1e-15
        assert g == pytest.approx(math.pi / 2.0)

    def test_derivative_consistency(self):
        # dG/dtau = |F|^2 / ... no: dG/dtau = w^2 (1 - cos tau) = |F|^2 / 2
        # for the square pulse; check numerically.
        params = DimensionlessGateParams()
        tau = np.linspace(0.1, 5.0, 11)
        f, _ = loop_functions(tau, params)
        h = 1e-6
        _, gp = loop_functions(tau + h, params)
        _, gm = loop_functions(tau - h, params)
        np.testing.assert_allclose((gp - gm) / (2 * h), 0.5 * np.abs(f) ** 2,
                                   atol=1e-8)

    def test_circle_geometry(self):
        # F traces a circle of radius omega_tilde centered at -omega_tilde.
        params = DimensionlessGateParams(omega_tilde=0.5)
        tau = np.linspace(0.0, TAU_GATE, 64)
        f, _ = loop_functions(tau, params)
        np.testing.assert_allclose(np.abs(f + 0.5), 0.5, atol=1e-14)


class TestIdealPropagator:
    def test_unitary(self):
        cutoff = FockCutoff(20)
        u = ideal_propagator(1.3, DimensionlessGateParams(), cutoff)
        # Truncation only touches the high-Fock corner; check the low block.
        low = np.kron(np.eye(4), np.eye(cutoff.dim, 21, k=0)[:, :8])
        prod = low.T @ u.conj().T @ u @ low
        np.testing.assert_allclose(prod, np.eye(prod.shape[0]), atol=1e-10)

    def test_identity_at_zero(self):
        cutoff = FockCutoff(6)
        u = ideal_propagator(0.0, DimensionlessGateParams(), cutoff)
        np.testing.assert_allclose(u, np.eye(cutoff.composite_dim), atol=1e-14)

    def test_full_gate_matches_combos(self):
        cutoff = FockCutoff(24)
        u = ideal_propagator(TAU_GATE, DimensionlessGateParams(), cutoff)
        for label in ("gg", "ge", "eg", "ee"):
            for n in range(3):
                final = u @ basis_state(label, n, cutoff)
                target = ideal_output_state(label, n, cutoff)
                assert abs(np.vdot(final, target)) ** 2 == pytest.approx(
                    1.0, abs=1e-12
                ), (label, n)

    @pytest.mark.parametrize("n", [1.5, True])
    def test_non_integer_level_refused(self, n):
        # Unrefused, 1.5 ended in a bare IndexError and True was read as 1.
        with pytest.raises(ValueError, match=f"Fock level n must be an integer in 0..4, got {n}"):
            ideal_output_state("gg", n, FockCutoff(4))

    def test_phi_not_implemented(self):
        with pytest.raises(NotImplementedError):
            ideal_propagator(1.0, DimensionlessGateParams(phi=0.2), FockCutoff(2))


class TestTargetUnitary:
    def test_unitary_and_form(self):
        u = ms_target_unitary()
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-14)
        # exp(i pi/2 S_y^2) in the computational basis couples gg<->ee and
        # ge<->eg with weight -i/sqrt(2)... check against direct expm route.
        s2 = collective_spin(0.0)
        s2 = s2 @ s2
        vals, vecs = np.linalg.eigh(s2)
        direct = (vecs * np.exp(1j * (math.pi / 2) * vals)) @ vecs.conj().T
        np.testing.assert_allclose(u, direct, atol=1e-14)

    def test_reduced_gate_state_matches_target(self):
        cutoff = FockCutoff(16)
        u = ms_target_unitary()
        for label, q in (("gg", 0), ("ge", 1)):
            out = ideal_output_state(label, 2, cutoff)
            rho = observables(out, label, cutoff)["rho"]
            vec = u[:, q]
            np.testing.assert_allclose(rho, np.outer(vec, vec.conj()), atol=1e-12)

    def test_squared_spin_idempotent(self):
        s2 = collective_spin(0.3)
        s2 = s2 @ s2
        np.testing.assert_allclose(s2 @ s2, s2, atol=1e-14)


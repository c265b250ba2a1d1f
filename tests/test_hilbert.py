"""Fock-space primitives: displacement elements, the sigma_y basis, reduced states.

The closed form <m|D|n> and its moment kernel live in the tests' quadrature
reference (``quadrature.py``); they are checked here against the recurrence.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from msgate.hilbert import (
    SIGMA_Y_BASIS,
    CompositeState,
    FockCutoff,
    QubitDensityMatrix,
    ThermalDistribution,
    displacement_matrix,
    level_weights,
    partial_trace_phonons,
    purity,
    thermal_probabilities,
)
from quadrature import displacement_from_moments, power_moments


def expm_displacement(alpha: complex, dim: int, pad: int = 40) -> np.ndarray:
    """Independent oracle: exponentiate the truncated generator, then crop.

    The generator is built on a larger space so truncation error stays out of
    the cropped block.
    """
    big = dim + pad
    a = np.diag(np.sqrt(np.arange(1, big)), 1)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)[:dim, :dim]


def closed_form(alpha: complex, dim: int) -> np.ndarray:
    """[<m|D(alpha)|n>] from the quadrature kernel: one node, Gaussian weight."""
    betas = np.array([alpha], dtype=complex)
    weight = np.exp(-0.5 * np.abs(betas) ** 2).astype(complex)
    (mom,) = power_moments(betas, [weight], dim)
    return displacement_from_moments(mom, dim)


class TestDisplacementElement:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(displacement_matrix(0.0, 6), np.eye(6))

    def test_matches_expm_oracle(self):
        alpha = 0.7 - 0.4j
        np.testing.assert_allclose(
            closed_form(alpha, 10), expm_displacement(alpha, 10), rtol=0, atol=1e-12
        )

    def test_transpose_symmetry(self):
        # <m|D(a)|n> = <n|D(-a)|m>* for the unitary displacement.
        alpha = 0.3 + 1.1j
        np.testing.assert_allclose(
            closed_form(alpha, 8), closed_form(-alpha, 8).conj().T, rtol=0, atol=1e-13
        )

    @given(
        m=st.integers(0, 20),
        n=st.integers(0, 20),
        re=st.floats(-1.5, 1.5),
        im=st.floats(-1.5, 1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_agrees_with_closed_form(self, m, n, re, im):
        # Tolerance allows for the alternating-sum cancellation in the
        # closed form near m = n = 20, |alpha| ~ 2; both routes hold far
        # tighter on the calibrated domain (see the expm cross-checks).
        alpha = complex(re, im)
        assert displacement_matrix(alpha, 21)[m, n] == pytest.approx(
            closed_form(alpha, 21)[m, n], abs=2e-9
        )


class TestPowerMoments:
    @pytest.mark.parametrize("nodes", [1, 2, 7, 33])
    @pytest.mark.parametrize("sets", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 5, 12])
    def test_matches_per_node_sum(self, nodes, sets, dim):
        # Every returned matrix against an independent sum over the nodes of
        # its own weight set; distinct weight sets catch a swapped or shared
        # output block.
        rng = np.random.default_rng(100 * nodes + 10 * sets + dim)
        betas = 2.0 * rng.uniform(0.0, 1.0, nodes) * np.exp(
            2j * math.pi * rng.uniform(0.0, 1.0, nodes)
        )
        weights = [
            rng.normal(size=nodes) + 1j * rng.normal(size=nodes) for _ in range(sets)
        ]
        p = np.arange(dim)
        powers = betas[:, None] ** p
        conj_powers = np.conj(betas)[:, None] ** p
        got = power_moments(betas, weights, dim)
        assert len(got) == sets
        for mom, w in zip(got, weights):
            ref = np.einsum("k,kp,kq->pq", w, powers, conj_powers)
            np.testing.assert_allclose(mom, ref, rtol=1e-12, atol=0)


class TestDisplacementMatrix:
    def test_batch_matches_expm(self):
        for alpha in (0.2, -0.9j, 0.5 + 0.5j):
            ref = expm_displacement(alpha, 12)
            np.testing.assert_allclose(displacement_matrix(alpha, 12), ref, atol=1e-10)

    def test_composition_rule(self):
        # D(a)D(b) = e^{i Im(a conj(b))} D(a+b), exact for the operator; on a
        # truncated block it holds where the product's support fits.
        a, b = 0.4 + 0.2j, -0.3 + 0.6j
        dim = 60
        lhs = displacement_matrix(a, dim) @ displacement_matrix(b, dim)
        rhs = np.exp(1j * np.imag(a * np.conj(b))) * displacement_matrix(a + b, dim)
        np.testing.assert_allclose(lhs[:20, :20], rhs[:20, :20], atol=1e-12)

    def test_column_norms_unitary(self):
        # Low columns of the exact (untruncated) operator have unit norm once
        # the row cutoff comfortably exceeds n + |alpha|^2.
        mat = displacement_matrix(1.1 - 0.3j, 48)
        norms = np.linalg.norm(mat[:, :8], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_coherent_column(self):
        alpha = 0.8j
        col = displacement_matrix(alpha, 30)[:, 0]
        n = np.arange(30)
        fact = np.array([float(math.factorial(int(k))) for k in n])
        ref = np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / np.sqrt(fact)
        np.testing.assert_allclose(col, ref, atol=1e-12)


class TestFrames:
    """Amplitudes are computational; SIGMA_Y_BASIS maps them to the sigma_y frame."""

    def test_basis_change_unitary(self):
        w = SIGMA_Y_BASIS
        np.testing.assert_allclose(w @ w.conj().T, np.eye(4), atol=1e-15)

    def test_plus_state_definition(self):
        # |+> = (|g> + i|e>)/sqrt(2): the |++> row of the map is that product.
        comp = SIGMA_Y_BASIS.conj().T[:, 0]
        expected = 0.5 * np.array([1.0, 1j, 1j, -1.0])
        np.testing.assert_allclose(comp, expected, atol=1e-15)


class TestCompositeState:
    def test_indexing(self):
        cutoff = FockCutoff(4)
        assert cutoff.dim == 5
        assert cutoff.composite_dim == 20
        assert cutoff.index(2, 3) == 13
        assert cutoff.split(13) == (2, 3)

    def test_basis_state_by_label(self):
        cutoff = FockCutoff(2)
        state = CompositeState.basis_state("eg", 1, cutoff)
        assert state.amplitudes[cutoff.index(2, 1)] == 1.0
        assert state.norm == pytest.approx(1.0)

    def test_shape_check(self):
        with pytest.raises(ValueError, match="amplitude vector"):
            CompositeState(np.zeros(7), FockCutoff(2))


class TestReducedState:
    def test_product_state_is_pure(self):
        cutoff = FockCutoff(14)
        qubit = np.array([0.6, 0.0, 0.0, 0.8j])
        phonon = displacement_matrix(0.5, cutoff)[:, 0]
        state = CompositeState(np.kron(qubit, phonon), cutoff)
        rho = partial_trace_phonons(state)
        rho.validate()
        assert purity(rho) == pytest.approx(1.0, abs=1e-9)
        assert rho.population("gg") == pytest.approx(0.36)
        assert rho.population("ee") == pytest.approx(0.64)
        assert rho.coherence("gg", "ee") == pytest.approx(-0.48j)

    def test_entangled_state_purity_drops(self):
        cutoff = FockCutoff(1)
        amps = np.zeros(cutoff.composite_dim, dtype=complex)
        amps[cutoff.index(0, 0)] = 1 / math.sqrt(2)  # |gg,0>
        amps[cutoff.index(3, 1)] = 1 / math.sqrt(2)  # |ee,1>
        rho = partial_trace_phonons(CompositeState(amps, cutoff))
        rho.validate()
        assert purity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_bounds(self):
        cutoff = FockCutoff(2)
        a = CompositeState.basis_state("gg", 0, cutoff)
        b = CompositeState.basis_state("ee", 0, cutoff)
        assert abs(a.overlap(a)) ** 2 == pytest.approx(1.0)
        assert abs(a.overlap(b)) ** 2 == 0.0

    def test_validate_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            QubitDensityMatrix(bad).validate()

    def test_normalized(self):
        rho = QubitDensityMatrix(0.5 * np.eye(4) / 4)
        assert rho.normalized().trace == pytest.approx(1.0)


class TestThermal:
    def test_probabilities_sum(self):
        p = thermal_probabilities(0.2, 60)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p >= 0).all()
        # Geometric ratio between successive levels.
        np.testing.assert_allclose(p[1:] / p[:-1], 0.2 / 1.2, atol=1e-12)

    def test_zero_temperature(self):
        p = thermal_probabilities(0.0, 5)
        assert p[0] == 1.0
        assert p[1:].sum() == 0.0

    def test_distribution_guards_tail(self):
        # n_max is the smallest n >= 4 with (n_bar / (1 + n_bar))^n <= 1e-9.
        for n_bar, n_max in ((0.0, 0), (0.01, 5), (0.05, 7), (0.5, 19), (2.0, 52)):
            dist = ThermalDistribution(n_bar)
            assert dist.n_max == n_max
            assert dist.probabilities.shape == (n_max + 1,)
            assert dist.truncated_mass <= 1e-9
        with pytest.raises(ValueError, match="mean occupation"):
            ThermalDistribution(-0.1)

    @given(n_bar=st.floats(0.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_tail_within_budget(self, n_bar):
        assert ThermalDistribution(n_bar).truncated_mass <= 1e-9

    def test_level_weights(self):
        levels, weights = level_weights(3)
        assert list(levels) == [3] and list(weights) == [1.0]
        dist = ThermalDistribution(0.5)
        levels, weights = level_weights(dist)
        np.testing.assert_array_equal(levels, np.arange(dist.n_max + 1))
        assert weights is dist.probabilities

    @given(n_bar=st.floats(0.0, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_mean_occupation(self, n_bar):
        p = thermal_probabilities(n_bar, 200)
        assert p @ np.arange(201) == pytest.approx(n_bar, abs=1e-7)

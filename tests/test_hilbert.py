"""Fock-space primitives: displacement elements, the sigma_y basis, reduced states.

The closed form <m|D|n> and its moment kernel live in the tests' quadrature
reference (``quadrature.py``); they are checked here against the recurrence.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from msgate.hilbert import (
    FockCutoff,
    ThermalDistribution,
    _level_sum,
    displacement_matrix,
    level_weights,
)
from msgate.experiment import SequenceConfig
from msgate.ideal import DimensionlessGateParams, ideal_output_state
from msgate.magnus import _fock_margin
from msgate.oracle import observables
from quadrature import (
    SIGMA_Y_BASIS,
    complex_displacement_matrix,
    displacement_from_moments,
    power_moments,
)


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
    @pytest.mark.parametrize("dim", [0, -1, 2.0, True])
    def test_dim_is_a_positive_count(self, dim):
        # Unrefused, dim 0 ended in a bare IndexError.
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            displacement_matrix(0.5, dim)

    def test_one_level(self):
        assert displacement_matrix(0.5, 1) == pytest.approx(math.exp(-0.125))

    @pytest.mark.parametrize("alpha, message", [
        (math.nan, "alpha must be finite, got nan"),
        (math.inf, "alpha must be finite, got inf"),
        (complex(0.5, math.nan), "alpha must be finite, got nan"),
        (complex(-math.inf, 0.1), "alpha must be finite, got -inf"),
        (True, "alpha must be a real number, got True"),
        ("0.5", "alpha must be a real number, got '0.5'"),
        (None, "alpha must be a real number, got None"),
        ([0.5, 0.6], "alpha must be a single number, got [0.5, 0.6]"),
        ([0.5], "alpha must be a single number, got [0.5]"),
    ])
    def test_alpha_is_a_finite_number(self, alpha, message):
        # Unrefused, nan gave a nan matrix without a word, and inf warned;
        # an array alpha met numpy's bare TypeError.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            displacement_matrix(alpha, 4)

    @pytest.mark.parametrize("alpha", [0.5, 0.3 + 0.4j, 1.1 - 0.3j])
    def test_c_ordered_complex(self, alpha):
        # The table products' rounding depends on the operand layout, so a
        # real alpha, computed in real arithmetic, still gives a C-ordered
        # complex128 matrix.
        mat = displacement_matrix(alpha, 12)
        assert mat.dtype == np.complex128
        assert mat.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("loops", range(1, 9))
    @pytest.mark.parametrize("dim", [1, 76, 228])
    def test_real_alpha_has_the_complex_recurrence_bits(self, loops, dim):
        # At the couplings the tables are built at, 1/(2 sqrt K), the real
        # arithmetic gives the complex recurrence's matrix bit for bit, up
        # to the n_max 120 spectrum's size.
        alpha = 1.0 / (2.0 * math.sqrt(loops))
        got, want = displacement_matrix(alpha, dim), complex_displacement_matrix(alpha, dim)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

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

    @pytest.mark.parametrize("alpha", [0.5, -0.35, 0.3 + 0.4j, 1.1 - 0.3j])
    def test_negated_argument_is_parity_conjugation(self, alpha):
        # D(-a) = P D(a) P with P = (-1)^N.  The recurrence meets this bit for
        # bit, so one run serves both signs.  D(a)^dag meets it only to the
        # recurrence's rounding, which grows along the columns: 4e-14 at
        # a = 0.5 and 3e-10 at 1.1 - 0.3j by column 75.
        k = np.arange(76)
        parity = (-1.0) ** np.add.outer(k, k)
        np.testing.assert_array_equal(displacement_matrix(-alpha, 76),
                                      parity * displacement_matrix(alpha, 76))

    @pytest.mark.parametrize("dim", [1, 6, 41])
    @pytest.mark.parametrize("alpha", [0.5, -0.35, 0.3 + 0.4j, 1.1 - 0.3j])
    def test_truncation_changes_no_entry(self, alpha, dim):
        # The recurrence reads only lower rows, so a smaller matrix is the
        # leading block of a larger one, bit for bit (signed zeros included).
        small = displacement_matrix(alpha, dim)
        block = np.ascontiguousarray(displacement_matrix(alpha, 76)[:dim, :dim])
        np.testing.assert_array_equal(small.view(np.uint64), block.view(np.uint64))

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

    @pytest.mark.parametrize("loops, n_max, bound", [
        (1, 40, 2e-14), (1, 120, 1e-12), (4, 40, 2e-14), (4, 120, 2e-14),
        (100, 40, 2e-14), (100, 120, 2e-14),
    ])
    def test_table_rows_match_the_recurrence_in_50_digits(self, loops, n_max, bound):
        # D(omega) as a table build takes it, omega = 1/(2 sqrt K) and the
        # spectrum size of n_max, on the table rows 0..n_max, against the
        # same recurrence in 50-digit arithmetic.  Measured worst errors:
        # 2.7e-13 at K = 1, n_max 120 (the columns past 150 carry it),
        # 4.4e-15 at K = 1, n_max 40 and at most 4.3e-15 elsewhere.
        mpmath = pytest.importorskip("mpmath")
        omega = 1.0 / (2.0 * math.sqrt(loops))
        size = n_max + 1 + _fock_margin(n_max, omega)
        got = displacement_matrix(omega, size)[: n_max + 1]
        assert not got.imag.any()
        with mpmath.workdps(50):
            a = mpmath.mpf(omega)
            sqrt_m = [mpmath.sqrt(m) for m in range(size)]
            col = [mpmath.exp(-a * a / 2)]
            for m in range(1, n_max + 1):
                col.append(col[-1] * a / sqrt_m[m])
            want = [[float(v) for v in col]]
            for n in range(1, size):
                col = [-a * col[0] / sqrt_m[n]] + [
                    (sqrt_m[m] * col[m - 1] - a * col[m]) / sqrt_m[n] for m in range(1, n_max + 1)]
                want.append([float(v) for v in col])
        assert np.abs(got.real - np.array(want).T).max() <= bound


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
    """A composite state is a plain amplitude column, qubit-major."""

    def test_indexing(self):
        cutoff = FockCutoff(4)
        assert cutoff.dim == 5
        assert cutoff.composite_dim == 20
        assert cutoff.index(2, 3) == 13
        assert [divmod(cutoff.index(q, n), cutoff.dim) for q in range(4)
                for n in range(5)] == [(q, n) for q in range(4) for n in range(5)]
        for q, n in ((4, 0), (-1, 0), (0, 5), (0, -1), (0, True), (True, 0), (0, 1.5)):
            with pytest.raises(ValueError):
                cutoff.index(q, n)
        assert cutoff.index(np.int64(2), np.int32(3)) == 13

    @pytest.mark.parametrize("n_max", [32.5, 32.0, "32", None, True])
    def test_non_integer_cutoff_refused(self, n_max):
        # Unrefused, 32.5 would fail later with a bare TypeError, and True
        # would pass as 1; a table file's n_max reaches here on load.
        with pytest.raises(ValueError, match=f"n_max must be an integer >= 0, got {n_max!r}"):
            FockCutoff(n_max)

    def test_numpy_integer_cutoff_accepted(self):
        assert FockCutoff(np.int64(4)).dim == 5

    def test_diagonals_and_blocks_follow_the_index(self):
        # number, s_z and blocks read the layout that index() states.
        cutoff = FockCutoff(4)
        amps = np.arange(2 * cutoff.composite_dim, dtype=float).reshape(-1, 2)
        blocks = cutoff.blocks(amps)
        assert blocks.shape == (4, 5, 2) and np.shares_memory(blocks, amps)
        for q in range(4):
            for n in range(5):
                row = cutoff.index(q, n)
                assert cutoff.number[row, 0] == n
                assert cutoff.s_z[row, 0] == (1.0, 0.0, 0.0, -1.0)[q]
                np.testing.assert_array_equal(blocks[q, n], amps[row])
        assert cutoff.number.shape == cutoff.s_z.shape == (20, 1)
        assert cutoff.blocks(amps[:, 0]).shape == (4, 5, 1)


def assert_density_matrix(rho, atol=1e-10):
    """Hermitian, positive semidefinite, trace at most 1."""
    np.testing.assert_allclose(rho, rho.conj().T, atol=atol)
    assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -atol
    assert np.trace(rho).real <= 1.0 + max(atol, 1e-9)


class TestReducedState:
    def test_product_state_is_pure(self):
        cutoff = FockCutoff(14)
        qubit = np.array([0.6, 0.0, 0.0, 0.8j])
        phonon = displacement_matrix(0.5, cutoff.dim)[:, 0]
        obs = observables(np.kron(qubit, phonon), "gg", cutoff)
        rho = obs["rho"]
        assert_density_matrix(rho)
        assert obs["purity"] == pytest.approx(1.0, abs=1e-9)
        assert rho[0, 0].real == pytest.approx(0.36)
        assert rho[3, 3].real == pytest.approx(0.64)
        assert rho[0, 3] == pytest.approx(-0.48j)

    def test_entangled_state_purity_drops(self):
        cutoff = FockCutoff(1)
        amps = np.zeros(cutoff.composite_dim, dtype=complex)
        amps[cutoff.index(0, 0)] = 1 / math.sqrt(2)  # |gg,0>
        amps[cutoff.index(3, 1)] = 1 / math.sqrt(2)  # |ee,1>
        obs = observables(amps, "gg", cutoff)
        assert_density_matrix(obs["rho"])
        assert obs["purity"] == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_bounds(self):
        # Against the ideal gg output: 1 for that output, 0 for the ideal ee
        # output (orthogonal to it), 1/2 for the untouched input |gg, 0>.
        cutoff = FockCutoff(2)
        gg, ee = (ideal_output_state(label, 0, cutoff) for label in ("gg", "ee"))
        assert observables(gg, "gg", cutoff)["fidelity"] == pytest.approx(1.0, abs=1e-15)
        assert observables(ee, "gg", cutoff)["fidelity"] == pytest.approx(0.0, abs=1e-15)
        start = np.zeros(cutoff.composite_dim, dtype=complex)
        start[cutoff.index(0, 0)] = 1.0
        assert observables(start, "gg", cutoff)["fidelity"] == pytest.approx(0.5, abs=1e-15)


class TestThermal:
    def test_geometric_ratio(self):
        p = ThermalDistribution(0.2).probabilities
        assert (p >= 0).all()
        # Geometric ratio between successive levels.
        np.testing.assert_allclose(p[1:] / p[:-1], 0.2 / 1.2, atol=1e-12)

    def test_zero_temperature(self):
        assert ThermalDistribution(0.0).probabilities.tolist() == [1.0]

    def test_distribution_guards_tail(self):
        # n_max is the smallest n >= 4 with (n_bar / (1 + n_bar))^n <= 1e-9.
        for n_bar, n_max in ((0.0, 0), (0.01, 5), (0.05, 7), (0.5, 19), (2.0, 52)):
            dist = ThermalDistribution(n_bar)
            assert dist.n_max == n_max
            assert dist.probabilities.shape == (n_max + 1,)
            assert 1.0 - dist.probabilities.sum() <= 1e-9
        with pytest.raises(ValueError, match=r"n_bar must be >= 0, got -0\.1"):
            ThermalDistribution(-0.1)

    @pytest.mark.parametrize("n_bar", [math.nan, math.inf])
    def test_non_finite_refused(self, n_bar):
        with pytest.raises(ValueError, match="n_bar must be finite"):
            ThermalDistribution(n_bar)

    def test_level_ceiling(self):
        # Refused from the level count alone: 5e4 would need about 10^6 levels.
        with pytest.raises(ValueError, match=r"n_bar = 50000 needs 1\.04e\+06 Fock levels"):
            ThermalDistribution(5e4)
        assert ThermalDistribution(480.0).n_max == 9958

    @given(n_bar=st.floats(0.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_tail_within_budget(self, n_bar):
        assert 1.0 - ThermalDistribution(n_bar).probabilities.sum() <= 1e-9

    def test_level_weights(self):
        levels, weights = level_weights(3)
        assert list(levels) == [3] and list(weights) == [1.0]
        dist = ThermalDistribution(0.5)
        levels, weights = level_weights(dist)
        np.testing.assert_array_equal(levels, np.arange(dist.n_max + 1))
        assert weights is dist.probabilities

    def test_level_sum_runs_in_level_order(self):
        # Left to right: 1e16 + 1 rounds back to 1e16 before -1e16 cancels it.
        assert _level_sum(np.ones(3), np.array([1e16, 1.0, -1e16])) == 0.0
        assert _level_sum(np.ones(3), np.array([1e16, -1e16, 1.0])) == 1.0
        rows = np.array([[0.25, 1.5], [2.0, -3.0]])
        assert np.array_equal(_level_sum(np.array([0.5, 2.0]), rows), [4.125, -5.25])
        # A single weight of 1.0 returns its values exactly.
        values = np.array([[0.1, 1.0 / 3.0, -2.5e-300]])
        assert np.array_equal(_level_sum(np.array([1.0]), values), values[0])

    @given(
        n_bar=st.floats(0.0, 50.0),
        trailing=st.sampled_from([(), (3,), (4, 4)]),
        complex_values=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_level_sum_is_the_left_to_right_loop(self, n_bar, trailing, complex_values, seed):
        # Bit for bit the explicit loop, level 0 first, over a thermal
        # mode's weights and values of shape (levels,), (levels, k) and
        # (levels, 4, 4), real and complex; the mixed signs and scales
        # make any other order of the additions round differently.
        weights = ThermalDistribution(n_bar).probabilities
        rng = np.random.default_rng(seed)
        shape = (weights.size, *trailing)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        if complex_values:
            values = values + 1j * rng.standard_normal(shape)
        total = weights[0] * values[0]
        for weight, value in zip(weights[1:], values[1:]):
            total = total + weight * value
        result = _level_sum(weights, values)
        assert np.shape(result) == trailing
        assert np.asarray(result).dtype == values.dtype
        # The same bits, signed zeros included.
        assert np.array_equal(np.atleast_1d(result).view(np.uint64),
                              np.atleast_1d(total).view(np.uint64))

    def test_mode_is_a_value(self):
        # n_max and the weights follow n_bar once: a reassigned n_bar would
        # leave the 0.3 weights (n_max 15) under n_bar 2 (n_max 52).
        mode = ThermalDistribution(0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mode.n_bar = 2.0
        with pytest.raises(ValueError, match="read-only"):
            mode.probabilities[0] = 1.0
        assert mode.n_max == 15 and ThermalDistribution(2.0).n_max == 52
        np.testing.assert_array_equal(mode.probabilities, ThermalDistribution(0.3).probabilities)

    def test_modes_compare_and_hash_by_n_bar(self):
        assert ThermalDistribution(0.3) == ThermalDistribution(0.3)
        assert ThermalDistribution(0.3) != ThermalDistribution(2.0)
        assert hash(ThermalDistribution(0.3)) == hash(ThermalDistribution(0.3))
        assert len({ThermalDistribution(0.0), ThermalDistribution(0), ThermalDistribution(0.3)}) == 2

    @given(n_bar=st.floats(0.0, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_mean_occupation(self, n_bar):
        # The tail beyond n_max, at most 1e-9, costs the mean under 1e-8.
        dist = ThermalDistribution(n_bar)
        assert dist.probabilities @ np.arange(dist.n_max + 1) == pytest.approx(n_bar, abs=1e-7)


# Each scalar field of a value type: a builder of its owner from that field
# alone, and values the field takes.
_NUMBER_FIELDS = {
    "n_bar": (ThermalDistribution, st.floats(0.0, 5.0) | st.integers(0, 5)),
    "omega_tilde": (lambda v: DimensionlessGateParams(omega_tilde=v),
                    st.floats(0.05, 2.0) | st.integers(1, 3)),
    "tau_gate": (lambda v: DimensionlessGateParams(tau_gate=v),
                 st.floats(0.1, 20.0) | st.integers(1, 20)),
    "phi": (lambda v: DimensionlessGateParams(phi=v), st.floats(-4.0, 4.0) | st.integers(-3, 3)),
    "lambda_tilde": (SequenceConfig, st.floats(-0.5, 0.5) | st.just(0)),
}
_COUNT_FIELDS = {
    "n_max": (FockCutoff, st.integers(0, 120)),
    "mode": (lambda v: SequenceConfig(0.01, mode=v), st.integers(0, 40)),
    "phase_points": (lambda v: SequenceConfig(0.01, phase_points=v), st.integers(5, 64)),
    "shots": (lambda v: SequenceConfig(0.01, shots=v), st.integers(1, 10**6)),
    "cutoff_n_max": (lambda v: SequenceConfig(0.01, cutoff_n_max=v), st.integers(0, 200)),
}


def _same_value(built, field, kind):
    # Equal values with equal hashes, each field the plain Python number.
    assert all(value == built[0] for value in built)
    assert len({hash(value) for value in built}) == 1
    assert {type(getattr(value, field)) for value in built} == {kind}


class TestValueFieldsHoldNumbers:
    """A value keeps the number its input rule returns, so it compares,
    hashes and serialises the same however the caller wrote it."""

    @pytest.mark.parametrize("field", sorted(_NUMBER_FIELDS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_number_field_holds_a_float(self, field, data):
        build, values = _NUMBER_FIELDS[field]
        value = data.draw(values)
        # A Python number, a numpy scalar and a 0-d array.
        built = [build(v) for v in (value, np.asarray(value)[()], np.asarray(value))]
        _same_value(built, field, float)
        assert getattr(built[0], field) == value

    @pytest.mark.parametrize("field", sorted(_COUNT_FIELDS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_count_field_holds_an_int(self, field, data):
        build, values = _COUNT_FIELDS[field]
        value = data.draw(values)
        # A 0-d integer array is the count it holds, as a 0-d array is a number.
        built = [build(v) for v in (value, np.int64(value), np.int32(value), np.asarray(value))]
        _same_value(built, field, int)
        assert getattr(built[0], field) == value

    @pytest.mark.parametrize("value, shown", [(np.array(True), "True"), (np.array(6.0), "6.0")])
    @pytest.mark.parametrize("field", sorted(_COUNT_FIELDS))
    def test_count_field_refuses_a_0d_bool_or_float(self, field, value, shown):
        build, _ = _COUNT_FIELDS[field]
        with pytest.raises(ValueError, match=rf"^{field} must be an integer .*, got {shown}$"):
            build(value)

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("field", sorted(_NUMBER_FIELDS))
    def test_number_field_refuses_an_array(self, field, size):
        build, _ = _NUMBER_FIELDS[field]
        with pytest.raises(ValueError, match=rf"^{field} must be a single number, got \["):
            build(np.full(size, 0.25))

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("field", sorted(_COUNT_FIELDS))
    def test_count_field_refuses_an_array(self, field, size):
        # A count is an integer (a numpy integer too), never an array.
        build, _ = _COUNT_FIELDS[field]
        with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
            build(np.full(size, 6))

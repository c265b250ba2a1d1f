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

import json
import math
import re
from pathlib import Path

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
    load_coefficient_table,
    predict_coherence,
    predict_density_matrix,
    predict_fidelity,
    predict_phase,
    predict_populations,
    predict_purity,
    predicted_state,
    second_order_correction,
)
from quadrature import (
    SIGMA_Y_BASIS,
    first_order_traced_unitary,
    quadrature_table,
    second_order_tables,
    simpson,
    traced_unitary_factored,
    van_loan_derivatives,
)

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
                got = correction(label, n, table)
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

    @pytest.mark.parametrize("omega2, t, size, regime, bound", [
        (1.0, TAU, 41, "z == 0", 1e-13),
        (0.0999 / TAU, TAU, 41, "under", 1e-13),
        (0.1001 / TAU, TAU, 41, "over", 1e-13),
        (0.125, 2.0 * TAU, 41, "two loops", 1e-13),
        # Eight loops, w up to 6e3: the bound is the one the whole f[x, x, y]
        # needed, as its 1-D prefactor e^{-itx} carries the rounding of t*x
        # (4.6e-13 relative); the gap factors alone stay near 1e-14.
        (0.1001 / (8.0 * TAU), 8.0 * TAU, 121, "over", 1e-12),
    ], ids=["z-zero", "z-under-0.1", "z-over-0.1", "two-loops", "eight-loops-over-0.1"])
    def test_confluent_difference_matches_mpmath(self, omega2, t, size, regime, bound):
        # The gap factors of f[x, y] (the sinc) and of f[x, x, y] (phi2) of
        # e^{-itx} at the gaps of a spectrum, y - x = gap - offset for the
        # integer gaps below ``size`` and the offset +-omega^2, against
        # 30-digit arithmetic on the same floats.
        mpmath = pytest.importorskip("mpmath")
        gaps = np.arange(1.0 - size, size)
        for offset in (omega2, -omega2):
            w = np.abs(t * (gaps - offset)).min()
            assert {"z == 0": w == 0.0, "under": 0.099 < w < 0.1,
                    "over": 0.1 <= w < 0.101, "two loops": w > 1.0}[regime]
            sinc = magnus._divided_difference(gaps, offset, t)
            phi2 = magnus._confluent_difference(gaps, offset, t)
            with mpmath.workdps(30):
                for gap, got_sinc, got_phi2 in zip(gaps, sinc, phi2):
                    half = mpmath.mpf(t) * (mpmath.mpf(gap) - mpmath.mpf(offset)) / 2
                    z = -2j * half
                    want = complex(0.5 if z == 0 else (mpmath.exp(z) - 1 - z) / z**2)
                    assert abs(got_phi2 - want) <= bound * abs(want)
                    # f[x, y] = -it e^{-itx/2} e^{-ity/2} sinc, where the sinc is
                    # 1 at x == y (the derivative branch) and vanishes wherever
                    # t(x - y) is a nonzero multiple of 2 pi: it is held to
                    # ``bound`` of its largest value, 1.
                    want = float(1 if half == 0 else mpmath.sin(half) / half)
                    assert abs(got_sinc - want) <= bound

    def test_quadrature_ignored(self, table):
        other = compute_coefficient_table(n_max=table.n_max, quad=QuadratureSpec(64, 16))
        for name in ("i_table", "j1", "j2", "j3"):
            np.testing.assert_array_equal(getattr(other, name), getattr(table, name))
        assert other.provenance_hash != table.provenance_hash


class TestSectors:
    """The two parity sectors the spectral sums run over (magnus._Sector)."""

    def test_sz_couplings_split_by_sector(self):
        # S_z between the lam = 0 eigenvectors, branch by branch: displaced
        # |a, D(s omega)k> (a = ++, --) to idle |i, l> (i = +-, -+), with
        # D(-omega) from its own recurrence run.
        params, cutoff = DimensionlessGateParams(), FockCutoff(12)
        sp = magnus._spectrum(params, cutoff)
        size = sp.e_disp.size
        w = SIGMA_Y_BASIS
        z = w @ np.diag([1.0, 0.0, 0.0, -1.0]) @ w.conj().T
        disp = {0: displacement_matrix(params.omega_tilde, size),
                3: displacement_matrix(-params.omega_tilde, size)}
        coupling = {(a, i): z[a, i] * disp[a].conj().T for a in (0, 3) for i in (1, 2)}
        root2 = math.sqrt(2.0)
        for a in (0, 3):
            # The antisymmetric idle combination (|+-, l> - |-+, l>) / sqrt2.
            assert (coupling[a, 1] - coupling[a, 2] == 0).all()
        sym = {a: (coupling[a, 1] + coupling[a, 2]) / root2 for a in (0, 3)}
        parity = (-1.0) ** np.arange(size)
        for sigma, sector in zip((1.0, -1.0), sp.sectors):
            # <E_k|S_z|I_l>, E_k = (|++, D(omega)k> + sigma (-1)^k |--, D(-omega)k>) / sqrt2.
            e = (sym[0] + sigma * parity[:, None] * sym[3]) / root2
            assert (e[:, parity != sigma] == 0).all()
            np.testing.assert_array_equal(sector.e_idle, np.nonzero(parity == sigma)[0])
            assert np.abs(e[:, parity == sigma] - sector.b).max() <= 1e-15

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 5])
    def test_matches_van_loan_with_few_idle_inputs(self, n_max):
        # At n_max 0 the odd sector has no idle level under dim, and at
        # n_max 1 each sector has one.  Odd and even dim put either sector's
        # parity on the last table row, on the one-loop and two-loop gates.
        for loops in (1, 2):
            gate = DimensionlessGateParams.calibrated(loops)
            table = compute_coefficient_table(gate.omega_tilde, n_max, tau_gate=gate.tau_gate)
            gap, scale = _van_loan_gap(table, range(n_max + 1))
            assert gap <= 1e-13 * scale, loops


class TestComputeTable:
    def test_open_loop_rejected(self):
        with pytest.raises(ValueError, match="closed loops"):
            compute_coefficient_table(n_max=4, tau_gate=0.8 * TAU,
                                      quad=QuadratureSpec(64, 16))

    def test_one_spectrum_per_build(self, monkeypatch):
        calls = []
        spectrum = magnus._spectrum

        def counted(*args):
            calls.append(args)
            return spectrum(*args)

        monkeypatch.setattr(magnus, "_spectrum", counted)
        compute_coefficient_table(n_max=12)
        assert len(calls) == 1

    def test_standalone_tables_match_build(self, table):
        # Built alone, each order is the same table bit for bit.
        np.testing.assert_array_equal(
            compute_first_order_table(table.params, table.cutoff), table.i_table)
        for got, want in zip(compute_second_order_tables(table.params, table.cutoff),
                             (table.j1, table.j2, table.j3)):
            np.testing.assert_array_equal(got, want)

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
        # The one-loop range at n_max 24: the a_structure tail, taken
        # relative to max|a|, must not move it.
        assert np.flatnonzero(derived.trusted).tolist() == list(range(10))
        # Levels within the five-row guard band are never trusted.
        assert not derived.trusted[table.n_max - 4 :].any()
        with pytest.raises(TruncationError, match="not trusted"):
            derived.require_trusted(table.n_max)

    def test_tail_keys(self, derived):
        assert set(derived.tails) == {"c_gg", "c_ee", "c_eg", "b", "a_structure"}

    @pytest.mark.parametrize("gate", ["table", "two_loop_table"])
    def test_match_partial_trace_of_van_loan(self, request, gate):
        # An independent reduction: the Van Loan columns on |gg, n>, traced
        # over phonons to O(lam^2), read as predict_density_matrix reads its
        # scalars.  Three loops stay out: Van Loan's own roundoff reaches
        # 1.5e-12 there.
        table = request.getfixturevalue(gate)
        der = derived_scalars(table)
        dim, big = table.cutoff.dim, FockCutoff(table.n_max + 30)
        first, second = van_loan_derivatives(table.params, big)
        for n in np.flatnonzero(der.trusted):
            psi0 = ideal_output_state("gg", n, table.cutoff).reshape(4, dim)
            d1, d2 = (deriv[:, big.index(0, n)].reshape(4, big.dim)[:, :dim]
                      for deriv in (first, second))
            rho1 = psi0 @ d1.conj().T + d1 @ psi0.conj().T
            rho2 = d1 @ d1.conj().T + psi0 @ d2.conj().T + d2 @ psi0.conj().T
            traced = {"a": 2.0 * rho1[3, 0], "b": 2.0 * rho2[3, 0],
                      "c_gg": rho2[0, 0], "c_ee": rho2[3, 3], "c_eg": rho2[1, 1]}
            for name, got in traced.items():
                want = getattr(der, name)[n]
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, n)


class TestCorrectionStates:
    def test_first_order_parity_structure(self, table):
        n = 2
        psi1 = first_order_correction("gg", n, table).reshape(4, -1)
        dim = table.cutoff.dim
        m = np.arange(dim)
        even = (m - n) % 2 == 0
        for q in (0, 3):
            assert np.all(psi1[q][~even] == 0.0)
        for q in (1, 2):
            assert np.all(psi1[q][even] == 0.0)
            assert np.abs(psi1[q][~even]).max() > 0

    def test_second_order_cross_blocks(self, table):
        # A |gg,n> input leaves odd-parity second-order weight on the ge/eg
        # blocks; a |ge,n> input leaves odd-parity weight on gg/ee.
        psi2 = second_order_correction("gg", 1, table).reshape(4, -1)
        assert np.abs(psi2[1]).max() > 1e-3
        np.testing.assert_allclose(
            psi2[1], psi2[2], atol=1e-15
        )
        psi2_mid = second_order_correction("ge", 1, table).reshape(4, -1)
        assert np.abs(psi2_mid[0]).max() > 1e-3
        np.testing.assert_allclose(
            psi2_mid[0], -psi2_mid[3], atol=1e-15
        )

    def test_ee_mirrors_gg(self, table):
        # Swapping g<->e on both qubits swaps the roles of the gg/ee blocks
        # and flips the sign of the first-order diagonal pieces.
        n = 2
        gg1 = first_order_correction("gg", n, table).reshape(4, -1)
        ee1 = first_order_correction("ee", n, table).reshape(4, -1)
        np.testing.assert_allclose(
            ee1[3], -gg1[0], atol=1e-15
        )
        np.testing.assert_allclose(
            ee1[0], -gg1[3], atol=1e-15
        )

    def test_predicted_state_orders(self, table):
        # The lower orders are the public pieces: psi0 is the ideal output,
        # and the first-order state subtracts lam psi1.
        lam = 0.05
        psi0 = ideal_output_state("gg", 0, table.cutoff)
        psi1 = psi0 - lam * first_order_correction("gg", 0, table)
        psi2 = predicted_state("gg", 0, lam, table)
        np.testing.assert_allclose(predicted_state("gg", 0, 0.0, table), psi0)
        diff = np.linalg.norm(psi2 - psi1)
        assert diff == pytest.approx(
            lam**2 * np.linalg.norm(second_order_correction("gg", 0, table)), rel=1e-12
        )

    def test_predicted_state_refuses_lambda_array(self, table):
        # One state per call: a lambda array is refused by name, not left to
        # fail in numpy broadcasting.
        for lams in (np.array([0.01, 0.02]), [0.01], np.zeros((1, 1))):
            shape = re.escape(str(np.shape(lams)))
            with pytest.raises(ValueError, match=f"predicted_state takes one lambda_tilde, "
                                                 f"not an array of shape {shape}"):
                predicted_state("gg", 0, lams, table)

    def test_bad_label_and_level(self, table):
        with pytest.raises(ValueError, match="label"):
            first_order_correction("xx", 0, table)
        with pytest.raises(ValueError, match="outside"):
            second_order_correction("gg", table.n_max + 1, table)


class TestPredictors:
    def test_calibrated_point(self, table):
        assert predict_phase(0, 0.0, table) == pytest.approx(-math.pi / 2)
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
        assert isinstance(rho, np.ndarray) and rho.shape == (4, 4)
        pops = predict_populations(n, lam, table)
        np.testing.assert_allclose(np.diag(rho).real, pops, atol=1e-15)
        assert rho[3, 0] == predict_coherence(n, lam, table)
        assert predict_density_matrix(n, lam, table, "ee")[0, 3] == predict_coherence(
            n, lam, table, "ee"
        )
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)
        renorm = rho / np.trace(rho).real
        assert np.trace(renorm).real == pytest.approx(1.0, abs=1e-14)

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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda(self, table, lam):
        with pytest.raises(ValueError, match="lambda_tilde must be finite"):
            predict_phase(0, lam, table)

    def test_untrusted_level_refused(self, table):
        with pytest.raises(TruncationError):
            predict_populations(table.n_max - 1, 0.01, table)
        # A thermal mode reaching past the table meets its untrusted rows.
        assert ThermalDistribution(2.0).n_max > table.n_max
        with pytest.raises(TruncationError):
            predict_fidelity(ThermalDistribution(2.0), 0.01, table)

    def test_bad_initial(self, table):
        # Every predictor with an ``initial`` covers the displaced pairs only.
        for predictor in (predict_phase, predict_populations, predict_coherence,
                          predict_density_matrix):
            for initial in ("ge", "eg"):
                with pytest.raises(ValueError, match=f"covers 'gg' and 'ee' inputs, "
                                                     f"not '{initial}'"):
                    predictor(0, 0.01, table, initial=initial)

    @pytest.mark.parametrize("predictor", [predict_phase, predict_populations,
                                           predict_coherence, predict_density_matrix])
    def test_unknown_label_refused(self, table, predictor):
        with pytest.raises(ValueError, match="unknown qubit label 'xx'"):
            predictor(0, 0.01, table, initial="xx")


class TestPredictorGrid:
    """Every predictor over a (level x lambda) grid: shape ``np.shape(n) +
    np.shape(lambda_tilde)``, each entry the scalar call's value."""

    LEVELS = list(range(24))
    LAMS = np.concatenate([np.linspace(-0.5, 0.5, 21), [-0.0371, 0.0023, 0.1234]])

    @pytest.fixture(scope="class")
    def table40(self):
        table = compute_coefficient_table(n_max=40)
        assert table.derived().trusted[self.LEVELS].all()
        return table

    @pytest.mark.parametrize("initial", ["gg", "ee"])
    def test_grid_entries_equal_point_calls(self, table40, initial):
        assert {0.0, -0.5, 0.5} <= set(self.LAMS.tolist())
        labelled = (predict_phase, predict_populations, predict_coherence,
                    predict_density_matrix)
        for predictor in (*labelled, predict_fidelity, predict_purity):
            extra = (initial,) if predictor in labelled else ()
            grid = predictor(self.LEVELS, self.LAMS, table40, *extra)
            assert grid.shape[:2] == (len(self.LEVELS), self.LAMS.size)
            for i, n in enumerate(self.LEVELS):
                for k, lam in enumerate(self.LAMS.tolist()):
                    point = predictor(n, lam, table40, *extra)
                    assert np.array_equal(grid[i, k], point), (predictor.__name__, n, lam)

    @pytest.mark.parametrize("initial", ["gg", "ee"])
    def test_fidelity_is_target_overlap(self, table40, initial):
        rho = predict_density_matrix(self.LEVELS, self.LAMS, table40, initial)
        target = ideal_output_state(initial, 0, FockCutoff(0))
        overlap = np.einsum("i,...ij,j->...", target.conj(), rho, target)
        fid = predict_fidelity(self.LEVELS, self.LAMS, table40)
        assert np.abs(overlap.imag).max() <= 1e-15
        assert np.abs(overlap.real - fid).max() <= 1e-15

    def test_shapes_and_scalars(self, table40):
        lams = self.LAMS[:5]
        assert predict_populations([0, 3], lams, table40).shape == (2, 5, 4)
        assert predict_density_matrix([0, 3], lams, table40).shape == (2, 5, 4, 4)
        assert predict_phase(2, lams, table40).shape == (5,)
        assert predict_populations(2, 0.01, table40).shape == (4,)
        assert predict_phase([0, 3], lams, table40, "ee").shape == (2, 5)
        for value in (predict_phase(2, 0.01, table40), predict_fidelity(2, 0.01, table40),
                      predict_purity(2, 0.01, table40), predict_coherence(2, 0.01, table40)):
            assert isinstance(value, np.generic)
        dist = ThermalDistribution(0.05)
        thermal = predict_phase(dist, lams, table40)
        assert thermal.shape == (5,)
        for k, lam in enumerate(lams.tolist()):
            assert thermal[k] == pytest.approx(predict_phase(dist, lam, table40), abs=1e-15)

    def test_grid_checks_every_value(self, table40):
        with pytest.raises(ValueError, match="hard cap"):
            predict_purity([0, 1], [0.0, 0.51], table40)
        with pytest.raises(ValueError, match="must be finite"):
            predict_fidelity([0, 1], [0.0, math.nan], table40)
        with pytest.raises(TruncationError, match="Fock level 38"):
            predict_phase([0, 38, 39], 0.01, table40)
        with pytest.raises(ValueError, match="Fock level"):
            predict_purity(ThermalDistribution(0.05), 0.01, table40)


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


# The keys of a table file, and of its parameter dict.
FILE_KEYS = {"schema", "package_version", "params", "provenance_sha256", "derived"}
PARAM_KEYS = ["n_max", "omega_tilde", "tau_gate", "phi", "pulse", "panels_1d", "panels_2d"]


def _saved_doc(table, path) -> dict:
    table.save(path)
    return json.loads(path.read_text())


class TestPersistence:
    def test_round_trip(self, table, tmp_path):
        path = tmp_path / "table.json"
        table.save(path)
        loaded = load_coefficient_table(path)
        # The load rebuilds the tables from the stored parameters.
        for name in ("i_table", "j1", "j2", "j3"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(table, name))
        assert loaded.params == table.params
        assert loaded.provenance_hash == table.provenance_hash

    @pytest.mark.parametrize("n_max", [0, 8, 24, 40])
    @pytest.mark.parametrize("loops", [1, 2, 3, 4, 6, 8])
    def test_round_trip_over_gates(self, tmp_path, loops, n_max):
        # The file holds the five keys only, and its load gives every table
        # entry and derived scalar of a fresh build bit for bit.
        gate = DimensionlessGateParams.calibrated(loops)
        built = compute_coefficient_table(gate.omega_tilde, n_max, tau_gate=gate.tau_gate)
        path = tmp_path / "table.json"
        assert set(_saved_doc(built, path)) == FILE_KEYS
        loaded = load_coefficient_table(path)
        for name in ("i_table", "j1", "j2", "j3"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(built, name))
        got, want = loaded.derived(), built.derived()
        for name in ("a", "b", "c_gg", "c_ee", "c_eg", "trusted"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.tails.keys() == want.tails.keys()
        for name in want.tails:
            np.testing.assert_array_equal(got.tails[name], want.tails[name])
        assert got.structure_residual == want.structure_residual
        assert loaded.provenance_hash == built.provenance_hash

    def test_schema_3_file_refused(self):
        # Written by an earlier msgate ('msgate coefficients --loops 3
        # --n-max 8'), with the four tables stored as base64.  Its stored
        # c_gg is also 1.7e-12 relative off a rebuild by this version.
        path = Path(__file__).parent / "data" / "coefficients_k3_n8_schema3.json"
        with pytest.raises(ValueError, match="'msgate/coefficients/3'.*msgate coefficients"):
            load_coefficient_table(path)

    def test_byte_reproducible(self, table, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        table.save(p1)
        table.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        load_coefficient_table(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("n_max, loops", [(0, 1), (12, 1), (40, 1), (12, 2)])
    def test_text_is_the_json_encoding(self, tmp_path, n_max, loops):
        # The file is the compact, key-sorted json.dumps of its own content,
        # and the digest it returns the table's.
        gate = DimensionlessGateParams.calibrated(loops)
        table = compute_coefficient_table(gate.omega_tilde, n_max, tau_gate=gate.tau_gate)
        path = tmp_path / "table.json"
        assert table.save(path) == table.provenance_hash
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    def test_failed_write_leaves_nothing(self, table, tmp_path, monkeypatch):
        # The temporary file is written in full, then the rename fails.
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(magnus.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            table.save(tmp_path / "table.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", PARAM_KEYS)
    def test_tampered_parameters_rejected(self, table, tmp_path, key):
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        assert list(doc["params"]) == sorted(PARAM_KEYS)  # every key is covered
        value = doc["params"][key]
        doc["params"][key] = value + ("-shaped" if isinstance(value, str) else 1)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="provenance hash does not match its parameters"):
            load_coefficient_table(path)

    @pytest.mark.parametrize("key, value, error, message", [
        ("phi", 0.25, ValueError, "parameters are not those"),
        ("pulse", "gaussian", ValueError, "parameters are not those"),
        ("spare", 1, ValueError, "parameters are not those"),
        ("omega_tilde", 0.5 + 1e-9, ValueError, "derived 'a'"),
        ("n_max", 23, ValueError, "derived 'a'"),
        ("n_max", 24.5, ValueError, "n_max must be an integer, got 24.5"),
        ("n_max", "24", ValueError, "entry of the wrong type"),
        ("n_max", 150, ValueError, "Fock margin"),
        ("panels_1d", 100, ValueError, "power of two"),
        ("omega_tilde", 0.4, UnhealthyTableError, "structure residual"),
    ], ids=["phi", "pulse", "extra-key", "omega", "n_max", "n_max-fraction",
            "n_max-string", "n_max-range", "panels", "off-line"])
    def test_redigested_parameters_checked(self, table, tmp_path, key, value, error,
                                           message):
        # A file whose parameters were changed and whose digest was
        # recomputed to match is refused by the rebuild: by its parameter
        # dict, its own checks, its health or the stored scalars.
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        doc["params"][key] = value
        doc["provenance_sha256"] = magnus._digest(doc["params"])
        path.write_text(json.dumps(doc))
        with pytest.raises(error, match=message):
            load_coefficient_table(path)

    @pytest.mark.parametrize(
        "block, field, entry, name",
        [
            ("derived", "a", (0,), "'a'"),
            ("derived", "b", ("im", 3), "'b'"),
            ("derived", "c_gg", (2,), "'c_gg'"),
            ("derived", "c_ee", (5,), "'c_ee'"),
            ("derived", "c_eg", (1,), "'c_eg'"),
            ("derived", "trusted", (0,), "'trusted'"),
        ],
    )
    def test_tampered_content_rejected(self, table, tmp_path, block, field, entry, name):
        # The stored derived block is compared with the scalars of the
        # rebuilt tables: 1e-9 relative is far past the 1e-12 allowed, and
        # 'trusted' must match exactly.
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        stored = doc[block][field]
        for key in entry[:-1]:
            stored = stored[key]
        stored[entry[-1]] *= 1.0 + 1e-9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"derived {name}"):
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

    def test_non_finite_entry_rejected(self, table, tmp_path):
        # A nan compares false with everything: a stored nan is refused like
        # any other wrong scalar, not waved through.
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        doc["derived"]["c_gg"][3] = math.nan
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="derived 'c_gg'"):
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
        assert TABLE_SCHEMA == "msgate/coefficients/4"
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        doc["schema"] = "msgate/coefficients/1"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'msgate/coefficients/1'.*msgate coefficients"):
            load_coefficient_table(path)

    def test_schema_2_file_rejected(self, table, tmp_path):
        # Version-2 files store the tables as nested float lists.
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        doc["schema"] = "msgate/coefficients/2"
        doc["tables"] = {
            key: {"re": arr.real.tolist(), "im": arr.imag.tolist()}
            for key, arr in [("i", table.i_table), ("j1", table.j1),
                             ("j2", table.j2), ("j3", table.j3)]
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'msgate/coefficients/2'.*msgate coefficients"):
            load_coefficient_table(path)

    def test_wrong_schema_rejected(self, table, tmp_path):
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        doc["schema"] = "msgate/coefficients/999"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            load_coefficient_table(path)

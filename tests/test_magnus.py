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

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import msgate.magnus as magnus
from msgate.experiment import effective_phase_slope
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
    load_coefficient_table,
    predict_coherence,
    predict_density_matrix,
    predict_fidelity,
    predict_phase,
    predict_populations,
    predict_purity,
    predicted_state,
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

    @pytest.mark.parametrize("panels", [4.0, "64"])
    def test_rejects_non_integer_panels(self, panels):
        # Unrefused, these ended in a bare TypeError.
        with pytest.raises(ValueError, match=f"panels_1d must be an integer >= 2, got {panels!r}"):
            QuadratureSpec(panels, 4)

    def test_simpson_integrates_cubics_exactly(self):
        x, w = simpson(8, 0.0, 2.0)
        assert w @ x**3 == pytest.approx(4.0, abs=1e-13)
        x, w = simpson(128, 0.0, 2.0)
        assert w @ np.exp(x) == pytest.approx(np.exp(2.0) - 1.0, rel=1e-10)


class TestFirstOrderTable:
    def test_structure_line(self, table):
        # Every entry lies on the (-1 + i) ray: Re + Im = 0 identically.
        assert table.derived().structure_residual < 1e-12
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

    @staticmethod
    def _transpose_gap(table) -> float:
        """Largest departure of j1, j2 and j3 from their transpose symmetries,
        relative to each table's largest entry.  With the lam = 0 hops real,
        j1 and j3 are complex-symmetric and j2[m, n] = (-1)^(m - n) j2[n, m]."""
        dim = table.cutoff.dim
        sign = (-1.0) ** np.add.outer(np.arange(dim), np.arange(dim))
        return max(float(np.abs(j - s * j.T).max() / np.abs(j).max())
                   for j, s in ((table.j1, 1.0), (table.j2, sign), (table.j3, 1.0)))

    @pytest.mark.parametrize("loops", [1, 2, 3, 8])
    def test_transpose_symmetries(self, loops):
        gate = DimensionlessGateParams.calibrated(loops)
        table = compute_coefficient_table(gate.omega_tilde, 24, tau_gate=gate.tau_gate)
        assert self._transpose_gap(table) <= 1e-15

    def test_transpose_symmetries_by_quadrature(self):
        # The integral definitions meet them too, to the quadrature's accuracy.
        table = quadrature_table(n_max=16, quad=QuadratureSpec(2**12, 2**8))
        assert self._transpose_gap(table) <= 1e-8

    def test_j3_parity_zeros(self, table):
        parity = np.add.outer(
            np.arange(table.cutoff.dim), -np.arange(table.cutoff.dim)
        ) % 2
        assert np.all(table.j3[parity == 1] == 0.0)


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
            for order, deriv in ((1, first), (2, second)):
                want = -deriv[:, col].reshape(4, big.dim)[:, :dim].ravel()
                got = magnus._column(label, order, n, table)
                gaps.append(np.abs(got - want).max())
                scales.append(np.abs(want).max())
    return float(np.max(gaps)), float(np.max(scales))  # np.max keeps a nan


def _spectral_table(params, cutoff):
    """The library's tables for any closed loop, without the calibrated defaults."""
    sp = magnus._spectrum(params, cutoff)
    return CoefficientTable(
        params, cutoff, QuadratureSpec(),
        compute_first_order_table(cutoff, spectrum=sp),
        *compute_second_order_tables(cutoff, spectrum=sp),
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
            # The displaced side's phi2 is read as the conjugate of the idle
            # side's: flipping the gaps and the offset flips w exactly.
            np.testing.assert_array_equal(magnus._confluent_difference(-gaps, -offset, t),
                                          np.conj(phi2))
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

    def test_quadrature_ignored(self, table, tmp_path):
        # The panel counts change no entry, so they name neither the table
        # nor its file.
        other = compute_coefficient_table(n_max=table.n_max, quad=QuadratureSpec(64, 16))
        for name in ("i_table", "j1", "j2", "j3"):
            np.testing.assert_array_equal(getattr(other, name), getattr(table, name))
        assert other.provenance_hash == table.provenance_hash
        default = compute_coefficient_table(n_max=table.n_max)
        other.save(tmp_path / "coarse.json")
        default.save(tmp_path / "default.json")
        assert (tmp_path / "coarse.json").read_bytes() == (tmp_path / "default.json").read_bytes()


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
            idle = np.nonzero(parity == sigma)[0]
            assert (sector.rows.start, sector.rows.step) == (idle[0], 2)
            assert sector.below == np.count_nonzero(idle < cutoff.dim)
            assert np.abs(e[:, parity == sigma] - sector.b).max() <= 1e-15
            # Real hops: the builders use B's transpose as the hop back.
            assert (sector.b.imag == 0).all()

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

    def test_one_confluent_difference_per_build(self, monkeypatch):
        # The displaced side's phi2 is the conjugate of the idle side's.
        calls = []
        confluent = magnus._confluent_difference

        def counted(*args):
            calls.append(args)
            return confluent(*args)

        monkeypatch.setattr(magnus, "_confluent_difference", counted)
        compute_coefficient_table(n_max=12)
        assert len(calls) == 1

    def test_cutoff_overflow_guard(self):
        with pytest.raises(ValueError, match="Fock margin"):
            compute_coefficient_table(n_max=150)

    @pytest.mark.parametrize("n_max", ["x", None, 150.5, 24.0, True])
    def test_n_max_is_a_count(self, n_max):
        # The count rule comes before the range check: a string or None is
        # not compared with 120, and 150.5 is refused as a fraction.
        message = f"n_max must be an integer >= 0, got {n_max!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            compute_coefficient_table(n_max=n_max)

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
        # The one-loop range at n_max 24: the Fock-edge rule alone sets it.
        assert np.flatnonzero(derived.trusted).tolist() == list(range(10))
        # Levels within the five-row guard band are never trusted.
        assert not derived.trusted[table.n_max - 4 :].any()
        with pytest.raises(TruncationError, match="not trusted"):
            derived.require_trusted(table.n_max)

    def test_tail_keys(self, derived):
        # The four Fock sums; the line is check_health's, not a tail.
        assert set(derived.tails) == {"c_gg", "c_ee", "c_eg", "b"}

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
        psi1 = magnus._column("gg", 1, n, table).reshape(4, -1)
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
        psi2 = magnus._column("gg", 2, 1, table).reshape(4, -1)
        assert np.abs(psi2[1]).max() > 1e-3
        np.testing.assert_allclose(
            psi2[1], psi2[2], atol=1e-15
        )
        psi2_mid = magnus._column("ge", 2, 1, table).reshape(4, -1)
        assert np.abs(psi2_mid[0]).max() > 1e-3
        np.testing.assert_allclose(
            psi2_mid[0], -psi2_mid[3], atol=1e-15
        )

    def test_ee_mirrors_gg(self, table):
        # Swapping g<->e on both qubits swaps the roles of the gg/ee blocks
        # and flips the sign of the first-order diagonal pieces.
        n = 2
        gg1 = magnus._column("gg", 1, n, table).reshape(4, -1)
        ee1 = magnus._column("ee", 1, n, table).reshape(4, -1)
        np.testing.assert_allclose(
            ee1[3], -gg1[0], atol=1e-15
        )
        np.testing.assert_allclose(
            ee1[0], -gg1[3], atol=1e-15
        )

    def test_predicted_state_orders(self, table):
        # The lower orders are its pieces: psi0 is the ideal output, and the
        # first-order state subtracts lam psi1.
        lam = 0.05
        psi0 = ideal_output_state("gg", 0, table.cutoff)
        psi1 = psi0 - lam * magnus._column("gg", 1, 0, table)
        psi2 = predicted_state("gg", 0, lam, table)
        np.testing.assert_allclose(predicted_state("gg", 0, 0.0, table), psi0)
        diff = np.linalg.norm(psi2 - psi1)
        assert diff == pytest.approx(
            lam**2 * np.linalg.norm(magnus._column("gg", 2, 0, table)), rel=1e-12
        )

    def test_predicted_state_refuses_lambda_array(self, table):
        # One state per call: a lambda array is refused by name, not left to
        # fail in numpy broadcasting.
        for lams in (np.array([0.01, 0.02]), [0.01], np.zeros((1, 1))):
            with pytest.raises(ValueError, match="lambda_tilde must be a single number"):
                predicted_state("gg", 0, lams, table)

    def test_bad_label_and_level(self, table):
        with pytest.raises(ValueError, match="label"):
            magnus._column("xx", 1, 0, table)
        message = f"Fock level n must be an integer in 0..{table.n_max}"
        with pytest.raises(ValueError, match=message):
            magnus._column("gg", 2, table.n_max + 1, table)
        # Unrefused, True indexed the blocks as a mask: a (36, 1, 9) array.
        for order in (1, 2):
            with pytest.raises(ValueError, match="Fock level n must be an integer"):
                magnus._column("gg", order, True, table)


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

    @pytest.mark.parametrize("predictor", [
        lambda t: predict_phase(0, 0.01, t),
        lambda t: predict_fidelity(ThermalDistribution(0.1), 0.01, t),
        lambda t: predict_density_matrix([0, 1], [0.0, 0.01], t, "ee"),
        lambda t: effective_phase_slope(t, 0),
    ], ids=["phase", "thermal-fidelity", "grid", "slope"])
    def test_off_line_table_refused(self, predictor):
        # Every reader of the scalars checks the structure, as the CLI does:
        # the table is off its line, which no larger n_max mends.
        off = compute_coefficient_table(omega_tilde=0.4, n_max=24)
        with pytest.raises(UnhealthyTableError, match="structure residual") as exc:
            predictor(off)
        assert "n_max" not in str(exc.value)

    OFF_LINE_MESSAGE = (r"^structure residual \S+ takes the slopes \S+ of their size off the "
                        r"real axis, not below 1e-08; the first-order table is off its line$")

    def _refused_alike(self, delta, residual, off):
        near = compute_coefficient_table(omega_tilde=0.5 + delta, n_max=24)
        with pytest.raises(UnhealthyTableError, match=self.OFF_LINE_MESSAGE) as exc:
            near.check_health()
        message = str(exc.value)
        assert f"residual {residual} takes the slopes {off} " in message
        assert "n_max" not in message
        for reader in (lambda: predict_phase(0, 0.01, near),
                       lambda: effective_phase_slope(near, 0)):
            with pytest.raises(UnhealthyTableError) as exc:
                reader()
            assert str(exc.value) == message

    def test_near_line_table_blames_the_line(self):
        # 1e-7 off the calibrated coupling, twice the structure residual is
        # 3.1e-7 of the slopes (pi times the offset): check_health refuses
        # the table itself, and every reader of the scalars raises the same
        # message, which blames the line, not n_max.
        self._refused_alike(1e-7, "8.925e-07", "3.142e-07")

    def test_barely_off_line_table_refused(self):
        # Twice the structure residual (8.9e-8) is 3.1e-8 of the slopes, past
        # the 1e-8 tolerance, however small it is in absolute terms.
        self._refused_alike(1e-8, "8.925e-08", "3.142e-08")

    @pytest.mark.parametrize("loops, residual", [(10_000, 3.09e-6), (100_000, 8.84e-4)])
    def test_many_loop_table_served(self, loops, residual):
        # The slopes grow with the loop count (about 8K), and the structure
        # residual is read against them: twice it is 7.7e-11 of the slopes
        # at 10,000 loops and 2.2e-9 at 100,000, so the table is on its line.
        gate = DimensionlessGateParams.calibrated(loops)
        table = compute_coefficient_table(gate.omega_tilde, 24, tau_gate=gate.tau_gate)
        der = table.derived()
        assert der.structure_residual == pytest.approx(residual, rel=1e-2)
        table.check_health()
        assert der.trusted[0]
        want = -math.pi / 2 + 1e-7 * der.a[0] + 1e-7 * 1e-7 * der.b[0].real
        assert predict_phase(0, 1e-7, table) == want

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

    @pytest.mark.parametrize("lam", [True, 0.01j, "0.01"], ids=["bool", "complex", "str"])
    def test_non_real_lambda(self, table, lam):
        with pytest.raises(ValueError, match="lambda_tilde must be a real number"):
            predict_phase(0, lam, table)

    def test_two_dimensional_lambda_refused(self, table):
        with pytest.raises(ValueError, match="lambda_tilde must be a float or a 1-D array"):
            predict_fidelity(0, np.zeros((2, 2)), table)

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
    # Inside the expansion's domain, x = |lam| sqrt(kappa_n) <= 1/sqrt2, at
    # every level: level 0's kappa (12.48) serves |lam| up to 0.2001.
    LAMS = np.concatenate([np.linspace(-0.2, 0.2, 21), [-0.0371, 0.0023, 0.1234]])

    @pytest.fixture(scope="class")
    def table40(self):
        table = compute_coefficient_table(n_max=40)
        assert table.derived().trusted[self.LEVELS].all()
        return table

    @pytest.mark.parametrize("initial", ["gg", "ee"])
    def test_grid_entries_equal_point_calls(self, table40, initial):
        assert {0.0, -0.2, 0.2} <= set(self.LAMS.tolist())
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

    def test_grid_refuses_past_the_domain(self, table40):
        # The grid above reaches level 0's edge; at +-0.5 every predictor
        # refuses the whole call, naming the worst level and its x.
        der = table40.derived()
        reach = np.sqrt(0.5 / (0.5 * (der.b.imag - der.c_gg - der.c_ee)[self.LEVELS]))
        assert np.abs(self.LAMS).max() <= reach.min() == reach[0]
        labelled = (predict_phase, predict_populations, predict_coherence,
                    predict_density_matrix)
        for predictor in (*labelled, predict_fidelity, predict_purity):
            for initial in ("gg", "ee") if predictor in labelled else (None,):
                extra = (initial,) if initial else ()
                with pytest.raises(ValueError, match=r"= 0\.5 takes Fock level 0 to x = .* = 1\.767"):
                    predictor(self.LEVELS, [-0.5, 0.0, 0.5], table40, *extra)
                with pytest.raises(ValueError, match="thermal mode n_bar = 0.3 to x = "):
                    predictor(ThermalDistribution(0.3), [0.0, 0.5], table40, *extra)
        # Each level is served up to its own reach (or the 0.5 cap) and
        # refused just past it.
        for n in self.LEVELS:
            predict_fidelity(n, min(0.999 * reach[n], 0.5), table40)
            if 1.001 * reach[n] <= 0.5:
                with pytest.raises(ValueError, match=rf"Fock level {n} to x = .* = 0\.708,"):
                    predict_fidelity([n], [0.0, 1.001 * reach[n]], table40)

    def test_grid_checks_every_value(self, table40):
        with pytest.raises(ValueError, match="hard cap"):
            predict_purity([0, 1], [0.0, 0.51], table40)
        with pytest.raises(ValueError, match="must be finite"):
            predict_fidelity([0, 1], [0.0, math.nan], table40)
        with pytest.raises(TruncationError, match="Fock level 38"):
            predict_phase([0, 38, 39], 0.01, table40)

    def test_empty_level_list_gives_an_empty_grid(self, table40):
        # [] is a 1-D sequence of no levels, though numpy makes it float.
        lams = self.LAMS[:2]
        assert predict_phase([], lams, table40).shape == (0, 2)
        assert predict_populations([], lams, table40, "ee").shape == (0, 2, 4)
        assert predict_density_matrix([], 0.01, table40).shape == (0, 4, 4)
        for predictor in (predict_coherence, predict_fidelity, predict_purity):
            assert predictor([], lams, table40).shape == (0, 2)
        for levels in ([1.5], [[0]], [[]]):
            with pytest.raises(ValueError, match="takes a Fock level, a 1-D sequence"):
                predict_phase(levels, lams, table40)

    def test_thermal_mode_shapes(self, table40):
        # A thermal mode adds no axis: its outputs are those of its mixture.
        dist, lams = ThermalDistribution(0.3), self.LAMS[:5]
        assert predict_density_matrix(dist, lams, table40, "ee").shape == (5, 4, 4)
        assert predict_populations(dist, lams, table40).shape == (5, 4)
        assert predict_density_matrix(dist, 0.01, table40).shape == (4, 4)
        assert predict_populations(dist, 0.01, table40).shape == (4,)
        for predictor in (predict_coherence, predict_purity, predict_fidelity, predict_phase):
            assert predictor(dist, lams, table40).shape == (5,)
            assert isinstance(predictor(dist, 0.01, table40), np.generic)

    @pytest.mark.parametrize("mode", [3, [0, 5, 23], ThermalDistribution(0.3)],
                             ids=["level", "levels", "thermal"])
    @given(lam=st.one_of(st.floats(-0.2, 0.2),
                         st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=6).map(np.array)))
    @example(lam=0.0)
    @example(lam=-0.0)
    @example(lam=np.array([-0.0, 0.0, 1e-300, -0.2, 0.2]))
    @settings(max_examples=40, deadline=None)
    def test_ee_is_gg_at_minus_lambda_with_qubits_flipped(self, table40, mode, lam):
        # The gate's qubit-flip symmetry maps U(lam) to U(-lam) with both
        # qubits flipped: an |ee> prediction is the |gg> one at -lam, with
        # the qubit order reversed on each qubit axis, bit for bit (signed
        # zeros included).
        def bits(value):
            value = np.asarray(value)
            return value.dtype, value.shape, value.tobytes()

        for predictor, flip in ((predict_density_matrix, (-2, -1)), (predict_populations, -1),
                                (predict_coherence, ()), (predict_phase, ())):
            ee = predictor(mode, lam, table40, "ee")
            gg = np.flip(predictor(mode, -lam, table40, "gg"), flip)
            assert bits(ee) == bits(gg), predictor.__name__

    @pytest.mark.parametrize("n_bar", [0.05, 0.3])
    def test_thermal_ideal_point_exact(self, table40, n_bar):
        # The ideal constants are not summed with weights that fall short
        # of 1 by the mode's truncated tail.
        dist = ThermalDistribution(n_bar)
        assert predict_fidelity(dist, 0.0, table40) == 1.0
        assert predict_phase(dist, 0.0, table40) == -math.pi / 2
        assert predict_phase(dist, 0.0, table40, "ee") == -math.pi / 2


class TestTrustRegion:
    """Inside the expansion's domain, x = |lam| sqrt(kappa_n) <= 1/sqrt2,
    every served prediction is a probability."""

    @given(data=st.data(), loops=st.sampled_from([1, 2, 3, 4, 16, 100, 10**4]),
           initial=st.sampled_from(["gg", "ee"]), thermal=st.booleans(),
           fraction=st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_served_predictions_are_probabilities(self, loop_table, data, loops, initial,
                                                  thermal, fraction):
        # n_max 80 trusts every level of a thermal mode up to n_bar = 2 at
        # each loop count.
        table = loop_table(loops, 80)
        trusted = table.derived().trusted
        if thermal:
            mode = ThermalDistribution(data.draw(st.floats(0.05, 2.0), label="n_bar"))
            assume(trusted[:mode.n_max + 1].all())
        else:
            mode = data.draw(st.sampled_from(np.flatnonzero(trusted).tolist()), label="n")
        # The level's (or the mode's mean) kappa, and its reach.
        _, _, b, c_gg, c_ee, _ = magnus._scalars(mode, table)
        kappa = 0.5 * (b.imag - c_gg - c_ee)
        lam = fraction * min(LAMBDA_HARD_CAP, math.sqrt(0.5 / kappa))
        try:
            pops = predict_populations(mode, lam, table, initial)
            fidelity = predict_fidelity(mode, lam, table)
            purity = predict_purity(mode, lam, table)
        except ValueError:
            # Refused only where the reach rounds past the edge.
            assert lam * lam * kappa > 0.5
            return
        for value in (*pops, fidelity, purity):
            assert 0.0 <= value <= 1.0, (pops, fidelity, purity)


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
PARAM_KEYS = ["n_max", "omega_tilde", "tau_gate"]
# The keys a schema-4 parameter dict held beside them, none of which builds
# the table, at the values every schema-4 build wrote.
SCHEMA_4_KEYS = {"phi": 0.0, "pulse": "square", "panels_1d": 2**14, "panels_2d": 2**10}


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

    def test_numpy_parameters_save_as_numbers(self, tmp_path):
        # The table's values keep the Python numbers of their input rules,
        # so numpy parameters digest and serialise as plain ones.
        path = tmp_path / "table.json"
        compute_coefficient_table(np.float64(0.5), np.int64(8)).save(path)
        want = compute_coefficient_table(0.5, 8).provenance_hash
        assert load_coefficient_table(path).provenance_hash == want
        assert compute_coefficient_table(np.array(0.5), 8).provenance_hash == want

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

    def test_schema_4_file_refused(self):
        # Written by an earlier msgate ('msgate coefficients --loops 3
        # --n-max 24'), whose parameter dict also held phi, pulse and the
        # panel counts, none of which builds the table.
        path = Path(__file__).parent / "data" / "coefficients_k3_n24_schema4.json"
        with pytest.raises(ValueError, match="'msgate/coefficients/4'.*msgate coefficients"):
            load_coefficient_table(path)

    def test_schema_5_file_loads(self):
        # Written by 'msgate coefficients --loops 3 --n-max 24': a user's
        # file survives a change to the build that keeps its numbers.
        # K = 3 holds the 1e-12 stored-scalar check tightest.
        path = Path(__file__).parent / "data" / "coefficients_k3_n24_schema5.json"
        gate = DimensionlessGateParams.calibrated(3)
        built = compute_coefficient_table(gate.omega_tilde, 24, tau_gate=gate.tau_gate)
        loaded = load_coefficient_table(path)
        assert loaded.provenance_hash == built.provenance_hash
        assert json.loads(path.read_text())["provenance_sha256"] == built.provenance_hash
        np.testing.assert_array_equal(loaded.derived().trusted, built.derived().trusted)

    def test_cli_default_file_loads(self, tmp_path):
        # Written by 'msgate coefficients' at its defaults (n_max 40, one
        # loop), the file users hold most.  Its rebuild saves the same
        # derived block, every scalar to the bit (JSON floats round-trip).
        path = Path(__file__).parent / "data" / "coefficients_k1_n40_schema5.json"
        gate = DimensionlessGateParams.calibrated(1)
        built = compute_coefficient_table(gate.omega_tilde, 40, tau_gate=gate.tau_gate)
        loaded = load_coefficient_table(path)
        assert loaded.provenance_hash == built.provenance_hash
        loaded.save(tmp_path / "again.json")
        stored = json.loads(path.read_text())
        assert json.loads((tmp_path / "again.json").read_text())["derived"] == stored["derived"]

    @pytest.mark.parametrize("name", ["coefficients_k1_n40_schema5.json",
                                      "coefficients_k3_n24_schema5.json"])
    def test_committed_file_saves_back_byte_for_byte(self, tmp_path, name):
        # The stored scalars go out and come back through one field list and
        # one encoder/decoder pair: a file that msgate wrote loads and saves
        # back to the same bytes, not only the same derived block.
        path = Path(__file__).parent / "data" / name
        load_coefficient_table(path).save(tmp_path / name)
        assert (tmp_path / name).read_bytes() == path.read_bytes()

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

    @pytest.mark.parametrize("key", PARAM_KEYS + list(SCHEMA_4_KEYS))
    def test_tampered_parameters_rejected(self, table, tmp_path, key):
        # A parameter changed, or a schema-4 key added, without a new digest.
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        assert list(doc["params"]) == sorted(PARAM_KEYS)  # every key is covered
        if key in SCHEMA_4_KEYS:
            doc["params"][key] = SCHEMA_4_KEYS[key]
        else:
            doc["params"][key] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="provenance hash does not match its parameters"):
            load_coefficient_table(path)

    @pytest.mark.parametrize("key, value, error, message", [
        ("phi", 0.25, ValueError, "parameters are not those"),
        ("pulse", "gaussian", ValueError, "parameters are not those"),
        ("spare", 1, ValueError, "parameters are not those"),
        ("omega_tilde", 0.5 + 1e-9, ValueError, "derived 'a'"),
        ("n_max", 23, ValueError, "derived 'a'"),
        ("n_max", 24.5, ValueError, "n_max must be an integer >= 0, got 24.5"),
        ("n_max", "24", ValueError, "n_max must be an integer >= 0, got '24'"),
        ("n_max", 150, ValueError, "Fock margin"),
        ("panels_1d", 4096, ValueError, "parameters are not those"),
        # The structure is checked by the predictors, not on load: this file
        # is refused by its stored scalars, those of the on-line table.
        ("omega_tilde", 0.4, ValueError, "derived 'a'"),
    ], ids=["phi", "pulse", "extra-key", "omega", "n_max", "n_max-fraction",
            "n_max-string", "n_max-range", "panels", "off-line"])
    def test_redigested_parameters_checked(self, table, tmp_path, key, value, error,
                                           message):
        # A file whose parameters were changed and whose digest was
        # recomputed to match is refused by the rebuild: by its parameter
        # dict, its own checks or the stored scalars.
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
            ("derived", "tail_tolerance", (), "'tail_tolerance'"),
        ],
    )
    def test_tampered_content_rejected(self, table, tmp_path, block, field, entry, name):
        # The stored derived block is compared with the scalars of the
        # rebuilt tables: 1e-9 relative is far past the 1e-12 allowed, and
        # 'trusted' and the tail tolerance it depends on must match exactly.
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        stored, key = doc[block], field
        for index in entry:
            stored, key = stored[key], index
        stored[key] *= 1.0 + 1e-9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"derived {name}"):
            load_coefficient_table(path)

    @pytest.mark.parametrize("value", [0.5, "x", None, "missing"])
    def test_tail_tolerance_checked(self, table, tmp_path, value):
        # 'trusted' is computed at the build's tail tolerance, so a file that
        # states another one, or none, is refused.
        path = tmp_path / "table.json"
        doc = _saved_doc(table, path)
        if value == "missing":
            del doc["derived"]["tail_tolerance"]
        else:
            doc["derived"]["tail_tolerance"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'tail_tolerance'"):
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

    @pytest.mark.parametrize("content", [b"\x80\xff", b'{"schema": ', b"[" * 100_000, b"[1]"])
    def test_unreadable_content_names_the_file(self, tmp_path, content):
        # Undecodable bytes, truncated JSON, nesting past the decoder's
        # recursion limit and a non-object alike.
        path = tmp_path / "t.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^coefficient file {re.escape(str(path))} is not"):
            load_coefficient_table(path)

    def test_off_line_table_rejected(self, tmp_path):
        # omega_tilde 0.4 closes the loop with the wrong area; the library
        # builds, saves and loads such a table, and its predictors refuse it.
        off = compute_coefficient_table(omega_tilde=0.4, n_max=8,
                                        quad=QuadratureSpec(64, 16))
        path = tmp_path / "table.json"
        off.save(path)
        loaded = load_coefficient_table(path)
        assert loaded.provenance_hash == off.provenance_hash
        with pytest.raises(UnhealthyTableError, match="structure residual"):
            predict_phase(0, 0.01, loaded)
        with pytest.raises(UnhealthyTableError, match="structure residual"):
            loaded.check_health()

    @pytest.mark.parametrize("name", ["i_table", "j1", "j2", "j3"])
    def test_non_finite_table_unhealthy(self, table, name):
        entries = getattr(table, name).copy()
        entries[2, 1] = math.nan
        with pytest.raises(UnhealthyTableError, match=f"table {name} has non-finite entries"):
            dataclasses.replace(table, **{name: entries})

    @pytest.mark.parametrize("name", ["i_table", "j1", "j2", "j3"])
    def test_inf_entry_refused_at_construction(self, table, name):
        # Refused before the reduction, which would first warn ("invalid
        # value encountered") on an inf.
        entries = getattr(table, name).copy()
        entries[2, 1] = math.inf
        with pytest.raises(UnhealthyTableError, match=f"table {name} has non-finite entries"):
            dataclasses.replace(table, **{name: entries})

    @pytest.mark.parametrize("name", ["i_table", "j1", "j2", "j3"])
    def test_tables_are_read_only(self, name):
        # The scalars are reduced once, at construction, so the tables
        # they came from cannot change after it.
        table = compute_coefficient_table(n_max=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table, name, 2.0 * getattr(table, name))
        with pytest.raises(ValueError, match="read-only"):
            getattr(table, name)[0, 0] = 0.0
        assert table.derived() is table.derived()

    def test_scalars_are_read_only(self):
        # A write into a table's scalars would move every later prediction.
        der = compute_coefficient_table(n_max=8).derived()
        for values in (der.a, der.b, der.c_gg, der.c_ee, der.c_eg, der.trusted,
                       *der.tails.values()):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            der.a = np.zeros_like(der.a)

    def test_tails_are_read_only(self):
        der = compute_coefficient_table(n_max=8).derived()
        with pytest.raises(TypeError):
            der.tails["b"] = None
        with pytest.raises(TypeError):
            del der.tails["b"]
        assert set(der.tails) == {"c_gg", "c_ee", "c_eg", "b"}

    def test_table_hashes_by_identity(self, table):
        # Its arrays have no single truth value, so a table compares and
        # hashes as one object: a set or a dict key holds it.
        other = compute_coefficient_table(n_max=table.n_max)
        assert table == table and table != other
        assert {table, table} == {table} and len({table, other}) == 2
        assert hash(table) == hash(table)

    def test_replace_reduces_its_own_scalars(self, table):
        # The scalars are no init field, so a copy with other tables
        # reduces its own instead of carrying the original's across.
        doubled = dataclasses.replace(table, i_table=2.0 * table.i_table)
        np.testing.assert_array_equal(doubled.derived().a, derived_scalars(doubled).a)
        np.testing.assert_array_equal(doubled.derived().a, 2.0 * table.derived().a)

    def test_schema_1_file_rejected(self, table, tmp_path):
        # Version-1 files hold quadrature tables; the message says how to
        # replace them.
        assert TABLE_SCHEMA == "msgate/coefficients/5"
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

"""Closed-form predictors against the independent RK4 integrator.

These are spot checks at single operating points; the acceptance suite runs
the full grids with the advertised tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgate.magnus as magnus
from msgate.hilbert import FockCutoff, ThermalDistribution
from msgate.ideal import DimensionlessGateParams, ideal_output_state, relative_phase_pair
from msgate.magnus import (
    compute_coefficient_table,
    predict_coherence,
    predict_fidelity,
    predict_phase,
    predict_populations,
    predict_purity,
    predicted_state,
)
from msgate.oracle import _basis_columns, observables, propagate_batch, sweep


def _oracle_states(table, oracle_cutoff, fast_integrator, label, n, lams):
    cut = oracle_cutoff
    amps = np.zeros((cut.composite_dim, len(lams)), dtype=complex)
    q = ["gg", "ge", "eg", "ee"].index(label)
    amps[cut.index(q, n), :] = 1.0
    final, drift, guard = propagate_batch(
        amps, cut, table.params, np.asarray(lams), fast_integrator
    )
    assert drift.max() < 1e-9 and guard < 1e-10
    return final


class TestScalarPredictors:
    @pytest.mark.parametrize("n", [0, 2])
    def test_second_order_point(self, table, oracle_cutoff, fast_integrator, n):
        lam = 0.02
        final = _oracle_states(table, oracle_cutoff, fast_integrator, "gg", n, [lam])
        obs = observables(final[:, 0], "gg", oracle_cutoff)
        assert predict_phase(n, lam, table) == pytest.approx(
            obs["relative_phase"], abs=5e-5
        )
        # P(gg) at n=0 has a near-zero quadratic coefficient, so the cubic
        # remainder (~lam^3 * 9) sets the floor here.
        np.testing.assert_allclose(
            predict_populations(n, lam, table), obs["populations"], atol=1e-4
        )
        assert predict_fidelity(n, lam, table) == pytest.approx(
            obs["fidelity"], abs=5e-5
        )
        # One-sided comparison keeps the odd-order remainder; purity's cubic
        # coefficient is O(20), so allow lam^3 * 25 here.
        assert predict_purity(n, lam, table) == pytest.approx(
            obs["purity"], abs=2.5e-4
        )
        row, col = relative_phase_pair("gg")
        assert predict_coherence(n, lam, table) == pytest.approx(
            complex(obs["rho"][row, col]), abs=5e-4
        )

    def test_ee_input_mirror(self, table, oracle_cutoff, fast_integrator):
        lam, n = 0.02, 1
        final = _oracle_states(table, oracle_cutoff, fast_integrator, "ee", n, [lam])
        obs = observables(final[:, 0], "ee", oracle_cutoff)
        assert predict_phase(n, lam, table, initial="ee") == pytest.approx(
            obs["relative_phase"], abs=5e-5
        )
        np.testing.assert_allclose(
            predict_populations(n, lam, table, initial="ee"),
            obs["populations"],
            atol=5e-5,
        )

    @pytest.mark.parametrize("lam", [-0.01, 0.01])
    def test_ee_coherence_sign(self, table, oracle_cutoff, fast_integrator, lam):
        # The first-order term of an |ee> coherence has the sign opposite to
        # a |gg> one's.  The angles at both signs of lam differ by 2 lam a_0
        # (about 0.11), so a flipped sign misses the oracle by that much.
        final = _oracle_states(table, oracle_cutoff, fast_integrator, "ee", 0, [lam])
        obs = observables(final[:, 0], "ee", oracle_cutoff)
        coherence = predict_coherence(0, lam, table, initial="ee")
        assert np.angle(coherence) == pytest.approx(obs["relative_phase"], abs=1e-3)

    def test_first_order_slope(self, table, derived, oracle_cutoff, fast_integrator):
        h, n = 0.01, 1
        final = _oracle_states(
            table, oracle_cutoff, fast_integrator, "gg", n, [-h, h]
        )
        phases = observables(final, "gg", oracle_cutoff)["relative_phase"]
        slope = (phases[1] - phases[0]) / (2 * h)
        assert slope == pytest.approx(derived.a[n], rel=1e-3)


class TestStateResidualScaling:
    @pytest.mark.parametrize("label,n", [("gg", 0), ("ge", 1)])
    def test_orders(self, table, oracle_cutoff, fast_integrator, label, n):
        lams = np.array([0.02, 0.04, 0.08])
        final = _oracle_states(table, oracle_cutoff, fast_integrator, label, n, lams)
        pad = oracle_cutoff.composite_dim - table.cutoff.composite_dim

        states = {
            1: lambda lam: (ideal_output_state(label, n, table.cutoff)
                            - lam * magnus._column(label, 1, n, table)),
            2: lambda lam: predicted_state(label, n, lam, table),
        }
        slopes = {}
        for order, state in states.items():
            residuals = []
            for j, lam in enumerate(lams):
                pred = state(float(lam))
                padded = np.pad(pred.reshape(4, -1), ((0, 0), (0, pad // 4))).ravel()
                residuals.append(np.linalg.norm(final[:, j] - padded))
            slopes[order] = np.polyfit(np.log(lams), np.log(residuals), 1)[0]

        # Neglected terms are one order higher than the kept expansion.
        assert 1.7 < slopes[1] < 2.3
        assert 2.6 < slopes[2] < 3.3
        assert slopes[2] > slopes[1]


class TestManyLoops:
    def test_300_loop_slopes_trusted_and_match_oracle(self):
        # a grows with the loop count (a_0 = 2398 here), and so does the
        # rounding in its imaginary part; relative to |a| it stays at
        # 4e-12, so the low levels stay trusted.
        gate = DimensionlessGateParams.calibrated(300)
        table = compute_coefficient_table(
            omega_tilde=gate.omega_tilde, tau_gate=gate.tau_gate, n_max=24
        )
        der = table.derived()
        assert der.trusted[:3].all()
        cutoff, h = FockCutoff(16), 1e-7
        pairs = [(n, lam) for n in range(3) for lam in (-h, h)]
        amps = np.zeros((cutoff.composite_dim, len(pairs)), dtype=complex)
        for j, (n, _) in enumerate(pairs):
            amps[cutoff.index(0, n), j] = 1.0
        final, _, _ = propagate_batch(
            amps, cutoff, table.params, np.array([lam for _, lam in pairs])
        )
        phase = observables(final, "gg", cutoff)["relative_phase"].reshape(3, 2)
        slopes = (phase[:, 1] - phase[:, 0]) / (2.0 * h)
        np.testing.assert_allclose(slopes, der.a[:3], rtol=1e-6)


class TestThermalMixture:
    """A thermal mode's predictors against the oracle's mixture
    rho = sum_n p_n rho_n of its levels' reduced states.  Every predictor
    evaluated at the mode's mean scalars misses it at O(lt^3); the mean of
    the levels' purities is not the mixture's purity and misses at O(lt^2)."""

    LTS = np.array([0.0025, 0.01, 0.03])

    @pytest.fixture(scope="class", params=[1, 2], ids=["K1", "K2"])
    def table80(self, request):
        gate = DimensionlessGateParams.calibrated(request.param)
        return compute_coefficient_table(omega_tilde=gate.omega_tilde,
                                         tau_gate=gate.tau_gate, n_max=80)

    @pytest.mark.parametrize("n_bar", [0.05, 0.3, 2.0])
    def test_matches_oracle_mixture(self, table80, n_bar):
        dist, cutoff, lts = ThermalDistribution(n_bar), FockCutoff(88), self.LTS
        levels, weights = np.arange(dist.n_max + 1), dist.probabilities
        amps = np.repeat(_basis_columns(0, levels, cutoff), lts.size, axis=1)
        final, _, _ = propagate_batch(amps, cutoff, table80.params, np.tile(lts, levels.size))
        rho = observables(final, "gg", cutoff)["rho"].reshape(levels.size, lts.size, 4, 4)
        mix = np.tensordot(weights, rho, axes=1)
        purity = np.einsum("kij,kji->k", mix, mix).real
        errors = {
            "purity": np.abs(predict_purity(dist, lts, table80) - purity),
            "populations": np.abs(predict_populations(dist, lts, table80)
                                  - np.diagonal(mix, axis1=1, axis2=2).real).max(axis=1),
            "coherence": np.abs(predict_coherence(dist, lts, table80) - mix[:, 3, 0]),
        }
        for name, err in errors.items():
            slope = np.polyfit(np.log(lts), np.log(err), 1)[0]
            assert slope >= 2.5, (name, slope, err / lts**3)
        mean_purity = weights @ predict_purity(levels.tolist(), lts, table80)
        assert (np.abs(mean_purity - purity) > 0.1 * lts**2).all()


class TestInfidelityInItsUnit:
    """The predicted infidelity is x^2, x = |lam| sqrt(kappa_n); for x up to
    0.3 it is within 15% of the exact one at every loop count (the largest
    gap, 13.8%, is at one loop, Fock 2, x = 0.3)."""

    @given(loops=st.sampled_from([1, 4, 16]), n=st.integers(0, 3),
           x=st.floats(0.05, 0.3), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_predicted_infidelity_within_15_percent(self, loop_table, loops, n, x, sign):
        table = loop_table(loops, 40)
        der = table.derived()
        kappa = 0.5 * (der.b.imag - der.c_gg - der.c_ee)[n]
        lam = sign * x / math.sqrt(kappa)
        # The oracle sweep checks its own health: guard-band mass and norm drift.
        exact = 1.0 - sweep([lam], [n], table.params, FockCutoff(32))["fidelity"][0, 0]
        predicted = 1.0 - predict_fidelity(n, lam, table)
        assert predicted == pytest.approx(x * x, rel=1e-12)
        assert abs(predicted - exact) <= 0.15 * exact, (predicted, exact)

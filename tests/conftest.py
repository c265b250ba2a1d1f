"""Shared fixtures.

The coefficient table is session-scoped: n_max=24 trusts Fock levels 0..9
and builds in a few milliseconds.  Its panel counts change nothing.
``two_loop_table`` is a second calibrated gate (two loops at
omega_tilde = 1/(2 sqrt 2), built through ``DimensionlessGateParams.calibrated``)
for checks that every route runs the table's gate rather than the one-loop
default.
"""

import functools
import math

import numpy as np
import pytest
from scipy import sparse

from msgate.hilbert import FockCutoff
from msgate.ideal import DimensionlessGateParams
from msgate.magnus import QuadratureSpec, compute_coefficient_table
from msgate.oracle import IntegratorConfig, hamiltonian_matrix
from quadrature import rk4


def rk4_static_axis(amps, params, cutoff, lambda_values, steps):
    """One static-axis gate by fixed-step RK4 on the dense Hamiltonian.

    The independent reference route for ``oracle.propagate_batch``; column j
    uses miscalibration ``lambda_values[j]``.  H(tau) is linear in lam and a
    first-degree trigonometric polynomial in tau, so hamiltonian_matrix
    sampled at tau = 0, pi/2, pi and lam = 0, 1 fixes it everywhere (checked
    at an off-grid point); sparse pieces keep 8192-step runs cheap.
    """
    amps = np.asarray(amps, dtype=complex)
    h0, h1, h2 = (
        hamiltonian_matrix(t, params, cutoff, 0.0) for t in (0.0, math.pi / 2, math.pi)
    )
    const = (h0 + h2) / 2.0
    up = ((h0 - h2) / 2.0 - 1j * (h1 - const)) / 2.0
    z = hamiltonian_matrix(0.0, params, cutoff, 1.0) - h0
    tau, lam = 1.234, 0.37
    rebuilt = const + lam * z + np.exp(1j * tau) * up + np.exp(-1j * tau) * up.conj().T
    np.testing.assert_allclose(
        rebuilt, hamiltonian_matrix(tau, params, cutoff, lam), atol=1e-14
    )
    stacked = sparse.csr_matrix(np.vstack([const, z, up, up.conj().T]))
    lam_row = np.broadcast_to(
        np.asarray(lambda_values, dtype=float), (amps.shape[1],)
    )

    def apply_h(t, psi):
        c, zp, u, dn = (stacked @ psi).reshape(4, len(psi), -1)
        return c + lam_row * zp + np.exp(1j * t) * u + np.exp(-1j * t) * dn

    return rk4(apply_h, amps, 0.0, params.tau_gate, steps)


@pytest.fixture(scope="session")
def table():
    return compute_coefficient_table(
        n_max=24, quad=QuadratureSpec(panels_1d=2**12, panels_2d=2**8)
    )


@pytest.fixture(scope="session")
def two_loop_table():
    gate = DimensionlessGateParams.calibrated(2)
    table = compute_coefficient_table(
        omega_tilde=gate.omega_tilde, n_max=24, tau_gate=gate.tau_gate
    )
    table.check_health()
    return table


@pytest.fixture(scope="session")
def loop_table():
    """``loop_table(K, n_max)``: the calibrated gate of K loops, each table
    built once per session."""
    @functools.cache
    def build(loops: int, n_max: int):
        gate = DimensionlessGateParams.calibrated(loops)
        return compute_coefficient_table(gate.omega_tilde, n_max, tau_gate=gate.tau_gate)
    return build


@pytest.fixture(scope="session")
def derived(table):
    return table.derived()


@pytest.fixture(scope="session")
def calibrated_params():
    return DimensionlessGateParams()


@pytest.fixture(scope="session")
def oracle_cutoff():
    return FockCutoff(32)


@pytest.fixture(scope="session")
def fast_integrator():
    # The oracle's default settings; its health thresholds are module
    # constants, and the exact propagator takes no step count.
    return IntegratorConfig()


@pytest.fixture(scope="session")
def rk4_static():
    return rk4_static_axis


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)

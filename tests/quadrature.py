"""Reference routes for the coefficient tables, used only by the tests.

``quadrature_table`` builds the tables from their integral definitions (see
the :mod:`msgate.magnus` docstring) by composite Simpson quadrature over one
gate loop.  The triangle 0 <= t2 <= t1 <= T maps to the unit square through
t1 = T*u, t2 = t1*v (Jacobian T^2 u).  Each node's displacement element
<m|D(beta)|n> comes from the closed form of :func:`displacement_from_moments`,
summed over every node at once through the power moments of
:func:`power_moments`.  The error is O(h^4) in the panel width.

``van_loan_derivatives`` exponentiates the block matrix
[[A, B, 0], [0, A, B], [0, 0, A]] with A = -iT H'(0) and B = -iT S_z, whose
upper blocks are dU/dlam and (1/2) d^2U/dlam^2 of U = e^{-iT H'(lam)}
(Van Loan 1978; Najfeld & Havel 1995), on a dense truncated Fock space.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.linalg.blas import zgemm
from scipy.special import gammaln

from msgate.hilbert import FockCutoff
from msgate.ideal import DimensionlessGateParams, loop_functions
from msgate.magnus import CoefficientTable, QuadratureSpec
from msgate.oracle import _diagonals, _frame_hamiltonian

# Outer-time rows of the 2D grid per moment call; bounds the workspace.
CHUNK_ROWS = 16


def simpson(n_panels: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of trapezoid + one Richardson step (= Simpson)."""
    p = 2 * n_panels
    x = np.linspace(a, b, p + 1)
    h = (b - a) / p
    w = np.full(p + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)


def power_moments(
    betas: np.ndarray, weight_sets: list[np.ndarray], dim: int
) -> list[np.ndarray]:
    """M_s[p, q] = sum_k w_s[k] * beta_k^p * conj(beta_k)^q for each weight set."""
    vt = np.empty((dim, betas.size), dtype=complex)
    a = np.empty((len(weight_sets) * dim, betas.size), dtype=complex)
    return power_moments_into(vt, a, betas, weight_sets)


def power_moments_into(
    vt: np.ndarray, a: np.ndarray, betas: np.ndarray, weight_sets: list[np.ndarray]
) -> list[np.ndarray]:
    """:func:`power_moments` in caller-owned C-ordered storage.

    ``vt`` (dim, nodes) receives the Vandermonde V[p, k] = beta_k^p and ``a``
    (S*dim, nodes) the S weighted copies stacked; one ZGEMM with its
    conjugate-transpose flag forms conj(V) @ A^T = [M_1^T .. M_S^T].
    """
    dim = vt.shape[0]
    vt[0] = 1.0
    for p in range(1, dim):
        np.multiply(vt[p - 1], betas, out=vt[p])
    for s, w in enumerate(weight_sets):
        np.multiply(vt, w, out=a[s * dim : (s + 1) * dim])
    mt = zgemm(1.0, vt.T, a.T, trans_a=2)
    return [mt[:, s * dim : (s + 1) * dim].T for s in range(len(weight_sets))]


def displacement_from_moments(mom: np.ndarray, dim: int) -> np.ndarray:
    """Assemble T[m,n] = sum_k w~_k <m|D(beta_k)|n> from power moments.

    Uses the closed form <m|D(b)|n> = e^{-|b|^2/2} sqrt(m! n!) *
    sum_k (-1)^{n-k} b^{m-k} conj(b)^{n-k} / (k! (m-k)! (n-k)!), with the
    Gaussian e^{-|b|^2/2} folded into the node weights w~_k beforehand.
    """
    lgf = gammaln(np.arange(dim + 1.0) + 1.0)
    out = np.zeros((dim, dim), dtype=complex)
    col_sign = (-1.0) ** np.arange(dim)
    for k in range(dim):
        g = np.exp(0.5 * lgf[k:dim] - lgf[: dim - k])
        coef = (-1.0) ** k * math.exp(-lgf[k])
        out[k:, k:] += coef * (g[:, None] * (g * col_sign[k:])[None, :]) * mom[
            : dim - k, : dim - k
        ]
    return out


def first_order_table(params, cutoff: FockCutoff, quad: QuadratureSpec) -> np.ndarray:
    """i_table[m, n] = (i/2) Int e^{iG} <m|D(F)|n> dt by 1D Simpson."""
    dim = cutoff.dim
    tau, w = simpson(quad.panels_1d, 0.0, params.tau_gate)
    f, g = loop_functions(tau, params)
    wt = w * np.exp(1j * g - 0.5 * np.abs(f) ** 2)
    (mom,) = power_moments(f, [wt.astype(complex)], dim)
    return 0.5j * displacement_from_moments(mom, dim)


def second_order_tables(params, cutoff: FockCutoff, quad: QuadratureSpec):
    """(j1, j2, j3) by 2D Simpson over the time-ordered triangle."""
    g_end = float(loop_functions(params.tau_gate, params)[1])
    dim = cutoff.dim
    t_g = params.tau_gate
    u, wu = simpson(quad.panels_2d, 0.0, 1.0)
    v, wv = simpson(quad.panels_2d, 0.0, 1.0)
    m1, m2, m3 = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    nodes = min(CHUNK_ROWS, u.size) * v.size
    vt = np.empty((dim, nodes), dtype=complex)
    work = np.empty((2 * dim, nodes), dtype=complex)
    for start in range(0, u.size, CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        uu = u[start:stop]
        t1 = t_g * uu
        f1, g1 = loop_functions(t1, params)
        t2 = t1[:, None] * v[None, :]
        f2, g2 = loop_functions(t2, params)
        theta = (f1[:, None] * f2.conj()).imag
        jac = (wu[start:stop] * t_g * t_g * uu)[:, None] * wv[None, :]
        beta1 = f2 - f1[:, None]
        beta2 = f2 + f1[:, None]
        base = g2 - g1[:, None] + g_end
        w1 = 0.5 * jac * np.exp(1j * (base - theta) - 0.5 * np.abs(beta1) ** 2)
        w3 = 0.5 * jac * np.exp(1j * (g1[:, None] - g2 - theta) - 0.5 * np.abs(beta1) ** 2)
        w2 = 0.5 * jac * np.exp(1j * (base + theta) - 0.5 * np.abs(beta2) ** 2)
        k = beta1.size
        d1, d3 = power_moments_into(vt[:, :k], work[:, :k], beta1.ravel(),
                                    [w1.ravel(), w3.ravel()])
        (d2,) = power_moments_into(vt[:, :k], work[:dim, :k], beta2.ravel(), [w2.ravel()])
        m1 += d1
        m3 += d3
        m2 += d2
    j1, j2, j3 = (displacement_from_moments(m, dim) for m in (m1, m2, m3))
    j3[~_even(dim)] = 0.0
    return j1, j2, j3


def _even(dim: int) -> np.ndarray:
    return np.add.outer(np.arange(dim), -np.arange(dim)) % 2 == 0


def quadrature_table(
    omega_tilde: float = 0.5,
    n_max: int = 40,
    quad: QuadratureSpec = QuadratureSpec(),
    tau_gate: float = 2.0 * math.pi,
) -> CoefficientTable:
    """The coefficient table of :func:`msgate.magnus.compute_coefficient_table`,
    built by quadrature at the panel counts of ``quad``."""
    params = DimensionlessGateParams(omega_tilde=omega_tilde, tau_gate=tau_gate)
    cutoff = FockCutoff(n_max)
    i_table = first_order_table(params, cutoff, quad)
    j1, j2, j3 = second_order_tables(params, cutoff, quad)
    return CoefficientTable(params, cutoff, quad, i_table, j1, j2, j3)


def van_loan_derivatives(params: DimensionlessGateParams, cutoff: FockCutoff):
    """(dU/dlam, (1/2) d^2U/dlam^2) at lam = 0, dense on ``cutoff``.

    Split by the parity of (qubit excitation + phonon number), which H'
    conserves and S_z keeps, into two half-size exponentials.  Rows and
    columns use the composite (qubit-major) order of ``cutoff``.
    """
    t = params.tau_gate
    h = _frame_hamiltonian(0.0, params.omega_tilde, params.phi, cutoff)
    s_z = np.diag(_diagonals(cutoff)[1][:, 0]).astype(complex)
    excitations = np.array([0, 1, 1, 2])
    parity = (np.repeat(excitations, cutoff.dim) + np.tile(np.arange(cutoff.dim), 4)) % 2
    size = 4 * cutoff.dim
    first = np.zeros((size, size), dtype=complex)
    second = np.zeros((size, size), dtype=complex)
    for p in (0, 1):
        idx = np.nonzero(parity == p)[0]
        a = -1j * t * h[np.ix_(idx, idx)]
        b = -1j * t * s_z[np.ix_(idx, idx)]
        k = idx.size
        block = np.zeros((3 * k, 3 * k), dtype=complex)
        for i in range(3):
            block[i * k : (i + 1) * k, i * k : (i + 1) * k] = a
        block[:k, k : 2 * k] = b
        block[k : 2 * k, 2 * k :] = b
        e = expm(block)
        first[np.ix_(idx, idx)] = e[:k, k : 2 * k]
        second[np.ix_(idx, idx)] = e[:k, 2 * k :]
    return first, second

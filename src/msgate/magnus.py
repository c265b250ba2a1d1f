"""Perturbative coefficient tables and closed-form predictors.

Everything here quantifies how a small center-line (carrier) detuning error
``lam`` distorts the calibrated force gate.  The machinery is organized
around two tables built by quadrature over one gate loop:

* first-order table  ``i_table[m, n]  = (i/2) Int_0^T e^{i G(t)} <m|D(F(t))|n> dt``
* second-order tables ``j*_table[m, n]`` over the time-ordered triangle
  0 <= t2 <= t1 <= T, with the two-time displacement products collapsed to a
  single displacement per node via D(a)D(b) = e^{i Im(a conj(b))} D(a+b):

    j1[m,n] = 1/2 II e^{i(G2-G1+GT-th)} <m|D(F2-F1)|n>
    j2[m,n] = 1/2 II e^{i(G2-G1+GT+th)} <m|D(F1+F2)|n>
    j3[m,n] = 1/2 II e^{i(G1-G2-th)}   <m|D(F2-F1)|n>   (even n-m only)

  where th = Im(F1 conj(F2)), GT = G(T), and the loop is closed (F(T)=0).

Index convention: row m is the bra (final) Fock index, column n the ket
(initial) one.  On the calibrated square pulse every i_table entry lies on
the complex line (-1+i)*R; the diagnostic ``structure_residual`` measures
departure from it.

Derived per-level scalars (n-th diagonal &c.):

* a[n]    -- first-order relative-phase slope, 4*i_table[n,n]/(-1+i), real,
             a[0] > 0.
* b[n]    -- second-order coherence coefficient (complex).
* c_gg[n], c_ee[n], c_eg[n] -- second-order population curvatures.

Predictors return *raw* perturbative quantities: populations need not sum
to one and the density matrix keeps its O(lam^2) trace defect visible.

Quadrature: composite trapezoid plus one Richardson halving step, applied
as the equivalent fused Simpson weights on the doubled grid; O(h^4).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .hilbert import (
    QUBIT_LABELS,
    CompositeState,
    FockCutoff,
    QubitDensityMatrix,
    ThermalDistribution,
    displacement_from_moments,
    level_weights,
    power_moments,
)
from .ideal import DimensionlessGateParams, ideal_output_state, loop_functions

__all__ = [
    "QuadratureSpec",
    "CoefficientTable",
    "DerivedScalars",
    "TruncationError",
    "compute_first_order_table",
    "compute_second_order_tables",
    "compute_coefficient_table",
    "derived_scalars",
    "first_order_correction",
    "second_order_correction",
    "predicted_state",
    "predict_phase",
    "predict_populations",
    "predict_coherence",
    "predict_density_matrix",
    "predict_fidelity",
    "predict_purity",
    "first_order_traced_unitary",
    "traced_unitary_factored",
    "save_coefficient_table",
    "load_coefficient_table",
]

TABLE_SCHEMA = "msgate/coefficients/1"
LAMBDA_HARD_CAP = 0.5

# Complex line containing every first-order table entry on a square pulse.
_LINE = -1.0 + 1.0j

# Outer-time rows of the 2D grid per weighted-moment GEMM (bounds memory).
_CHUNK_ROWS = 16

# Largest Fock-sum weight a derived scalar may leave in the last table rows.
_TAIL_TOLERANCE = 1e-8


class TruncationError(RuntimeError):
    """A requested Fock level sits too close to the table edge to trust."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Base panel counts (before the Richardson halving)."""

    panels_1d: int = 2**14
    panels_2d: int = 2**10

    def __post_init__(self) -> None:
        for name in ("panels_1d", "panels_2d"):
            v = getattr(self, name)
            if v < 2 or v & (v - 1):
                raise ValueError(f"{name} must be a power of two >= 2, got {v}")

    def refined(self) -> "QuadratureSpec":
        """Same spec with both panel counts doubled (for convergence checks)."""
        return QuadratureSpec(2 * self.panels_1d, 2 * self.panels_2d)


def _simpson(n_panels: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of trapezoid + one Richardson step (= Simpson)."""
    p = 2 * n_panels
    x = np.linspace(a, b, p + 1)
    h = (b - a) / p
    w = np.full(p + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)


def _require_closed_loop(params: DimensionlessGateParams) -> float:
    f_end, g_end = loop_functions(params.tau_gate, params)
    if abs(complex(f_end)) > 1e-12:
        raise ValueError(
            "coefficient tables are defined for closed loops only "
            f"(|F(tau_gate)| = {abs(complex(f_end)):.3e})"
        )
    return float(g_end)


def compute_first_order_table(
    params: DimensionlessGateParams,
    cutoff: FockCutoff,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """First-order table; i_table[m, n] = (i/2) Int e^{iG} <m|D(F)|n> dt."""
    dim = cutoff.dim
    tau, w = _simpson(quad.panels_1d, 0.0, params.tau_gate)
    f, g = loop_functions(tau, params)
    wt = w * np.exp(1j * g - 0.5 * np.abs(f) ** 2)
    (mom,) = power_moments(f, [wt.astype(complex)], dim)
    return 0.5j * displacement_from_moments(mom, dim)


def compute_second_order_tables(
    params: DimensionlessGateParams,
    cutoff: FockCutoff,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order tables (j1, j2, j3) over the time-ordered triangle.

    The triangle 0 <= t2 <= t1 <= T maps to the unit square through
    t1 = T*u, t2 = t1*v (Jacobian T^2 u), keeping the integrand smooth.
    """
    g_end = _require_closed_loop(params)
    dim = cutoff.dim
    t_g = params.tau_gate
    u, wu = _simpson(quad.panels_2d, 0.0, 1.0)
    v, wv = _simpson(quad.panels_2d, 0.0, 1.0)
    m1 = np.zeros((dim, dim), dtype=complex)
    m2 = np.zeros((dim, dim), dtype=complex)
    m3 = np.zeros((dim, dim), dtype=complex)
    for start in range(0, u.size, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
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
        d1, d3 = power_moments(beta1.ravel(), [w1.ravel(), w3.ravel()], dim)
        (d2,) = power_moments(beta2.ravel(), [w2.ravel()], dim)
        m1 += d1
        m3 += d3
        m2 += d2
    j1 = displacement_from_moments(m1, dim)
    j2 = displacement_from_moments(m2, dim)
    j3 = displacement_from_moments(m3, dim)
    parity = np.add.outer(np.arange(dim), -np.arange(dim)) % 2
    j3[parity == 1] = 0.0
    return j1, j2, j3


def _even_mask(dim: int) -> np.ndarray:
    return (np.add.outer(np.arange(dim), -np.arange(dim)) % 2 == 0).astype(float)


def _parameter_dict(
    params: DimensionlessGateParams, cutoff: FockCutoff, quad: QuadratureSpec
) -> dict:
    return {
        "n_max": cutoff.n_max,
        "omega_tilde": params.omega_tilde,
        "tau_gate": params.tau_gate,
        "phi": params.phi,
        "pulse": "square",
        "panels_1d": quad.panels_1d,
        "panels_2d": quad.panels_2d,
    }


def parameter_hash(
    params: DimensionlessGateParams, cutoff: FockCutoff, quad: QuadratureSpec
) -> str:
    """Digest of everything the tables depend on; keys caches and files."""
    blob = json.dumps(_parameter_dict(params, cutoff, quad), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CoefficientTable:
    """Quadrature tables for one calibrated gate, plus their provenance."""

    params: DimensionlessGateParams
    cutoff: FockCutoff
    quad: QuadratureSpec
    i_table: np.ndarray
    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray
    _derived: "DerivedScalars | None" = field(default=None, repr=False, compare=False)

    @property
    def n_max(self) -> int:
        return self.cutoff.n_max

    @property
    def j_plus(self) -> np.ndarray:
        return 0.5 * (self.j1 + self.j2 + 2.0 * self.j3)

    @property
    def j_minus(self) -> np.ndarray:
        return 0.5 * (self.j1 + self.j2 - 2.0 * self.j3)

    @property
    def structure_residual(self) -> float:
        """Max |Re + Im| over the first-order table (exactly 0 on the line)."""
        return float(np.abs(self.i_table.real + self.i_table.imag).max())

    def parameter_dict(self) -> dict:
        return _parameter_dict(self.params, self.cutoff, self.quad)

    @property
    def provenance_hash(self) -> str:
        return parameter_hash(self.params, self.cutoff, self.quad)

    def derived(self) -> "DerivedScalars":
        if self._derived is None:
            self._derived = derived_scalars(self)
        return self._derived

    def save(self, path) -> None:
        save_coefficient_table(self, path)


def compute_coefficient_table(
    omega_tilde: float = 0.5,
    n_max: int = 40,
    quad: QuadratureSpec = QuadratureSpec(),
    tau_gate: float = 2.0 * math.pi,
) -> CoefficientTable:
    """Build all tables for a calibrated square-pulse gate."""
    if n_max > 120:
        raise ValueError("n_max beyond 120 would overflow the moment assembly")
    params = DimensionlessGateParams(omega_tilde=omega_tilde, tau_gate=tau_gate)
    cutoff = FockCutoff(n_max)
    i_table = compute_first_order_table(params, cutoff, quad)
    j1, j2, j3 = compute_second_order_tables(params, cutoff, quad)
    return CoefficientTable(params, cutoff, quad, i_table, j1, j2, j3)


@dataclass
class DerivedScalars:
    """Per-Fock-level scalars entering every closed-form predictor.

    ``trusted[n]`` is False when the Fock sums feeding level n have visible
    weight in the last five table rows (tail estimate at or above
    ``_TAIL_TOLERANCE``) or n itself sits within five levels of the cutoff.
    """

    a: np.ndarray
    b: np.ndarray
    c_gg: np.ndarray
    c_ee: np.ndarray
    c_eg: np.ndarray
    tails: dict[str, np.ndarray]
    trusted: np.ndarray
    structure_residual: float

    def require_trusted(self, n: int) -> None:
        if not 0 <= n < self.a.size:
            raise ValueError(f"Fock level {n} outside the table (0..{self.a.size - 1})")
        if not self.trusted[n]:
            worst = max(float(t[n]) for t in self.tails.values())
            raise TruncationError(
                f"Fock level {n} is not trusted at tolerance "
                f"{_TAIL_TOLERANCE:.1e} (worst tail {worst:.3e}); "
                "rebuild the table with a larger n_max"
            )


def derived_scalars(table: CoefficientTable) -> DerivedScalars:
    """Reduce the quadrature tables to the scalar coefficient arrays."""
    it = table.i_table
    dim = it.shape[0]
    even = _even_mask(dim)
    odd = 1.0 - even
    jp = table.j_plus
    jm = table.j_minus

    diag_i = np.diag(it)
    a = np.real(4.0 * diag_i / _LINE)
    a_imag = float(np.abs(np.imag(4.0 * diag_i / _LINE)).max())

    sym = it + it.T  # [m, n]: I^n_m + I^m_n
    dif = it - it.T  # [m, n]: I^n_m - I^m_n
    sym2 = even * np.abs(sym) ** 2
    dif2 = even * np.abs(dif) ** 2
    cross = even * (dif * sym.conj())  # [m, n], zero on the diagonal

    jp_d = np.diag(jp)
    jm_d = np.diag(jm)
    c_gg = -jp_d.real - jp_d.imag + sym2.sum(axis=0)
    c_ee = jm_d.real - jm_d.imag + dif2.sum(axis=0)
    c_eg = (odd * np.abs(it) ** 2).sum(axis=1)  # row n: sum_m odd |I^m_n|^2
    b = -(1.0 - 1.0j) * (jp_d.conj() - jm_d) + 2.0 * cross.sum(axis=0)

    guard = 5
    lo = max(0, dim - guard)
    tails = {
        "c_gg": sym2[lo:, :].sum(axis=0),
        "c_ee": dif2[lo:, :].sum(axis=0),
        "c_eg": (odd * np.abs(it) ** 2)[:, lo:].sum(axis=1),
        "b": 2.0 * np.abs(cross[lo:, :].sum(axis=0)),
        "a_structure": np.full(dim, a_imag),
    }
    trusted = np.ones(dim, dtype=bool)
    for t in tails.values():
        trusted &= t < _TAIL_TOLERANCE
    trusted[lo:] = False
    return DerivedScalars(
        a=a,
        b=b,
        c_gg=c_gg,
        c_ee=c_ee,
        c_eg=c_eg,
        tails=tails,
        trusted=trusted,
        structure_residual=table.structure_residual,
    )


# --------------------------------------------------------------------------
# Correction states
# --------------------------------------------------------------------------

def _check_input(label: str, n: int, table: CoefficientTable) -> None:
    if label not in QUBIT_LABELS:
        raise ValueError(f"unknown qubit label {label!r}")
    if not 0 <= n <= table.n_max:
        raise ValueError(f"Fock level {n} outside table range 0..{table.n_max}")


def first_order_correction(
    label: str, n: int, table: CoefficientTable
) -> CompositeState:
    """State correction psi1; the full state is psi0 - lam*psi1 - lam^2*psi2.

    Column n of the first-order table feeds the diagonal-in-qubit blocks;
    row n (through the conjugate-route hops) feeds the odd-parity blocks.
    """
    _check_input(label, n, table)
    it = table.i_table
    dim = it.shape[0]
    even = (np.arange(dim) - n) % 2 == 0
    odd = ~even
    col = it[:, n]  # I^n_m over m
    row = it[n, :]  # I^m_n over m
    blocks = {q: np.zeros(dim, dtype=complex) for q in range(4)}
    if label == "gg":
        blocks[0][even] = (col + row)[even]
        blocks[3][even] = (col - row)[even]
        blocks[1][odd] = (1j * row)[odd]
        blocks[2][odd] = (1j * row)[odd]
    elif label == "ee":
        blocks[0][even] = -(col - row)[even]
        blocks[3][even] = -(col + row)[even]
        blocks[1][odd] = (1j * row)[odd]
        blocks[2][odd] = (1j * row)[odd]
    else:  # ge / eg behave identically
        blocks[0][odd] = (-1j * col)[odd]
        blocks[3][odd] = (-1j * col)[odd]
    cut = table.cutoff
    amps = np.concatenate([blocks[q] for q in range(4)])
    return CompositeState(amps, cut)


def second_order_correction(
    label: str, n: int, table: CoefficientTable
) -> CompositeState:
    """State correction psi2 (see :func:`first_order_correction`).

    The drive conserves the parity of (qubit excitation + phonon number),
    so each block carries a parity mask; the two-hop paths that visit the
    idle branch pair also leave odd-parity weight on the cross blocks.
    """
    _check_input(label, n, table)
    dim = table.cutoff.dim
    even = (np.arange(dim) - n) % 2 == 0
    odd = ~even
    jp_col = table.j_plus[:, n]
    jm_col = table.j_minus[:, n]
    diff_col = table.j1[:, n] - table.j2[:, n]
    sum_col = table.j1[:, n] + table.j2[:, n]
    blocks = {q: np.zeros(dim, dtype=complex) for q in range(4)}
    if label == "gg":
        blocks[0][even] = jp_col[even]
        blocks[3][even] = -jm_col[even]
        blocks[1][odd] = (0.5j * diff_col)[odd]
        blocks[2][odd] = (0.5j * diff_col)[odd]
    elif label == "ee":
        blocks[0][even] = -jm_col[even]
        blocks[3][even] = jp_col[even]
        blocks[1][odd] = (-0.5j * diff_col)[odd]
        blocks[2][odd] = (-0.5j * diff_col)[odd]
    else:
        blocks[0][odd] = (-0.5j * sum_col)[odd]
        blocks[3][odd] = (0.5j * sum_col)[odd]
        blocks[1][even] = (0.5 * diff_col)[even]
        blocks[2][even] = (0.5 * diff_col)[even]
    amps = np.concatenate([blocks[q] for q in range(4)])
    return CompositeState(amps, table.cutoff)


def predicted_state(
    label: str,
    n: int,
    lambda_tilde: float,
    table: CoefficientTable,
    order: int = 2,
) -> CompositeState:
    """Perturbative final state psi0 - lam*psi1 - lam^2*psi2 (unnormalized)."""
    _check_lambda(lambda_tilde)
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    amps = ideal_output_state(label, n, table.cutoff).amplitudes.copy()
    if order >= 1:
        amps -= lambda_tilde * first_order_correction(label, n, table).amplitudes
    if order >= 2:
        amps -= lambda_tilde**2 * second_order_correction(label, n, table).amplitudes
    return CompositeState(amps, table.cutoff)


# --------------------------------------------------------------------------
# Scalar predictors
# --------------------------------------------------------------------------

def _check_lambda(lambda_tilde: float) -> None:
    if abs(lambda_tilde) > LAMBDA_HARD_CAP:
        raise ValueError(
            f"|lambda_tilde| = {abs(lambda_tilde):.3f} exceeds the hard cap "
            f"{LAMBDA_HARD_CAP}; the expansion is meaningless there"
        )


def _scalars_for(
    n: int | ThermalDistribution, table: CoefficientTable
) -> tuple[np.ndarray, np.ndarray]:
    """(levels, weights) of a level or thermal mode; raises TruncationError
    for the first level the table does not resolve."""
    levels, weights = level_weights(n)
    der = table.derived()
    for lev in levels:
        der.require_trusted(int(lev))
    return levels, weights


def predict_coherence(
    n: int, lambda_tilde: float, table: CoefficientTable, initial: str = "gg"
) -> complex:
    """Predicted pair coherence of the reduced state, to second order.

    For a |gg> input this is <ee|rho|gg>; for |ee> it is <gg|rho|ee>.
    """
    _check_lambda(lambda_tilde)
    der = table.derived()
    der.require_trusted(n)
    a = der.a[n]
    b = der.b[n]
    if initial == "gg":
        return complex(-1j + lambda_tilde * a + lambda_tilde**2 * b) / 2.0
    if initial == "ee":
        return complex(-1j - lambda_tilde * a + lambda_tilde**2 * b) / 2.0
    raise ValueError("coherence predictor covers 'gg' and 'ee' inputs")


def predict_phase(
    n: int | ThermalDistribution,
    lambda_tilde: float,
    table: CoefficientTable,
    initial: str = "gg",
    order: int = 2,
) -> float:
    """Relative phase of the pair coherence (ideal value -pi/2, or +pi/2
    for the idle pair of a |ge>/|eg> input, which has no first-order shift).

    Thermal inputs are the probability-weighted mean of the per-level phase.
    """
    _check_lambda(lambda_tilde)
    if initial in ("ge", "eg"):
        return math.pi / 2.0
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    levels, weights = _scalars_for(n, table)
    der = table.derived()
    sign = 1.0 if initial == "gg" else -1.0
    phases = -math.pi / 2.0 + sign * lambda_tilde * der.a[levels]
    if order == 2:
        phases = phases + lambda_tilde**2 * der.b[levels].real
    return float(weights @ phases)


def predict_populations(
    n: int, lambda_tilde: float, table: CoefficientTable, initial: str = "gg"
) -> np.ndarray:
    """Raw second-order populations (gg, ge, eg, ee); sum may differ from 1."""
    _check_lambda(lambda_tilde)
    der = table.derived()
    der.require_trusted(n)
    l2 = lambda_tilde**2
    if initial == "gg":
        return np.array(
            [
                0.5 + l2 * der.c_gg[n],
                l2 * der.c_eg[n],
                l2 * der.c_eg[n],
                0.5 + l2 * der.c_ee[n],
            ]
        )
    if initial == "ee":
        return np.array(
            [
                0.5 + l2 * der.c_ee[n],
                l2 * der.c_eg[n],
                l2 * der.c_eg[n],
                0.5 + l2 * der.c_gg[n],
            ]
        )
    raise ValueError("population predictor covers 'gg' and 'ee' inputs")


def predict_density_matrix(
    n: int,
    lambda_tilde: float,
    table: CoefficientTable,
    initial: str = "gg",
) -> QubitDensityMatrix:
    """Second-order reduced qubit state (X-shaped in the computational basis).

    Raw, like every predictor here; ``.normalized()`` rescales it to trace one.
    """
    pops = predict_populations(n, lambda_tilde, table, initial)
    coh = predict_coherence(n, lambda_tilde, table, initial)
    der = table.derived()
    l2 = lambda_tilde**2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = pops
    rho[1, 2] = rho[2, 1] = l2 * der.c_eg[n]
    if initial == "gg":
        rho[3, 0] = coh
        rho[0, 3] = np.conj(coh)
    else:
        rho[0, 3] = coh
        rho[3, 0] = np.conj(coh)
    return QubitDensityMatrix(rho)


def predict_fidelity(
    n: int | ThermalDistribution, lambda_tilde: float, table: CoefficientTable
) -> float:
    """Overlap of the reduced state with the ideal Bell output, to O(lam^2).

    1 + (lam^2/2)(c_gg + c_ee - Im b); same for gg and ee inputs.
    """
    _check_lambda(lambda_tilde)
    levels, weights = _scalars_for(n, table)
    der = table.derived()
    vals = 1.0 + 0.5 * lambda_tilde**2 * (
        der.c_gg[levels] + der.c_ee[levels] - der.b[levels].imag
    )
    return float(weights @ vals)


def predict_purity(
    n: int, lambda_tilde: float, table: CoefficientTable
) -> float:
    """Tr(rho^2) of the reduced state to O(lam^2) (gg or ee input alike)."""
    _check_lambda(lambda_tilde)
    der = table.derived()
    der.require_trusted(n)
    return float(
        1.0
        - lambda_tilde**2
        * (der.b[n].imag - 0.5 * der.a[n] ** 2 - der.c_gg[n] - der.c_ee[n])
    )


# --------------------------------------------------------------------------
# Effective qubit unitary to first order
# --------------------------------------------------------------------------

def first_order_traced_unitary(a_n: float, lambda_tilde: float) -> np.ndarray:
    """Fixed-phase effective qubit map to first order in the miscalibration.

    (1/sqrt2) [[1 - i a lam, 0, 0, -i], [0, 1, i, 0], [0, i, 1, 0],
               [-i, 0, 0, 1 + i a lam]];
    the factored product (:func:`traced_unitary_factored`) carries an extra
    overall phase e^{i pi/4} relative to this matrix.
    """
    al = a_n * lambda_tilde
    m = np.array(
        [
            [1.0 - 1j * al, 0, 0, -1j],
            [0, 1.0, 1j, 0],
            [0, 1j, 1.0, 0],
            [-1j, 0, 0, 1.0 + 1j * al],
        ],
        dtype=complex,
    )
    return m / math.sqrt(2.0)


def traced_unitary_factored(a_n: float, lambda_tilde: float) -> np.ndarray:
    """The same map written as rotation * ideal gate * rotation.

    exp(-i th S_z) exp(i (pi/2) S_y^2) exp(-i th S_z) with th = a*lam/2;
    equals e^{i pi/4} * first_order_traced_unitary + O(lam^2).
    """
    from .ideal import ms_target_unitary

    theta = 0.5 * a_n * lambda_tilde
    rot = np.diag(np.exp(-1j * theta * np.array([1.0, 0.0, 0.0, -1.0])))
    return rot @ ms_target_unitary() @ rot


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

def _array_to_json(arr: np.ndarray) -> dict:
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _array_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def save_coefficient_table(table: CoefficientTable, path) -> None:
    """Write a versioned, byte-reproducible JSON dump of the tables.

    No timestamps: identical parameters produce identical bytes, and the
    parameter hash in the file pins provenance.  The bytes go to a
    temporary file beside ``path`` that replaces it only once complete, so
    a reader never sees a partial table and a failed write leaves nothing.
    """
    der = table.derived()
    doc = {
        "schema": TABLE_SCHEMA,
        "package_version": __version__,
        "params": table.parameter_dict(),
        "provenance_sha256": table.provenance_hash,
        "tables": {
            "i": _array_to_json(table.i_table),
            "j1": _array_to_json(table.j1),
            "j2": _array_to_json(table.j2),
            "j3": _array_to_json(table.j3),
        },
        "derived": {
            "a": der.a.tolist(),
            "b": _array_to_json(der.b),
            "c_gg": der.c_gg.tolist(),
            "c_ee": der.c_ee.tolist(),
            "c_eg": der.c_eg.tolist(),
            "structure_residual": der.structure_residual,
            "trusted": der.trusted.astype(int).tolist(),
            "tail_tolerance": _TAIL_TOLERANCE,
        },
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_coefficient_table(path) -> CoefficientTable:
    """Load and validate a table written by :func:`save_coefficient_table`."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != TABLE_SCHEMA:
        raise ValueError(
            f"unsupported coefficient file schema {doc.get('schema')!r}; "
            f"expected {TABLE_SCHEMA!r}"
        )
    p = doc["params"]
    params = DimensionlessGateParams(
        omega_tilde=p["omega_tilde"], tau_gate=p["tau_gate"], phi=p["phi"]
    )
    quad = QuadratureSpec(panels_1d=p["panels_1d"], panels_2d=p["panels_2d"])
    cutoff = FockCutoff(p["n_max"])
    table = CoefficientTable(
        params,
        cutoff,
        quad,
        _array_from_json(doc["tables"]["i"]),
        _array_from_json(doc["tables"]["j1"]),
        _array_from_json(doc["tables"]["j2"]),
        _array_from_json(doc["tables"]["j3"]),
    )
    if doc["provenance_sha256"] != table.provenance_hash:
        raise ValueError("coefficient file provenance hash does not match its parameters")
    dim = cutoff.dim
    for name in ("i_table", "j1", "j2", "j3"):
        if getattr(table, name).shape != (dim, dim):
            raise ValueError(f"table {name} has the wrong shape")
    return table

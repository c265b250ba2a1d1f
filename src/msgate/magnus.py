"""Perturbative coefficient tables and closed-form predictors.

Everything here quantifies how a small center-line (carrier) detuning error
``lam`` distorts the calibrated force gate.  The machinery is organized
around two tables, defined as integrals over one gate loop:

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

Construction: no integral is evaluated.  Over a closed loop, T = 2*pi*L, the
gate is U(lam) = e^{-iT H'(lam)} with H' = lam*S_z - omega*(a + a^dag)*S_y + N
(the oracle's rotating frame, which meets the static one at T), and the
tables are read off the corrections psi1 = -dU/dlam|q,n> and
psi2 = -(1/2) d^2U/dlam^2|q,n> at lam = 0 for q = gg and ge, by inverting
:func:`first_order_correction` and :func:`second_order_correction`.  Both
derivatives are exact sums over the closed-form lam = 0 eigenbasis
(Daleckii-Krein divided differences of f(x) = e^{-iTx}: Higham, *Functions of
Matrices*, SIAM 2008, section 3.2; Najfeld & Havel, Adv. Appl. Math. 16,
1995), cut at a Fock margin above the table that leaves every entry
converged to roundoff.  ``QuadratureSpec`` is a recorded parameter of the
table and changes no value.
"""

from __future__ import annotations

import base64
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
    SIGMA_Y_BASIS,
    CompositeState,
    FockCutoff,
    QubitDensityMatrix,
    ThermalDistribution,
    displacement_matrix,
    level_weights,
)
from .ideal import DimensionlessGateParams, ideal_output_state, loop_functions

__all__ = [
    "QuadratureSpec",
    "CoefficientTable",
    "DerivedScalars",
    "TruncationError",
    "UnhealthyTableError",
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

TABLE_SCHEMA = "msgate/coefficients/3"
LAMBDA_HARD_CAP = 0.5

# Complex line containing every first-order table entry on a square pulse.
_LINE = -1.0 + 1.0j

# Branches of SIGMA_Y_BASIS (rows ++, +-, -+, --) that the drive displaces
# (S_y eigenvalue +1, -1) and that it leaves idle (S_y eigenvalue 0).
_DISPLACED = (0, 3)
_IDLE = (1, 2)

# Largest Fock-sum weight a derived scalar may leave in the last table rows.
_TAIL_TOLERANCE = 1e-8

# Largest structure residual a usable table may have.
_STRUCTURE_TOLERANCE = 1e-6


class TruncationError(RuntimeError):
    """A requested Fock level sits too close to the table edge to trust."""


class UnhealthyTableError(RuntimeError):
    """A table has non-finite entries or leaves the first-order line."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel counts, validated and recorded with a table (file, provenance
    hash).  No table value depends on them: the tables are exact."""

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


def _require_closed_loop(params: DimensionlessGateParams) -> None:
    f_end, _ = loop_functions(params.tau_gate, params)
    if abs(complex(f_end)) > 1e-12:
        raise ValueError(
            "coefficient tables are defined for closed loops only "
            f"(|F(tau_gate)| = {abs(complex(f_end)):.3e})"
        )


def _fock_margin(n_max: int, omega: float) -> int:
    """Fock levels kept above the table in the spectral sums.

    The sums hop twice by |omega| between branches, which carries level n
    up to about (sqrt(n) + 2|omega|)^2, i.e. 4|omega| sqrt(n) levels, before
    the displacement elements fall off.  The rule below gives 6 to 9 levels
    more than the smallest margin that leaves every entry within 1e-14 of a
    much wider one, as measured for |omega| in [0.1, 1.5] and n_max in
    [4, 200]: 35 at n_max 40 and omega 0.5, where 28 converge.
    """
    w = abs(omega)
    return math.ceil((4.0 * w + 0.5) * math.sqrt(n_max + 1) + 17.0 * w) + 10


def _divided_difference(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """f[x, y] of f(x) = e^{-i t x}, and f'(x) where x == y, without cancellation."""
    phase = np.exp(-0.5j * t * x) * np.exp(-0.5j * t * y)
    return -1j * t * phase * np.sinc(t * (x - y) / (2.0 * math.pi))


def _split(a):
    """Veltkamp split of a float64 into halves of 26 bits: a == hi + lo."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _exp_i(t: float, x: np.ndarray) -> np.ndarray:
    """e^{i t x} with the rounding error of t * x put back (Dekker's exact
    product, to first order): the phase is exact even where |t x| is large."""
    p = t * x
    t_hi, t_lo = _split(t)
    x_hi, x_lo = _split(x)
    err = ((t_hi * x_hi - p) + t_hi * x_lo + t_lo * x_hi) + t_lo * x_lo
    return np.exp(1j * p) * (1.0 + 1j * err)


def _confluent_difference(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """f[x, x, y] of f(x) = e^{-i t x} for a column x and a row y:
    e^{-itx} (-t^2) phi2(z) with z = -it(y - x) and phi2(z) = (e^z - 1 - z) / z^2.

    e^z is the outer product e^{itx} e^{-ity} of two 1-D exponentials.  Those
    keep their phases exact (:func:`_exp_i`), because e^z - 1 - z cancels: an
    ulp of t*x left in e^z costs 4e-12 relative where |z| is just over 0.1,
    and moves two-loop tables by 3e-13.  Where |z| < 0.1 (z == 0 included)
    phi2 is its Taylor series, in Horner form.
    """
    w = t * (y - x)  # z = -iw, z^2 = -w^2
    phi2 = np.divide(1.0 - 1j * w - _exp_i(t, x) * _exp_i(-t, y), w * w,
                     out=np.empty(w.shape, dtype=complex), where=w != 0)
    small = np.abs(w) < 0.1
    if small.any():
        zs = -1j * w[small]
        acc = np.full(zs.shape, 1.0 / math.factorial(9), dtype=complex)
        for k in range(8, 1, -1):
            acc = acc * zs + 1.0 / math.factorial(k)
        phi2[small] = acc
    return -t * t * np.exp(-1j * t * x) * phi2


@dataclass(frozen=True)
class _Spectrum:
    """The lam = 0 rotating-frame gate in its closed-form eigenbasis.

    In the sigma_y product basis (``SIGMA_Y_BASIS``, branches ++, +-, -+, --
    with S_y eigenvalue s = 1, 0, 0, -1), H'(0) = N - s*omega*(a + a^dag) on
    branch s, with eigenvectors D(s*omega)|k> and energies k - s^2 omega^2.
    S_z couples each displaced branch (++, --) to each idle one (+-, -+)
    only.  Eigenvector index runs over (branch, k) with k < ``size``;
    displaced and idle branches are kept as two blocks of 2*size each, with
    the same k labels, which are also the idle energies.  One spectrum
    serves both table orders of a build.
    """

    t: float
    e_disp: np.ndarray  # (2 size,) energies of the displaced eigenvectors
    e_idle: np.ndarray  # (2 size,) energies of the idle eigenvectors
    b: np.ndarray  # S_z from idle to displaced eigenvectors, (2 size, 2 size)
    g_di: np.ndarray  # dU/dlam at lam = 0 (Daleckii-Krein), F1 o B: idle to displaced
    g_id: np.ndarray  # its other block, F1^T o B^dag: displaced to idle
    ket_disp: np.ndarray  # inputs |gg,n>, |ge,n> (n < dim) on the displaced ones
    ket_idle: np.ndarray  # the same inputs on the idle eigenvectors
    bra_disp: np.ndarray  # displaced eigenvectors -> computational rows (q, m < dim)
    bra_idle: np.ndarray  # idle eigenvectors -> computational rows

    def apply(self, disp_from_idle, idle_from_disp) -> np.ndarray:
        """Columns of an operator that maps between the two blocks."""
        return (self.bra_disp @ (disp_from_idle @ self.ket_idle)
                + self.bra_idle @ (idle_from_disp @ self.ket_disp))

    def apply_within(self, disp, idle) -> np.ndarray:
        """Columns of an operator that keeps each block."""
        return self.bra_disp @ (disp @ self.ket_disp) + self.bra_idle @ (idle @ self.ket_idle)


def _spectrum(params: DimensionlessGateParams, cutoff: FockCutoff) -> _Spectrum:
    _require_closed_loop(params)
    omega = params.omega_tilde
    dim = cutoff.dim
    size = dim + _fock_margin(cutoff.n_max, omega)
    w = SIGMA_Y_BASIS
    s_z = np.diag([1.0, 0.0, 0.0, -1.0])  # collective S_z, computational order
    z = (w @ s_z @ w.conj().T)[np.ix_(_DISPLACED, _IDLE)]
    # Rows m < dim of each eigenvector, per branch: D(+omega), D(-omega), 1, 1.
    # D(-omega) = P D(omega) P with the parity P = (-1)^N: the recurrence run
    # at -omega flips exactly these signs, so one run serves both branches.
    d_plus = displacement_matrix(omega, size)
    disp = (d_plus, np.where(_even_mask(size), d_plus, -d_plus))
    eye = np.eye(size)

    def lift(branches, vecs):
        ket = np.vstack([np.kron(w[a, :2], v[:dim].conj().T) for a, v in zip(branches, vecs)])
        bra = np.hstack([np.kron(w[a, :, None].conj(), v[:dim]) for a, v in zip(branches, vecs)])
        return ket, bra

    ket_disp, bra_disp = lift(_DISPLACED, disp)
    ket_idle, bra_idle = lift(_IDLE, (eye, eye))
    # <D(s omega) k| S_z |l> = z[s, idle] <k|D(-s omega)|l> = z conj(<l|D(s omega)|k>).
    b = np.block([[z[i, j] * disp[i].conj().T for j in range(2)] for i in range(2)])
    levels = np.tile(np.arange(size, dtype=float), 2)
    e_disp = levels - omega * omega
    f1 = _divided_difference(e_disp[:, None], levels[None, :], params.tau_gate)
    return _Spectrum(params.tau_gate, e_disp, levels, b, f1 * b, f1.T * b.conj().T,
                     ket_disp, ket_idle, bra_disp, bra_idle)


def _corrections(cols: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Blocks [q, m, n] of the correction states -cols for |gg,n> and |ge,n>."""
    psi = -cols.reshape(4, dim, 2, dim)
    return psi[:, :, 0, :], psi[:, :, 1, :]


def compute_first_order_table(
    params: DimensionlessGateParams,
    cutoff: FockCutoff,
    quad: QuadratureSpec = QuadratureSpec(),
    *,
    spectrum: _Spectrum | None = None,
) -> np.ndarray:
    """First-order table; i_table[m, n] = (i/2) Int e^{iG} <m|D(F)|n> dt.

    Read off dU/dlam at lam = 0 on the |gg, n> and |ge, n> columns.
    ``quad`` is recorded only.  ``spectrum`` is the lam = 0 eigenbasis of
    ``params`` and ``cutoff`` when the caller has built it already.
    """
    sp = _spectrum(params, cutoff) if spectrum is None else spectrum
    gg, ge = _corrections(sp.apply(sp.g_di, sp.g_id), cutoff.dim)
    # Inverse of first_order_correction: even m - n from gg, odd from ge.
    return np.where(_even_mask(cutoff.dim), 0.5 * (gg[0] + gg[3]), 1j * ge[0])


def compute_second_order_tables(
    params: DimensionlessGateParams,
    cutoff: FockCutoff,
    quad: QuadratureSpec = QuadratureSpec(),
    *,
    spectrum: _Spectrum | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order tables (j1, j2, j3) over the time-ordered triangle.

    Read off (1/2) d^2U/dlam^2 at lam = 0 on the |gg, n> and |ge, n>
    columns.  ``quad`` is recorded only; ``spectrum`` as in
    :func:`compute_first_order_table`.
    """
    sp = _spectrum(params, cutoff) if spectrum is None else spectrum
    g_di, g_id = sp.g_di, sp.g_id
    b_di, b_id = sp.b, sp.b.conj().T
    # (1/2) d^2U/dlam^2 = sum_j f[E_i, E_j, E_k] B_ij B_jk.  Both hops cross
    # blocks, so i and k share one; their gap is the integer k_i - k_k, and
    # the confluent pairs are those of equal k: two per row i, at k_i and
    # k_i + size, each one sum over j.
    gap = np.subtract.outer(sp.e_idle, sp.e_idle)
    inv_gap = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap != 0)
    c_disp = inv_gap * (g_di @ b_id - b_di @ g_id)
    c_idle = inv_gap * (g_id @ b_di - b_id @ g_di)
    size = sp.e_idle.size // 2
    rows = np.arange(2 * size)
    level = rows % size
    for c, x, y, hop in ((c_disp, sp.e_disp, sp.e_idle, b_di),
                         (c_idle, sp.e_idle, sp.e_disp, b_id)):
        first = _confluent_difference(x[:, None], y[None, :], sp.t) * hop
        for k in (level, level + size):
            # The second hop is hop^dag, so its column k is row k of hop, conjugated.
            c[rows, k] = (first * hop[k].conj()).sum(axis=1)
    gg, ge = _corrections(sp.apply_within(c_disp, c_idle), cutoff.dim)
    # Inverse of second_order_correction.
    even = _even_mask(cutoff.dim)
    j_sum = np.where(even, gg[0] - gg[3], 2j * ge[0])
    j_dif = np.where(even, 2.0 * ge[1], -2j * gg[1])
    j3 = np.where(even, 0.5 * (gg[0] + gg[3]), 0.0)
    return 0.5 * (j_sum + j_dif), 0.5 * (j_sum - j_dif), j3


def _even_mask(dim: int) -> np.ndarray:
    """[m, n] is True where m - n is even."""
    return np.add.outer(np.arange(dim), -np.arange(dim)) % 2 == 0


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


@dataclass
class CoefficientTable:
    """Coefficient tables for one calibrated gate, plus their provenance."""

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
        """sha256 of the file schema, the parameters and the complex128 bytes
        of the four tables, so a file whose parameters or entries were altered
        no longer matches the digest it carries."""
        doc = {"schema": TABLE_SCHEMA, **self.parameter_dict()}
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        for name in _TABLE_FIELDS.values():
            # The bytes the file stores, -0.0 folded into 0.0 (_table_bytes).
            digest.update(_table_bytes(getattr(self, name)))
        return digest.hexdigest()

    def check_health(self) -> None:
        """Raise :class:`UnhealthyTableError` unless every entry is finite and
        the structure residual is at most 1e-6.  Built and loaded tables alike
        pass through here before any predictor reads them."""
        for name in ("i_table", "j1", "j2", "j3"):
            if not np.isfinite(getattr(self, name)).all():
                raise UnhealthyTableError(f"table {name} has non-finite entries")
        if self.structure_residual > _STRUCTURE_TOLERANCE:
            raise UnhealthyTableError(
                f"structure residual {self.structure_residual:.3e} exceeds "
                f"{_STRUCTURE_TOLERANCE:.0e}; the first-order table is off its line"
            )

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
    """Build all tables for a calibrated square-pulse gate from one
    lam = 0 eigenbasis, shared by both table orders."""
    if n_max > 120:
        raise ValueError(
            "n_max beyond 120 is past the range where the Fock margin of the "
            "spectral sums is checked (doubling it moves no entry by over 1e-13)"
        )
    params = DimensionlessGateParams(omega_tilde=omega_tilde, tau_gate=tau_gate)
    cutoff = FockCutoff(n_max)
    sp = _spectrum(params, cutoff)
    i_table = compute_first_order_table(params, cutoff, quad, spectrum=sp)
    j1, j2, j3 = compute_second_order_tables(params, cutoff, quad, spectrum=sp)
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
    """Reduce the coefficient tables to the scalar coefficient arrays."""
    it = table.i_table
    dim = it.shape[0]
    even = _even_mask(dim)
    odd = ~even
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
    if not math.isfinite(lambda_tilde):
        raise ValueError(f"lambda_tilde must be finite, got {lambda_tilde}")
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


# File key of each table under "tables", and the attribute that holds it.
_TABLE_FIELDS = {"i": "i_table", "j1": "j1", "j2": "j2", "j3": "j3"}


def _table_bytes(arr: np.ndarray) -> bytes:
    """Little-endian complex128 bytes of a table, row-major: what the file
    stores and the digest hashes.  + 0.0 folds -0.0 into 0.0, so a table
    and its reloaded copy hash alike whatever the signs of their zeros."""
    return np.ascontiguousarray(arr + 0.0, dtype="<c16").tobytes()


def _table_from_text(text, name: str, dim: int) -> np.ndarray:
    """Decode one stored table, refusing anything but base64 of exactly
    ``dim * dim`` complex128 values."""
    if not isinstance(text, str):
        raise ValueError(f"table {name} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a str that is not ASCII
        raise ValueError(f"table {name} is not valid base64") from None
    if len(raw) != 16 * dim * dim:
        raise ValueError(
            f"table {name} has the wrong shape: {len(raw)} bytes, "
            f"expected {16 * dim * dim} for {dim} x {dim} complex128"
        )
    return np.frombuffer(raw, dtype="<c16").astype(complex).reshape(dim, dim)


def save_coefficient_table(table: CoefficientTable, path) -> None:
    """Write a versioned, byte-reproducible JSON dump of the tables.

    The four tables are base64 strings of their little-endian complex128
    bytes (row-major, -0.0 written as 0.0), the bytes that
    :attr:`CoefficientTable.provenance_hash` hashes, so a load returns them
    bit for bit.  The schema, parameters, digest and ``derived`` block stay
    plain JSON that can be read as text.  No timestamps: identical
    parameters produce identical bytes, and the digest in the file pins the
    parameters and every table entry.  The bytes go to a temporary file
    beside ``path`` that replaces it only once complete, so a reader never
    sees a partial table and a failed write leaves nothing.
    """
    der = table.derived()
    doc = {
        "schema": TABLE_SCHEMA,
        "package_version": __version__,
        "params": table.parameter_dict(),
        "provenance_sha256": table.provenance_hash,
        "tables": {
            key: base64.b64encode(_table_bytes(getattr(table, name))).decode("ascii")
            for key, name in _TABLE_FIELDS.items()
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
    # One write of the whole text: json.dump streams through the pure-Python
    # encoder, about twice as slow for the same bytes.
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_stored_derived(stored: dict, der: DerivedScalars) -> None:
    """Compare a file's ``derived`` block with the scalars of its tables."""
    for name in ("a", "b", "c_gg", "c_ee", "c_eg", "structure_residual"):
        value = stored[name]
        got = _array_from_json(value) if name == "b" else np.asarray(value, dtype=float)
        want = np.asarray(getattr(der, name))
        if got.shape != want.shape or not np.all(np.abs(got - want) <= 1e-12 * np.abs(want)):
            raise ValueError(f"coefficient file derived {name!r} does not match its tables")
    if not np.array_equal(np.asarray(stored["trusted"]), der.trusted.astype(int)):
        raise ValueError("coefficient file derived 'trusted' does not match its tables")


def load_coefficient_table(path) -> CoefficientTable:
    """Load and validate a table written by :func:`save_coefficient_table`.

    Checked in order: the schema (only the current one, schema 3, loads;
    a schema 1 or 2 file is refused with a message to rebuild it), the
    shapes (each table a valid base64 string of exactly ``n_max + 1``
    squared complex128 values), :meth:`CoefficientTable.check_health`
    (else :class:`UnhealthyTableError`), the stored ``derived`` block against
    the scalars recomputed from the tables, and last the stored digest against
    :attr:`CoefficientTable.provenance_hash`.  A file that is not a JSON
    object, lacks an entry, holds one of the wrong type or fails any check
    but health raises ``ValueError``.  The recomputed scalars are kept for
    the predictors.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("coefficient file is not a JSON object")
    if doc.get("schema") != TABLE_SCHEMA:
        raise ValueError(
            f"unsupported coefficient file schema {doc.get('schema')!r}; "
            f"expected {TABLE_SCHEMA!r}: rebuild the table with 'msgate coefficients'"
        )
    try:
        return _validated_table(doc)
    except KeyError as exc:
        raise ValueError(f"coefficient file has no {exc.args[0]!r} entry") from None
    except TypeError as exc:
        raise ValueError(f"coefficient file has an entry of the wrong type: {exc}") from None


def _validated_table(doc: dict) -> CoefficientTable:
    p = doc["params"]
    params = DimensionlessGateParams(
        omega_tilde=p["omega_tilde"], tau_gate=p["tau_gate"], phi=p["phi"]
    )
    quad = QuadratureSpec(panels_1d=p["panels_1d"], panels_2d=p["panels_2d"])
    cutoff = FockCutoff(p["n_max"])
    stored = doc["tables"]
    table = CoefficientTable(
        params,
        cutoff,
        quad,
        *(_table_from_text(stored[key], name, cutoff.dim)
          for key, name in _TABLE_FIELDS.items()),
    )
    table.check_health()
    _check_stored_derived(doc["derived"], table.derived())
    if doc["provenance_sha256"] != table.provenance_hash:
        raise ValueError(
            "coefficient file provenance hash does not match its parameters and "
            "tables: rebuild the table with 'msgate coefficients'"
        )
    return table

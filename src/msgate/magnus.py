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

Predictors evaluate a grid: ``n`` is a Fock level or a 1-D sequence of
levels, ``lambda_tilde`` a float or a 1-D array, and the result has shape
``np.shape(n) + np.shape(lambda_tilde)`` (populations add ``(4,)``, the
density matrix ``(4, 4)``); scalar inputs give numpy scalars.  They return
*raw* perturbative quantities: populations need not sum to one and the
density matrix keeps its O(lam^2) trace defect visible.

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
converged to roundoff.  The sums use the symmetries the oracle's blocks use:
S_z reaches the idle branches only through their exchange-symmetric
combination, and the parity (-1)^(N + S_z) splits what it reaches into two
sectors that S_z never connects.  So each derivative is the sum of two
independent sector sums, each over size displaced and about size/2 idle
states (76 and 38 at n_max 40): a quarter of the state pairs that the four
branches hold.  The tables need no computational-basis states: a displaced
state's amplitude on |q, m> is <m|D(omega)|k> times a scalar set by q and
the parity of m, and an idle state I_l sits on level l alone, so the
inverses of the two corrections fold those scalars into signs and halves.
A sector adds a D(omega) sandwich of its displaced block, D C D^dag, to j1
and, with the sign (-1)^m, to j2; its idle block to j3 on the rows and
columns of its parity; and its displaced-to-idle block of dU/dlam, times
D^dag, to the i_table rows of its parity.
``QuadratureSpec`` is a recorded parameter of the table and changes no
value.
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
    FockCutoff,
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
    "save_coefficient_table",
    "load_coefficient_table",
]

TABLE_SCHEMA = "msgate/coefficients/3"
LAMBDA_HARD_CAP = 0.5

# Complex line containing every first-order table entry on a square pulse.
_LINE = -1.0 + 1.0j

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
class _Sector:
    """One parity sector of the lam = 0 eigenbasis: the displaced states
    E_k = (|++, D(omega)k> + sigma (-1)^k |--, D(-omega)k>) / sqrt2, k < size,
    and the idle states I_l = (|+-, l> + |-+, l>) / sqrt2 with (-1)^l = sigma.
    S_z couples the two sides only, by <E_k|S_z|I_l> = conj(<l|D(omega)|k>).

    In computational coordinates (q = gg, ge, eg, ee), <q, m|E_k> is
    <m|D(omega)|k> times (1, 0, 0, -1)/sqrt2 where (-1)^m = sigma and
    i (0, 1, 1, 0)/sqrt2 elsewhere, and <q, m|I_l> is [m == l] (1, 0, 0, 1)/sqrt2:
    scalars per q and parity, which the table inverses fold into signs and
    halves.  So a sector's displaced side reaches the tables through one
    product with D(omega) each way, and its idle side lands on the table
    rows (and columns) ``rows``, the levels of its parity under dim.
    """

    e_idle: np.ndarray  # (h,) idle levels l, which are also their energies
    b: np.ndarray  # S_z from idle to displaced states, (size, h)
    g_di: np.ndarray  # dU/dlam at lam = 0 (Daleckii-Krein), F1 o B: idle to displaced
    g_id: np.ndarray  # its other block, F1^T o B^dag: displaced to idle
    rows: slice  # table rows of the idle parity, lowest::2 under dim
    below: int  # idle levels under dim, the only ones the inputs touch


@dataclass(frozen=True)
class _Spectrum:
    """The lam = 0 rotating-frame gate in its closed-form eigenbasis.

    In the sigma_y product basis (branches ++, +-, -+, -- with S_y
    eigenvalue s = 1, 0, 0, -1; see :mod:`msgate.hilbert`),
    H'(0) = N - s*omega*(a + a^dag) on branch s, with eigenvectors
    D(s*omega)|k> and energies k - s^2 omega^2.
    S_z couples the displaced branches (++, --) to the idle ones (+-, -+)
    only, and reaches the idle ones through their symmetric sum alone: the
    antisymmetric combination is never coupled and adds nothing to either
    derivative.  Since D(-omega) = P D(omega) P with P = (-1)^N, the parity
    (-1)^(N + S_z) splits the rest into two :class:`_Sector` objects that
    S_z never connects, so each derivative is the sum of two independent
    sector terms.  Paired states share their energies, k - omega^2 for the
    displaced and l for the idle ones.  One spectrum serves both table
    orders of a build.
    """

    t: float
    e_disp: np.ndarray  # (size,) energies of the displaced states of either sector
    d: np.ndarray  # (dim, size): <m|D(omega)|k> for the table rows m
    sectors: tuple[_Sector, _Sector]  # parity +1 (even idle levels), then -1


def _spectrum(params: DimensionlessGateParams, cutoff: FockCutoff) -> _Spectrum:
    _require_closed_loop(params)
    omega = params.omega_tilde
    dim = cutoff.dim
    size = dim + _fock_margin(cutoff.n_max, omega)
    d = displacement_matrix(omega, size)  # rows m, columns k: <m|D(omega)|k>
    levels = np.arange(size, dtype=float)
    e_disp = levels - omega * omega
    sectors = []
    for lowest in (0, 1):
        e_idle = levels[lowest::2]
        b = d.conj().T[:, lowest::2]
        f1 = _divided_difference(e_disp[:, None], e_idle[None, :], params.tau_gate)
        sectors.append(_Sector(e_idle, b, f1 * b, f1.T * b.conj().T,
                               slice(lowest, dim, 2), (dim - lowest + 1) // 2))
    return _Spectrum(params.tau_gate, e_disp, d[:dim], tuple(sectors))


def _second_difference(levels, cross, x, y, hop, t: float) -> np.ndarray:
    """One side of a sector of (1/2) d^2U/dlam^2 = sum_j f[E_i, E_j, E_k] B_ij B_jk.

    Both hops cross between the sides, so i and k lie on the same one (energies
    ``x``, integer ``levels``) and j on the other (energies ``y``); ``hop`` is
    B from this side to the other.  Where i != k, f[E_i, E_j, E_k] =
    (f[E_i, E_j] - f[E_j, E_k]) / (E_i - E_k): ``cross`` is the numerator
    summed over j, and E_i - E_k is the integer gap.  A side's energies are
    distinct, so the confluent terms f[x_i, x_i, y_j] make up its diagonal.
    """
    gap = np.subtract.outer(levels, levels)
    np.fill_diagonal(gap, 1.0)
    c = cross / gap
    np.fill_diagonal(c, (_confluent_difference(x[:, None], y[None, :], t) * hop
                         * hop.conj()).sum(axis=1))
    return c


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
    i_table = np.empty((cutoff.dim, cutoff.dim), dtype=complex)
    for s in sp.sectors:
        # Inverse of first_order_correction: row m is -1/2 of the
        # displaced-to-idle block of the sector whose idle levels share its parity.
        i_table[s.rows] = -0.5 * (s.g_id[:s.below] @ sp.d.conj().T)
    return i_table


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
    levels = np.arange(sp.e_disp.size, dtype=float)
    j3 = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    disp = []
    for s in sp.sectors:
        b_id = s.b.conj().T
        c_disp = _second_difference(levels, s.g_di @ b_id - s.b @ s.g_id,
                                    sp.e_disp, s.e_idle, s.b, sp.t)
        h = s.below  # the tables read the idle side only under dim
        cross = s.g_id[:h] @ s.b[:, :h] - b_id[:h] @ s.g_di[:, :h]
        c_idle = _second_difference(s.e_idle[:h], cross, s.e_idle[:h], sp.e_disp, b_id[:h], sp.t)
        disp.append(sp.d @ c_disp @ sp.d.conj().T)
        j3[s.rows, s.rows] = -0.5 * c_idle
    # Inverse of second_order_correction: on the rows of its own parity a
    # sector's D C D^dag is -(j1 + j2), on the others -(j1 - j2).
    sign = np.where(np.arange(cutoff.dim) % 2 == 0, 1.0, -1.0)[:, None]  # (-1)^m
    return -0.5 * (disp[0] + disp[1]), -0.5 * sign * (disp[0] - disp[1]), j3


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
    _provenance: str | None = field(default=None, repr=False, compare=False)

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
        no longer matches the digest it carries.  A loaded table returns the
        digest its load verified."""
        if self._provenance is not None:
            return self._provenance
        return self._digest(_table_bytes(getattr(self, name)) for name in _TABLE_FIELDS.values())

    def _digest(self, blobs) -> str:
        """The provenance hash over ``blobs``, the stored bytes of the four
        tables in file order (-0.0 folded into 0.0, :func:`_table_bytes`)."""
        doc = {"schema": TABLE_SCHEMA, **self.parameter_dict()}
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        for blob in blobs:
            digest.update(blob)
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

    def save(self, path) -> str:
        return save_coefficient_table(self, path)


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
        # Relative to the slopes, which grow with the loop count (about 8K).
        "a_structure": np.full(dim, a_imag / max(1.0, float(np.abs(a).max()))),
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


def first_order_correction(label: str, n: int, table: CoefficientTable) -> np.ndarray:
    """Amplitudes of the state correction psi1; the full state is
    psi0 - lam*psi1 - lam^2*psi2.

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
    return np.concatenate([blocks[q] for q in range(4)])


def second_order_correction(label: str, n: int, table: CoefficientTable) -> np.ndarray:
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
    return np.concatenate([blocks[q] for q in range(4)])


def predicted_state(
    label: str,
    n: int,
    lambda_tilde: float,
    table: CoefficientTable,
    order: int = 2,
) -> np.ndarray:
    """Amplitudes of the perturbative final state psi0 - lam*psi1 - lam^2*psi2
    (unnormalized), at one lambda."""
    if np.ndim(lambda_tilde):
        raise ValueError(f"predicted_state takes one lambda_tilde, not an array of "
                         f"shape {np.shape(lambda_tilde)}")
    _check_lambda(lambda_tilde)
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    amps = ideal_output_state(label, n, table.cutoff)
    if order >= 1:
        amps -= lambda_tilde * first_order_correction(label, n, table)
    if order >= 2:
        amps -= lambda_tilde**2 * second_order_correction(label, n, table)
    return amps


# --------------------------------------------------------------------------
# Closed-form predictors
# --------------------------------------------------------------------------

def _check_lambda(lambda_tilde) -> np.ndarray:
    """``lambda_tilde`` (a float or a 1-D array) as an array, every value
    finite and inside the hard cap."""
    lam = np.asarray(lambda_tilde, dtype=float)
    if lam.ndim > 1:
        raise ValueError("lambda_tilde must be a float or a 1-D array")
    bad = lam[~np.isfinite(lam)]
    if bad.size:
        raise ValueError(f"lambda_tilde must be finite, got {bad[0]}")
    worst = np.abs(lam).max(initial=0.0)
    if worst > LAMBDA_HARD_CAP:
        raise ValueError(
            f"|lambda_tilde| = {worst:.3f} exceeds the hard cap "
            f"{LAMBDA_HARD_CAP}; the expansion is meaningless there"
        )
    return lam


# (row, column) of the pair coherence in the reduced state of each input
# the reduced-state predictors cover.
_COHERENCE = {"gg": (3, 0), "ee": (0, 3)}


def _checked(
    n, table: CoefficientTable, lambda_tilde=0.0, initial: str = "gg",
    covers=tuple(_COHERENCE), thermal: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(levels, weights, lam) of one predictor call, every input checked.

    ``lam`` is from :func:`_check_lambda`.  ``initial`` must be a qubit
    label the predictor covers.  ``levels`` are the Fock levels of ``n`` (a
    level, a 1-D sequence of levels, or with ``thermal`` a
    ThermalDistribution) down a leading axis, shaped to broadcast against
    ``lam``, and ``weights`` their probabilities (ones for Fock input).  A
    level the table does not trust raises TruncationError, the first in order.
    """
    lam = _check_lambda(lambda_tilde)
    if initial not in QUBIT_LABELS:
        raise ValueError(f"unknown qubit label {initial!r}")
    if initial not in covers:
        raise ValueError(f"this predictor covers {' and '.join(map(repr, covers))} "
                         f"inputs, not {initial!r}")
    if thermal and isinstance(n, ThermalDistribution):
        levels, weights = level_weights(n)
    else:
        levels = np.asarray(n)
        if levels.ndim > 1 or levels.dtype.kind not in "iu":
            raise ValueError(f"this predictor takes a Fock level or a 1-D sequence "
                             f"of levels, not {n!r}")
        levels = levels.ravel()
        weights = np.ones(levels.size)
    der = table.derived()
    for level in dict.fromkeys(levels.tolist()):
        der.require_trusted(level)
    return levels.reshape((-1,) + (1,) * lam.ndim), weights, lam


def _per_input(n, weights: np.ndarray, values: np.ndarray):
    """Per-level ``values`` (level axis first) for the input ``n``: their
    probability-weighted mean for a thermal mode, else the level axis
    reshaped to ``np.shape(n)``.  A 0-d result is a numpy scalar."""
    if isinstance(n, ThermalDistribution):
        return (weights @ values)[()]
    return values.reshape(np.shape(n) + values.shape[1:])[()]


def _square(x):
    """x**2 by libm's pow, as the closed forms have always been evaluated;
    x * x differs in the last bit for about one value in 1,200."""
    return np.float_power(x, 2)


def predict_density_matrix(
    n, lambda_tilde, table: CoefficientTable, initial: str = "gg"
) -> np.ndarray:
    """Second-order reduced qubit state, X-shaped in the computational basis.

    Shape ``np.shape(n) + np.shape(lambda_tilde) + (4, 4)``.  Raw, like
    every predictor here: the trace keeps its O(lam^2) defect.  The
    populations are its diagonal and the pair coherence its (3, 0) entry for
    a |gg> input, (0, 3) for |ee>.
    """
    levels, weights, lam = _checked(n, table, lambda_tilde, initial)
    der = table.derived()
    if initial == "gg":
        sign, same, other = 1.0, der.c_gg, der.c_ee
    else:
        sign, same, other = -1.0, der.c_ee, der.c_gg
    l2 = _square(lam)
    coh = (-1j + sign * lam * der.a[levels] + l2 * der.b[levels]) / 2.0
    rho = np.zeros(coh.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = 0.5 + l2 * same[levels]
    rho[..., 3, 3] = 0.5 + l2 * other[levels]
    rho[..., 1, 1] = rho[..., 2, 2] = rho[..., 1, 2] = rho[..., 2, 1] = l2 * der.c_eg[levels]
    row, col = _COHERENCE[initial]
    rho[..., row, col] = coh
    rho[..., col, row] = np.conj(coh)
    return _per_input(n, weights, rho)


def predict_populations(
    n, lambda_tilde, table: CoefficientTable, initial: str = "gg"
) -> np.ndarray:
    """Raw second-order populations (gg, ge, eg, ee), the diagonal of
    :func:`predict_density_matrix`; their sum may differ from 1."""
    rho = predict_density_matrix(n, lambda_tilde, table, initial)
    return np.diagonal(rho, axis1=-2, axis2=-1).real.copy()


def predict_coherence(
    n, lambda_tilde, table: CoefficientTable, initial: str = "gg"
):
    """Pair coherence of :func:`predict_density_matrix`: <ee|rho|gg> for a
    |gg> input, <gg|rho|ee> for |ee>."""
    rho = predict_density_matrix(n, lambda_tilde, table, initial)
    return rho[(..., *_COHERENCE[initial])][()]


def predict_phase(
    n: int | ThermalDistribution,
    lambda_tilde,
    table: CoefficientTable,
    initial: str = "gg",
    order: int = 2,
):
    """Relative phase of the pair coherence (ideal value -pi/2, or +pi/2
    for the idle pair of a |ge>/|eg> input, which has no first-order shift).

    The expanded angle -pi/2 +- lam a + lam^2 Re b, not the argument of
    :func:`predict_coherence`.  Thermal inputs are the probability-weighted
    mean of the per-level phase.
    """
    levels, weights, lam = _checked(n, table, lambda_tilde, initial, QUBIT_LABELS, True)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if initial in ("ge", "eg"):
        return np.full(np.shape(n) + lam.shape, math.pi / 2.0)[()]
    der = table.derived()
    sign = 1.0 if initial == "gg" else -1.0
    phases = -math.pi / 2.0 + sign * lam * der.a[levels]
    if order == 2:
        phases = phases + _square(lam) * der.b[levels].real
    return _per_input(n, weights, phases)


def predict_fidelity(
    n: int | ThermalDistribution, lambda_tilde, table: CoefficientTable
):
    """Overlap of the reduced state with the ideal Bell output, to O(lam^2).

    1 + (lam^2/2)(c_gg + c_ee - Im b); same for gg and ee inputs.
    """
    levels, weights, lam = _checked(n, table, lambda_tilde, thermal=True)
    der = table.derived()
    vals = 1.0 + 0.5 * _square(lam) * (
        der.c_gg[levels] + der.c_ee[levels] - der.b[levels].imag
    )
    return _per_input(n, weights, vals)


def predict_purity(n, lambda_tilde, table: CoefficientTable):
    """Tr(rho^2) of the reduced state truncated at O(lam^2) (gg or ee input
    alike); it differs from Tr(rho^2) of :func:`predict_density_matrix` at
    O(lam^3)."""
    levels, weights, lam = _checked(n, table, lambda_tilde)
    der = table.derived()
    vals = 1.0 - _square(lam) * (
        der.b[levels].imag - 0.5 * _square(der.a[levels]) - der.c_gg[levels] - der.c_ee[levels]
    )
    return _per_input(n, weights, vals)


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


def save_coefficient_table(table: CoefficientTable, path) -> str:
    """Write a versioned, byte-reproducible JSON dump of the tables, and
    return the provenance digest written into it.

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
    blobs = {key: _table_bytes(getattr(table, name)) for key, name in _TABLE_FIELDS.items()}
    digest = table._digest(blobs.values())
    doc = {
        "schema": TABLE_SCHEMA,
        "package_version": __version__,
        "params": table.parameter_dict(),
        "provenance_sha256": digest,
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
    # The text is json.dumps(doc with "tables", sort_keys=True) without running
    # the base64 through the string escaper: it needs no escaping, and
    # "tables" sorts after every other key.  One write of the whole text:
    # json.dump streams through the pure-Python encoder, about twice as slow.
    tables = ",".join(f'"{key}":"{base64.b64encode(blob).decode("ascii")}"'
                      for key, blob in sorted(blobs.items()))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))[:-1]
    text += ',"tables":{' + tables + "}}\n"
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest


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
    the predictors, and the verified digest for
    :attr:`CoefficientTable.provenance_hash`.
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
    table._provenance = doc["provenance_sha256"]
    return table

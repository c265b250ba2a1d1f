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
:func:`_corrections`, the one fold from the tables to those states.  Both
derivatives are exact sums over the closed-form lam = 0 eigenbasis
(Daleckii-Krein divided differences of f(x) = e^{-iTx}: Higham, *Functions of
Matrices*, SIAM 2008, section 3.2; Najfeld & Havel, Adv. Appl. Math. 16,
1995), cut at a Fock margin above the table that leaves every entry
converged to roundoff.  Every displaced energy is k - omega^2 and every
idle one an integer l, so the divided differences of a displaced and an
idle state depend on the pair only through the integer gap k - l, up to
1-D phases: they are evaluated once per gap and gathered onto the pairs
(a Toeplitz fill).  The sums use the symmetries the oracle's blocks use:
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

import errno
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

TABLE_SCHEMA = "msgate/coefficients/4"
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


def _divided_difference(gaps: np.ndarray, offset: float, t: float) -> np.ndarray:
    """The sinc factor of f[x, y] of f(x) = e^{-i t x}, once per energy gap.

    f[x, y] = -it e^{-itx/2} e^{-ity/2} sinc(t w / 2 pi) with w = x - y, and
    the same expression is f'(x) where w == 0, so it needs no cancellation.
    Where x and y are lam = 0 energies, w = gap - offset for an integer gap
    and the offset omega^2: the sinc is evaluated once per entry of
    ``gaps`` and gathered onto the state pairs, and the phases stay 1-D.
    """
    return np.sinc(t * (gaps - offset) / (2.0 * math.pi))


def _confluent_difference(gaps: np.ndarray, offset: float, t: float) -> np.ndarray:
    """The phi2 factor of f[x, x, y] of f(x) = e^{-i t x}, once per energy gap:
    f[x, x, y] = e^{-itx} (-t^2) phi2(z) with z = -it(y - x) and
    phi2(z) = (e^z - 1 - z) / z^2 (Hochbruck & Ostermann, "Exponential
    integrators", Acta Numerica 19, 2010), where y - x = gap - offset for an
    integer gap and the offset omega^2.  phi2 is evaluated once per entry of
    ``gaps`` and gathered onto the state pairs; the prefactor stays 1-D.

    e^z - 1 - z cancels, so e^z and z are read off one gap w = t(gap - offset).
    The numerator then carries only the rounding of w and of one
    exponential, a few 1e-14 relative where |z| is just over 0.1, however
    large t*x is, and needs no exact-product correction.  Where |z| < 0.1
    (z == 0 included) phi2 is its Taylor series, in Horner form.
    """
    w = t * (gaps - offset)  # z = -iw, z^2 = -w^2
    phi2 = np.divide(1.0 - 1j * w - np.exp(-1j * w), w * w,
                     out=np.empty(w.shape, dtype=complex), where=w != 0)
    small = np.abs(w) < 0.1
    if small.any():
        zs = -1j * w[small]
        acc = np.full(zs.shape, 1.0 / math.factorial(9), dtype=complex)
        for k in range(8, 1, -1):
            acc = acc * zs + 1.0 / math.factorial(k)
        phi2[small] = acc
    return phi2


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
    gap_index: np.ndarray  # (size, h) index of the gap k - l in the spectrum's gaps
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
    displaced and l for the idle ones, so a displaced and an idle energy
    differ by an integer gap k - l less the offset omega^2, and every
    divided difference is a function of that gap: a sector's (size, h)
    grid of them is one gather, through ``gap_index``, from the 2 size - 1 gaps.
    One spectrum serves both table orders of a build.
    """

    t: float
    offset: float  # omega^2
    gaps: np.ndarray  # (2 size - 1,) integer gaps k - l as floats, ascending from 1 - size
    e_disp: np.ndarray  # (size,) energies of the displaced states of either sector
    d: np.ndarray  # (dim, size): <m|D(omega)|k> for the table rows m
    sectors: tuple[_Sector, _Sector]  # parity +1 (even idle levels), then -1


def _spectrum(params: DimensionlessGateParams, cutoff: FockCutoff) -> _Spectrum:
    _require_closed_loop(params)
    omega = params.omega_tilde
    dim = cutoff.dim
    size = dim + _fock_margin(cutoff.n_max, omega)
    d = displacement_matrix(omega, size)  # rows m, columns k: <m|D(omega)|k>
    t, offset = params.tau_gate, omega * omega
    levels = np.arange(size, dtype=float)
    e_disp = levels - offset
    gaps = np.arange(1.0 - size, size)
    sinc = _divided_difference(gaps, offset, t)
    phase_disp = np.exp(-0.5j * t * e_disp)[:, None]
    sectors = []
    for lowest in (0, 1):
        e_idle = levels[lowest::2]
        gap_index = np.subtract.outer(np.arange(size), np.arange(lowest, size, 2)) + (size - 1)
        b = d.conj().T[:, lowest::2]
        f1 = -1j * t * (phase_disp * np.exp(-0.5j * t * e_idle)) * sinc[gap_index]
        sectors.append(_Sector(e_idle, gap_index, b, f1 * b, f1.T * b.conj().T,
                               slice(lowest, dim, 2), (dim - lowest + 1) // 2))
    return _Spectrum(t, offset, gaps, e_disp, d[:dim], tuple(sectors))


def _second_difference(levels, cross, x, phi2, hop, t: float) -> np.ndarray:
    """One side of a sector of (1/2) d^2U/dlam^2 = sum_j f[E_i, E_j, E_k] B_ij B_jk.

    Both hops cross between the sides, so i and k lie on the same one (energies
    ``x``, integer ``levels``) and j on the other; ``hop`` is B from this side
    to the other.  Where i != k, f[E_i, E_j, E_k] =
    (f[E_i, E_j] - f[E_j, E_k]) / (E_i - E_k): ``cross`` is the numerator
    summed over j, and E_i - E_k is the integer gap.  A side's energies are
    distinct, so the confluent terms f[x_i, x_i, y_j] make up its diagonal:
    e^{-itx_i} (-t^2) phi2_ij, with ``phi2`` gathered from
    :func:`_confluent_difference`.
    """
    gap = np.subtract.outer(levels, levels)
    np.fill_diagonal(gap, 1.0)
    c = cross / gap
    confluent = -t * t * np.exp(-1j * t * x)[:, None] * phi2
    np.fill_diagonal(c, (confluent * hop * hop.conj()).sum(axis=1))
    return c


def compute_first_order_table(
    params: DimensionlessGateParams,
    cutoff: FockCutoff,
    *,
    spectrum: _Spectrum | None = None,
) -> np.ndarray:
    """First-order table; i_table[m, n] = (i/2) Int e^{iG} <m|D(F)|n> dt.

    Read off dU/dlam at lam = 0 on the |gg, n> and |ge, n> columns.
    ``spectrum`` is the lam = 0 eigenbasis of ``params`` and ``cutoff``
    when the caller has built it already.
    """
    sp = _spectrum(params, cutoff) if spectrum is None else spectrum
    i_table = np.empty((cutoff.dim, cutoff.dim), dtype=complex)
    for s in sp.sectors:
        # Inverse of _corrections' first order: row m is -1/2 of the
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
    # y - x is l - k + omega^2 from a displaced row, k - l - omega^2 from an idle one.
    phi2_disp = _confluent_difference(-sp.gaps, -sp.offset, sp.t)
    phi2_idle = _confluent_difference(sp.gaps, sp.offset, sp.t)
    j3 = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    disp = []
    for s in sp.sectors:
        b_id = s.b.conj().T
        c_disp = _second_difference(levels, s.g_di @ b_id - s.b @ s.g_id,
                                    sp.e_disp, phi2_disp[s.gap_index], s.b, sp.t)
        h = s.below  # the tables read the idle side only under dim
        cross = s.g_id[:h] @ s.b[:, :h] - b_id[:h] @ s.g_di[:, :h]
        c_idle = _second_difference(s.e_idle[:h], cross, s.e_idle[:h],
                                    phi2_idle[s.gap_index.T[:h]], b_id[:h], sp.t)
        disp.append(sp.d @ c_disp @ sp.d.conj().T)
        j3[s.rows, s.rows] = -0.5 * c_idle
    # Inverse of _corrections' second order: on the rows of its own parity a
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


def _digest(params: dict) -> str:
    """The provenance hash of the table whose parameter dict is ``params``."""
    doc = {"schema": TABLE_SCHEMA, **params}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


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
        """sha256 of the file schema and the parameters: it names the gate.
        The tables are a function of the parameters, and a load rebuilds
        them and checks the stored scalars, so the digest need not hash
        them."""
        return _digest(self.parameter_dict())

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
    i_table = compute_first_order_table(params, cutoff, spectrum=sp)
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
    """Reduce the coefficient tables to the scalar coefficient arrays.

    ``a`` is read off the first-order diagonal.  The rest are the O(lam^2)
    moments of the reduced state of a |gg, n> input, whose psi0 has the
    amplitudes e^{i pi/4}/sqrt2 on |gg, n> and -i times that on |ee, n>,
    summed over the row m of the blocks of :func:`_corrections`:

    * c_gg = sum_m |psi1_gg|^2 - Re psi2_gg[n, n] - Im psi2_gg[n, n];
    * c_ee = sum_m |psi1_ee|^2 - Re psi2_ee[n, n] + Im psi2_ee[n, n];
    * c_eg = sum_m |psi1_ge|^2 (the eg block is the same);
    * b = 2 sum_m psi1_ee conj(psi1_gg) - (1 - i)(conj psi2_gg[n, n] + psi2_ee[n, n]).
    """
    (p1_gg, p1_ge, _, p1_ee), (p2_gg, _, _, p2_ee) = _corrections("gg", table)
    dim = p1_gg.shape[0]

    diag_i = np.diag(table.i_table)
    a = np.real(4.0 * diag_i / _LINE)
    a_imag = float(np.abs(np.imag(4.0 * diag_i / _LINE)).max())

    gg2 = np.abs(p1_gg) ** 2
    ee2 = np.abs(p1_ee) ** 2
    eg2 = np.abs(p1_ge) ** 2
    ee_gg = p1_ee * p1_gg.conj()  # zero on the diagonal

    d_gg = np.diag(p2_gg)
    d_ee = np.diag(p2_ee)
    c_gg = -d_gg.real - d_gg.imag + gg2.sum(axis=0)
    c_ee = -d_ee.real + d_ee.imag + ee2.sum(axis=0)
    c_eg = eg2.sum(axis=0)
    b = -(1.0 - 1.0j) * (d_gg.conj() + d_ee) + 2.0 * ee_gg.sum(axis=0)

    guard = 5
    lo = max(0, dim - guard)
    tails = {
        "c_gg": gg2[lo:, :].sum(axis=0),
        "c_ee": ee2[lo:, :].sum(axis=0),
        "c_eg": eg2[lo:, :].sum(axis=0),
        "b": 2.0 * np.abs(ee_gg[lo:, :].sum(axis=0)),
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

def _corrections(label: str, table: CoefficientTable):
    """psi1 and psi2 of |label, n> for every level n at once.

    Each order is a tuple of its four qubit blocks (gg, ge, eg, ee), each
    ``(dim, dim)`` with [m, n] the amplitude on |q, m> of the correction to
    |label, n>.  The drive conserves the parity of (qubit excitation +
    phonon number), so a block is masked to even m - n (E) or odd (O).  For
    gg, with I the first-order table, psi1 is
    (E(I + I^T), O iI^T, O iI^T, E(I - I^T)): column n of I feeds the
    diagonal-in-qubit blocks, row n (the conjugate-route hops) all four.
    psi2 is (E J+, O (i/2)(J1 - J2), the same, -E J-): the two-hop paths that
    visit the idle branch pair leave odd-parity weight on the cross blocks.
    ee mirrors gg, and ge and eg swap the masks.  This is the one fold from
    the tables to states: the two corrections read column n of it,
    :func:`derived_scalars` sums over it, and the table builders invert it.
    """
    if label not in QUBIT_LABELS:
        raise ValueError(f"unknown qubit label {label!r}")
    it, j1, j2 = table.i_table, table.j1, table.j2
    outer = _even_mask(it.shape[0])  # mask of the gg and ee blocks; ge and eg take ~outer
    if label == "gg":
        first = (it + it.T, 1j * it.T, it - it.T)
        second = (table.j_plus, 0.5j * (j1 - j2), -table.j_minus)
    elif label == "ee":
        first = (-(it - it.T), 1j * it.T, -(it + it.T))
        second = (-table.j_minus, -0.5j * (j1 - j2), table.j_plus)
    else:  # ge / eg behave identically
        outer = ~outer
        first = (-1j * it, np.zeros_like(it), -1j * it)
        second = (-0.5j * (j1 + j2), 0.5 * (j1 - j2), 0.5j * (j1 + j2))

    def blocks(gg, cross, ee):
        mid = np.where(outer, 0.0, cross)
        return np.where(outer, gg, 0.0), mid, mid, np.where(outer, ee, 0.0)

    return blocks(*first), blocks(*second)


def _column(blocks, n: int, table: CoefficientTable) -> np.ndarray:
    """Column n of the four qubit blocks, qubit-major: the state amplitudes."""
    if not 0 <= n <= table.n_max:
        raise ValueError(f"Fock level {n} outside table range 0..{table.n_max}")
    return np.concatenate([block[:, n] for block in blocks])


def first_order_correction(label: str, n: int, table: CoefficientTable) -> np.ndarray:
    """Amplitudes of the state correction psi1 on |label, n>; the full state
    is psi0 - lam*psi1 - lam^2*psi2.  Column n of the first-order blocks of
    :func:`_corrections`.
    """
    return _column(_corrections(label, table)[0], n, table)


def second_order_correction(label: str, n: int, table: CoefficientTable) -> np.ndarray:
    """State correction psi2 on |label, n> (see :func:`first_order_correction`):
    column n of the second-order blocks of :func:`_corrections`.
    """
    return _column(_corrections(label, table)[1], n, table)


def predicted_state(
    label: str,
    n: int,
    lambda_tilde: float,
    table: CoefficientTable,
) -> np.ndarray:
    """Amplitudes of the second-order final state psi0 - lam*psi1 - lam^2*psi2
    (unnormalized), at one lambda.  Its lower orders are sums of the public
    pieces: psi0 is :func:`~msgate.ideal.ideal_output_state`, and the
    first-order state subtracts lam times :func:`first_order_correction`."""
    if np.ndim(lambda_tilde):
        raise ValueError(f"predicted_state takes one lambda_tilde, not an array of "
                         f"shape {np.shape(lambda_tilde)}")
    _check_lambda(lambda_tilde)
    return (ideal_output_state(label, n, table.cutoff)
            - lambda_tilde * first_order_correction(label, n, table)
            - lambda_tilde * lambda_tilde * second_order_correction(label, n, table))


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
# the predictors cover.
_COHERENCE = {"gg": (3, 0), "ee": (0, 3)}


def _checked(
    n, table: CoefficientTable, lambda_tilde=0.0, initial: str = "gg",
    thermal: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(levels, weights, lam) of one predictor call, every input checked.

    ``lam`` is from :func:`_check_lambda`.  ``initial`` must be gg or ee,
    the inputs every predictor covers.  ``levels`` are the Fock levels of
    ``n`` (a level, a 1-D sequence of levels, or with ``thermal`` a
    ThermalDistribution) down a leading axis, shaped to broadcast against
    ``lam``, and ``weights`` their probabilities (ones for Fock input).  A
    level the table does not trust raises TruncationError, the first in order.
    """
    lam = _check_lambda(lambda_tilde)
    if initial not in QUBIT_LABELS:
        raise ValueError(f"unknown qubit label {initial!r}")
    if initial not in _COHERENCE:
        raise ValueError(f"this predictor covers 'gg' and 'ee' inputs, not {initial!r}")
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
    l2 = lam * lam
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
):
    """Relative phase of the pair coherence of a |gg> or |ee> input (ideal
    value -pi/2), to second order.

    The expanded angle -pi/2 +- lam a + lam^2 Re b, not the argument of
    :func:`predict_coherence`.  Thermal inputs are the probability-weighted
    mean of the per-level phase.
    """
    levels, weights, lam = _checked(n, table, lambda_tilde, initial, thermal=True)
    der = table.derived()
    sign = 1.0 if initial == "gg" else -1.0
    phases = -math.pi / 2.0 + sign * lam * der.a[levels] + lam * lam * der.b[levels].real
    return _per_input(n, weights, phases)


def predict_fidelity(
    n: int | ThermalDistribution, lambda_tilde, table: CoefficientTable
):
    """Overlap of the reduced state with the ideal Bell output, to O(lam^2).

    1 + (lam^2/2)(c_gg + c_ee - Im b); same for gg and ee inputs.
    """
    levels, weights, lam = _checked(n, table, lambda_tilde, thermal=True)
    der = table.derived()
    vals = 1.0 + 0.5 * lam * lam * (
        der.c_gg[levels] + der.c_ee[levels] - der.b[levels].imag
    )
    return _per_input(n, weights, vals)


def predict_purity(n, lambda_tilde, table: CoefficientTable):
    """Tr(rho^2) of the reduced state truncated at O(lam^2) (gg or ee input
    alike); it differs from Tr(rho^2) of :func:`predict_density_matrix` at
    O(lam^3)."""
    levels, weights, lam = _checked(n, table, lambda_tilde)
    der = table.derived()
    a = der.a[levels]
    vals = 1.0 - lam * lam * (
        der.b[levels].imag - 0.5 * a * a - der.c_gg[levels] - der.c_ee[levels]
    )
    return _per_input(n, weights, vals)


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

def _array_to_json(arr: np.ndarray) -> dict:
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _array_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def _write_all(outputs: dict[Path, str]) -> None:
    """Write every file or none, creating missing parent directories: each
    text goes to a temporary file beside its path, and the temporaries
    replace their paths only once all are written, so a reader never sees a
    partial file and a path that cannot be written leaves the others, and
    any earlier file there, untouched."""
    tmps = {}
    try:
        for path, text in outputs.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_dir():  # os.replace would fail only after earlier renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            tmps[path] = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
            with open(tmps[path], "w", newline="") as fh:
                fh.write(text)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    finally:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)


def save_coefficient_table(table: CoefficientTable, path) -> str:
    """Write a versioned, byte-reproducible JSON record of the gate, and
    return the provenance digest written into it.

    The file names the gate, not its tables: the schema, the package
    version, the parameter dict, its digest
    (:attr:`CoefficientTable.provenance_hash`) and the ``derived`` block of
    per-level scalars, one compact, key-sorted JSON object (about 5 kB at
    n_max 40).  A load rebuilds the tables from the parameters.  No
    timestamps: identical parameters produce identical bytes.  Missing
    parent directories of ``path`` are created.  The bytes go to a
    temporary file beside ``path`` that replaces it only once complete
    (:func:`_write_all`), so a reader never sees a partial file and a
    failed write leaves nothing.
    """
    der = table.derived()
    digest = table.provenance_hash
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
    _write_all({Path(path): json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"})
    return digest


def _check_stored_derived(stored: dict, der: DerivedScalars) -> None:
    """Compare a file's ``derived`` block with the scalars of the rebuilt tables."""
    for name in ("a", "b", "c_gg", "c_ee", "c_eg", "structure_residual"):
        value = stored[name]
        got = _array_from_json(value) if name == "b" else np.asarray(value, dtype=float)
        want = np.asarray(getattr(der, name))
        if got.shape != want.shape or not np.all(np.abs(got - want) <= 1e-12 * np.abs(want)):
            raise ValueError(
                f"coefficient file derived {name!r} does not match its rebuilt tables")
    if not np.array_equal(np.asarray(stored["trusted"]), der.trusted.astype(int)):
        raise ValueError("coefficient file derived 'trusted' does not match its rebuilt tables")


def load_coefficient_table(path) -> CoefficientTable:
    """Load a table written by :func:`save_coefficient_table`: rebuild it
    from the stored parameters and check it against the file.

    Checked in order: the schema (only the current one, schema 4, loads; a
    file of schema 1, 2 or 3 is refused with a message to rebuild it), the
    stored digest against the stored parameters, then the rebuild by
    :func:`compute_coefficient_table`, whose parameter dict must equal the
    stored one (so a ``phi``, ``pulse`` or key it does not make is refused),
    :meth:`CoefficientTable.check_health` (else
    :class:`UnhealthyTableError`), and last the stored ``derived`` block
    against the scalars of the rebuilt tables (1e-12 relative, ``trusted``
    exactly).  A file that is not a JSON object, lacks an entry, holds one
    of the wrong type or fails any check but health raises ``ValueError``.
    The rebuilt scalars are kept for the predictors.  A load costs a build:
    about 1.8 ms at n_max 40 (best in-process time on 2 cores).
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
    if doc["provenance_sha256"] != _digest(p):
        raise ValueError(
            "coefficient file provenance hash does not match its parameters: "
            "rebuild the table with 'msgate coefficients'"
        )
    table = compute_coefficient_table(
        p["omega_tilde"], p["n_max"], QuadratureSpec(p["panels_1d"], p["panels_2d"]),
        p["tau_gate"],
    )
    if table.parameter_dict() != p:
        raise ValueError("coefficient file parameters are not those of a table "
                         "'msgate coefficients' builds")
    table.check_health()
    _check_stored_derived(doc["derived"], table.derived())
    return table

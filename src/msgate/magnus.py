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

Predictors evaluate a grid: ``n`` is a Fock level, a 1-D sequence of
levels or a ThermalDistribution, ``lambda_tilde`` a float or a 1-D array,
and the result has shape ``np.shape(n) + np.shape(lambda_tilde)`` (a
thermal mode adds no axis; populations add ``(4,)``, the density matrix
``(4, 4)``); scalar inputs give numpy scalars.  Every predictor's reduced
state is linear in the per-level scalars, so a thermal mode is its
probability-weighted mean scalars, taken in level order by one helper,
``_scalars``, and each closed form is evaluated once at them: the thermal
purity is that of the mixture.  They return *raw* perturbative quantities:
populations need not sum to one and the density matrix keeps its O(lam^2)
trace defect visible.

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
The coupling omega is real, so D(omega) and every S_z hop between the sides
are real: the displaced-to-idle block of dU/dlam is the transpose of the
idle-to-displaced one, which is all a sector keeps; the second-order
numerator of each side is the antisymmetric part of one matrix product; and
phi2 of a displaced row is the conjugate of phi2 of an idle one, so one
evaluation over the gaps serves both sides.
A sector adds a D(omega) sandwich of its displaced block, D C D^T, to j1
and, with the sign (-1)^m, to j2; its idle block to j3 on the rows and
columns of its parity; and its displaced-to-idle block of dU/dlam, times
D^T, to the i_table rows of its parity.
A table is named by the three numbers that build it: ``n_max``,
``omega_tilde`` and ``tau_gate``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import __version__
from .hilbert import (
    FockCutoff,
    ThermalDistribution,
    _count,
    _finite,
    _label,
    _level_sum,
    _number,
    displacement_matrix,
    level_weights,
)
from .ideal import (DimensionlessGateParams, ideal_output_state, loop_functions,
                     relative_phase_pair)

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

TABLE_SCHEMA = "msgate/coefficients/5"
LAMBDA_HARD_CAP = 0.5

# Complex line containing every first-order table entry on a square pulse.
_LINE = -1.0 + 1.0j

# Largest Fock-sum weight a derived scalar may leave in the last table rows,
# and largest departure of the first-order table from its line, relative to
# the slopes, that a usable table may have.
_TAIL_TOLERANCE = 1e-8


class TruncationError(RuntimeError):
    """A requested Fock level sits too close to the table edge to trust."""


class UnhealthyTableError(RuntimeError):
    """A table has non-finite entries or leaves the first-order line."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel counts of the quadrature route, validated, stored as the
    Python ints of the count rule and kept as ``CoefficientTable.quad``.
    No table value, file or digest depends on them: the tables are exact."""

    panels_1d: int = 2**14
    panels_2d: int = 2**10

    def __post_init__(self) -> None:
        for name in ("panels_1d", "panels_2d"):
            v = _count(name, getattr(self, name), 2)
            if v & (v - 1):
                raise ValueError(f"{name} must be a power of two >= 2, got {v}")
            object.__setattr__(self, name, v)


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
    S_z couples the two sides only, by <E_k|S_z|I_l> = <l|D(omega)|k>, which
    is real for the real coupling omega: the hop from the displaced side to
    the idle one is its transpose, and dU/dlam's displaced-to-idle block is
    the transpose of ``g_di``.

    In computational coordinates (q = gg, ge, eg, ee), <q, m|E_k> is
    <m|D(omega)|k> times (1, 0, 0, -1)/sqrt2 where (-1)^m = sigma and
    i (0, 1, 1, 0)/sqrt2 elsewhere, and <q, m|I_l> is [m == l] (1, 0, 0, 1)/sqrt2:
    scalars per q and parity, which the table inverses fold into signs and
    halves.  So a sector's displaced side reaches the tables through one
    product with D(omega) each way, and its idle side lands on the table
    rows (and columns) ``rows``, the levels of its parity under dim.
    """

    gap_index: np.ndarray  # (size, h) index of the gap k - l in the spectrum's gaps
    b: np.ndarray  # S_z from idle to displaced states, (size, h), real valued
    g_di: np.ndarray  # dU/dlam at lam = 0 (Daleckii-Krein), F1 o B: idle to displaced
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
    ``d`` is real valued, as omega is real, though complex typed.  One
    spectrum serves both table orders of a build.
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
        b = d.T[:, lowest::2]
        f1 = -1j * t * (phase_disp * np.exp(-0.5j * t * e_idle)) * sinc[gap_index]
        # Column-major, so g_di.T has unit-stride rows: at n_max 0 the
        # first-order product is a BLAS dot, whose rounding depends on the
        # operand stride.
        sectors.append(_Sector(gap_index, b, np.multiply(f1, b, order="F"),
                               slice(lowest, dim, 2), (dim - lowest + 1) // 2))
    return _Spectrum(t, offset, gaps, e_disp, d[:dim], tuple(sectors))


def _second_difference(c, phase, phi2, hop) -> np.ndarray:
    """One side of a sector of (1/2) d^2U/dlam^2 = sum_j f[E_i, E_j, E_k] B_ij B_jk,
    ``c`` with its diagonal filled in place.

    Both hops cross between the sides, so i and k lie on the same one and j
    on the other; ``hop`` is B from this side to the other, real.  Where
    i != k, f[E_i, E_j, E_k] = (f[E_i, E_j] - f[E_j, E_k]) / (E_i - E_k), and
    E_i - E_k is an integer gap.  The numerator summed over j is
    (G B - B G)_ik with G = F1 o B the first derivative; B and G are
    symmetric, so it is the antisymmetric part P - P^T of the one product
    P = G B, and the caller gives ``c`` as that part over the gaps.  A side's
    energies x are distinct, so the confluent terms f[x_i, x_i, y_j] make up
    its diagonal: ``phase`` (-t^2) e^{-itx_i} times phi2_ij, with ``phi2``
    gathered from :func:`_confluent_difference`.
    """
    np.fill_diagonal(c, (phase[:, None] * phi2 * hop * hop).sum(axis=1))
    return c


def compute_first_order_table(cutoff: FockCutoff, *, spectrum: _Spectrum) -> np.ndarray:
    """First-order table; i_table[m, n] = (i/2) Int e^{iG} <m|D(F)|n> dt.

    Read off dU/dlam at lam = 0 on the |gg, n> and |ge, n> columns.
    ``spectrum`` is the lam = 0 eigenbasis of the gate on ``cutoff``,
    which :func:`compute_coefficient_table` builds once for both orders.
    """
    i_table = np.empty((cutoff.dim, cutoff.dim), dtype=complex)
    for s in spectrum.sectors:
        # Inverse of _corrections' first order: row m is -1/2 of the
        # displaced-to-idle block, g_di's transpose, of the sector whose idle
        # levels share its parity.
        i_table[s.rows] = -0.5 * (s.g_di[:, :s.below].T @ spectrum.d.T)
    return i_table


def compute_second_order_tables(
    cutoff: FockCutoff,
    quad: QuadratureSpec = QuadratureSpec(),
    *,
    spectrum: _Spectrum,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order tables (j1, j2, j3) over the time-ordered triangle.

    Read off (1/2) d^2U/dlam^2 at lam = 0 on the |gg, n> and |ge, n>
    columns.  ``quad`` changes nothing; ``spectrum`` as in
    :func:`compute_first_order_table`.  What the two sectors share, the
    level gaps and the phases of the confluent terms, is formed once.
    """
    t, levels = spectrum.t, np.arange(spectrum.e_disp.size, dtype=float)
    # Formed once for both sectors: the level gaps and their reciprocals,
    # whose idle blocks are those of the levels the idle states sit on, and
    # the phases (-t^2) e^{-itx} of the displaced energies and of the idle
    # ones, which are their levels.
    gap = np.subtract.outer(levels, levels)
    np.fill_diagonal(gap, 1.0)
    inv_gap = 1.0 / gap
    phase_disp = -t * t * np.exp(-1j * t * spectrum.e_disp)
    phase_idle = -t * t * np.exp(-1j * t * levels)
    # y - x is k - l - omega^2 from an idle row and its negative from a
    # displaced one, where phi2 takes the conjugate value (w is real).
    phi2_idle = _confluent_difference(spectrum.gaps, spectrum.offset, t)
    phi2_disp = np.conj(phi2_idle)
    j3 = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    disp = []
    for s in spectrum.sectors:
        # A product with the real reciprocal is what numpy's complex-by-real
        # division computes, away from zero.
        p = s.g_di @ s.b.T
        c_disp = _second_difference((p - p.T) * inv_gap, phase_disp, phi2_disp[s.gap_index], s.b)
        h = s.below  # the tables read the idle side only under dim
        b = s.b[:, :h]
        # j3 keeps the idle block as it is, exact zeros too, so it keeps the
        # division, whose zero signs the product does not always give.
        q = s.g_di[:, :h].T @ b
        c_idle = _second_difference((q - q.T) / gap[s.rows, s.rows], phase_idle[s.rows],
                                    phi2_idle[s.gap_index.T[:h]], b.T)
        disp.append(spectrum.d @ c_disp @ spectrum.d.T)
        j3[s.rows, s.rows] = -0.5 * c_idle
    # Inverse of _corrections' second order: on the rows of its own parity a
    # sector's D C D^T is -(j1 + j2), on the others -(j1 - j2).
    sign = np.where(np.arange(cutoff.dim) % 2 == 0, 1.0, -1.0)[:, None]  # (-1)^m
    return -0.5 * (disp[0] + disp[1]), -0.5 * sign * (disp[0] - disp[1]), j3


def _digest(params: dict) -> str:
    """The provenance hash of the table whose parameter dict is ``params``."""
    doc = {"schema": TABLE_SCHEMA, **params}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Coefficient tables for one calibrated gate, plus their provenance.

    A value, read-only once built, compared and hashed by identity (its
    arrays have no single truth value).  The constructor refuses a non-finite
    entry with :class:`UnhealthyTableError`, marks the four tables
    read-only and reduces them once, by :func:`derived_scalars`, to the
    scalars :meth:`derived` returns.  The structure policy is not applied
    here but by :meth:`check_health`, where the scalars are read: an
    off-line gate builds, saves and loads a legitimate table that every
    predictor refuses.
    """

    params: DimensionlessGateParams
    cutoff: FockCutoff
    quad: QuadratureSpec
    i_table: np.ndarray
    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray
    _derived: DerivedScalars = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("i_table", "j1", "j2", "j3"):
            if not np.isfinite(getattr(self, name)).all():
                raise UnhealthyTableError(f"table {name} has non-finite entries")
        for entries in (self.i_table, self.j1, self.j2, self.j3):
            entries.flags.writeable = False
        object.__setattr__(self, "_derived", derived_scalars(self))

    @property
    def n_max(self) -> int:
        return self.cutoff.n_max

    def parameter_dict(self) -> dict:
        """The three numbers that build the tables, and so name them."""
        return {"n_max": self.n_max, "omega_tilde": self.params.omega_tilde,
                "tau_gate": self.params.tau_gate}

    @property
    def provenance_hash(self) -> str:
        """sha256 of the file schema and the parameters: it names the gate.
        The tables are a function of the parameters, and a load rebuilds
        them and checks the stored scalars, so the digest need not hash
        them."""
        return _digest(self.parameter_dict())

    def check_health(self) -> None:
        """Raise :class:`UnhealthyTableError` unless the first-order table
        is on its (-1 + i) line: twice the structure residual, relative to
        the slopes (``max(1, max|a|)``; they grow with the loop count, about
        8K), must be below ``_TAIL_TOLERANCE``.  Twice, because the slope
        4 i_nn / (-1 + i) leaves the real axis by 2 |Re + Im| of i_nn.
        Finiteness is checked at construction.  The one structure rule, and
        no n_max mends a table it refuses.  Called where the scalars are
        read, by :func:`_scalars`, so every predictor, the phase slope and
        both fringe engines refuse an off-line table alike, built or loaded;
        and by ``msgate coefficients`` before it writes one."""
        der = self._derived
        off = 2.0 * der.structure_residual / max(1.0, float(np.abs(der.a).max()))
        if off >= _TAIL_TOLERANCE:
            raise UnhealthyTableError(
                f"structure residual {der.structure_residual:.3e} takes the slopes {off:.3e} "
                f"of their size off the real axis, not below {_TAIL_TOLERANCE:.0e}; "
                "the first-order table is off its line"
            )

    def derived(self) -> DerivedScalars:
        """The per-level scalars, reduced once at construction."""
        return self._derived

    def save(self, path) -> str:
        return save_coefficient_table(self, path)


def compute_coefficient_table(
    omega_tilde: float = DimensionlessGateParams.omega_tilde,
    n_max: int = 40,
    quad: QuadratureSpec = QuadratureSpec(),
    tau_gate: float = DimensionlessGateParams.tau_gate,
) -> CoefficientTable:
    """Build all tables for a calibrated square-pulse gate from one
    lam = 0 eigenbasis, shared by both table orders.

    The eigenbasis is :func:`msgate.hilbert.displacement_matrix` at
    ``omega_tilde``, whose rounding grows along its columns with
    |omega_tilde| and the spectrum's size.  Against the same recurrence in
    60 digits the tables move by 6.7e-13 at omega_tilde 0.5 and n_max 120,
    but by 3.9e-10 at omega_tilde 1.5 and n_max 40 and 2.4e-4 at n_max 120
    (``a`` by 3.3e-5), and no check catches that: such a table passes
    :meth:`CoefficientTable.check_health`, and a load rebuilds the same
    digits.  The CLI builds only calibrated gates, |omega_tilde| <= 1/2."""
    cutoff = FockCutoff(n_max)
    if cutoff.n_max > 120:
        raise ValueError(
            "n_max beyond 120 is past the range where the Fock margin of the "
            "spectral sums is checked (doubling it moves no entry by over 1e-13)"
        )
    params = DimensionlessGateParams(omega_tilde=omega_tilde, tau_gate=tau_gate)
    sp = _spectrum(params, cutoff)
    i_table = compute_first_order_table(cutoff, spectrum=sp)
    j1, j2, j3 = compute_second_order_tables(cutoff, quad, spectrum=sp)
    return CoefficientTable(params, cutoff, quad, i_table, j1, j2, j3)


@dataclass(frozen=True)
class DerivedScalars:
    """Per-Fock-level scalars entering every closed-form predictor.

    ``trusted[n]`` is False when the Fock sums feeding level n have visible
    weight in the last five table rows (one of the four ``tails``, c_gg,
    c_ee, c_eg and b, at or above ``_TAIL_TOLERANCE``) or n itself sits
    within five levels of the cutoff: the Fock edge alone, which a larger
    n_max mends.  ``structure_residual`` is max |Re + Im| over the
    first-order table (exactly 0 on its line), the absolute number that
    :meth:`CoefficientTable.check_health` reads against the slopes ``a``.
    A value: the constructor marks every array, the tails' too, read-only,
    and keeps ``tails`` as a read-only mapping.
    """

    a: np.ndarray
    b: np.ndarray
    c_gg: np.ndarray
    c_ee: np.ndarray
    c_eg: np.ndarray
    tails: Mapping[str, np.ndarray]
    trusted: np.ndarray
    structure_residual: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tails", MappingProxyType(dict(self.tails)))
        for arr in (self.a, self.b, self.c_gg, self.c_ee, self.c_eg, self.trusted,
                    *self.tails.values()):
            arr.flags.writeable = False

    def require_trusted(self, n: int) -> None:
        """Raise :class:`TruncationError` unless the table trusts level
        ``n``: a larger n_max mends it.  The line is checked first, by
        :meth:`CoefficientTable.check_health`."""
        n = _count("Fock level n", n, 0, self.a.size - 1)
        if not self.trusted[n]:
            worst = max(float(t[n]) for t in self.tails.values())
            raise TruncationError(
                f"Fock level {n} is not trusted at tolerance "
                f"{_TAIL_TOLERANCE:.1e} (worst tail {worst:.3e}); "
                "rebuild the table with a larger n_max"
            )


def derived_scalars(table: CoefficientTable) -> DerivedScalars:
    """Reduce the coefficient tables to the scalar coefficient arrays.

    A table's constructor runs this once, and :meth:`CoefficientTable.derived`
    returns the result.  Any table reduces, on its line or off it: the
    structure is judged by :meth:`CoefficientTable.check_health`, and
    ``trusted`` holds the Fock-edge rule alone.

    ``a`` is read off the first-order diagonal.  The rest are the O(lam^2)
    moments of the reduced state of a |gg, n> input, whose psi0 has the
    amplitudes e^{i pi/4}/sqrt2 on |gg, n> and -i times that on |ee, n>,
    read off the blocks of :func:`_corrections`, the first order's summed
    over the row m and the second order's diagonal, the only entries of it
    that are read:

    * c_gg = sum_m |psi1_gg|^2 - Re psi2_gg[n, n] - Im psi2_gg[n, n];
    * c_ee = sum_m |psi1_ee|^2 - Re psi2_ee[n, n] + Im psi2_ee[n, n];
    * c_eg = sum_m |psi1_ge|^2 (the eg block is the same);
    * b = 2 sum_m psi1_ee conj(psi1_gg) - (1 - i)(conj psi2_gg[n, n] + psi2_ee[n, n]).
    """
    dim = table.n_max + 1
    p1_gg, p1_ge, _, p1_ee = _corrections("gg", table, 1, np.asarray)
    d_gg, _, _, d_ee = _corrections("gg", table, 2, np.diagonal)

    a = np.real(4.0 * np.diag(table.i_table) / _LINE)

    gg2 = np.abs(p1_gg) ** 2
    ee2 = np.abs(p1_ee) ** 2
    eg2 = np.abs(p1_ge) ** 2
    ee_gg = p1_ee * p1_gg.conj()  # zero on the diagonal

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
    }
    trusted = np.ones(dim, dtype=bool)
    for t in tails.values():
        trusted &= t < _TAIL_TOLERANCE
    trusted[lo:] = False
    residual = float(np.abs(table.i_table.real + table.i_table.imag).max())
    return DerivedScalars(a, b, c_gg, c_ee, c_eg, tails, trusted, residual)


# --------------------------------------------------------------------------
# Correction states
# --------------------------------------------------------------------------

def _corrections(label: str, table: CoefficientTable, order: int, entries):
    """psi1 (``order`` 1) or psi2 (``order`` 2) of |label, n>, at the
    ``entries`` of its blocks.

    The order is a tuple of its four qubit blocks (gg, ge, eg, ee), [m, n]
    the amplitude on |q, m> of the correction to |label, n>, evaluated only
    where ``entries`` picks from a (dim, dim) array: all of it
    (``np.asarray``), its diagonal (``np.diagonal``) or one column.  It
    picks from the tables, the transposed first-order one and the parity
    mask, and every block entry is a function of the entries picked at its
    place, so it holds the bits of the whole block's.  The drive conserves
    the parity of (qubit excitation + phonon number), so a block is masked
    to even m - n (E) or odd (O).  For gg, with I the first-order table,
    psi1 is (E(I + I^T), O iI^T, O iI^T, E(I - I^T)): column n of I feeds
    the diagonal-in-qubit blocks, row n (the conjugate-route hops) all four.
    psi2 is (E J+, O (i/2)(J1 - J2), the same, -E J-) with
    J+- = (J1 + J2)/2 +- J3: the two-hop paths that visit the idle branch
    pair leave odd-parity weight on the cross blocks.  ge and eg swap the
    masks and have the same blocks.  ee follows from gg by the qubit-flip
    symmetry (X (x) (-1)^N) U(lam) (X (x) (-1)^N) = U(-lam), X flipping both
    qubits: at order k the ee blocks are the gg blocks with the qubits
    flipped (its gg block is gg's ee block), times (-1)^k on the
    diagonal-in-qubit blocks and -(-1)^k on the cross blocks, whose m - n
    is odd.  The predictors read the same symmetry at the level of their
    closed forms: :func:`_scalars` negates lam for ee, and
    :func:`predict_density_matrix` flips the |gg> state's qubits.  This is
    the one fold from the tables to states: the two
    corrections read a column of it, :func:`derived_scalars` the first
    order whole and the second order's diagonal, and the table builders
    invert it.
    """
    cross_input = _label(label) in ("ge", "eg")
    # Mask of the diagonal-in-qubit blocks: even m - n for gg and ee inputs,
    # odd for ge and eg.  The cross blocks take its complement.
    parity = np.arange(table.n_max + 1) & 1
    outer = entries(np.equal.outer(parity, parity ^ int(cross_input)))
    if order == 1:
        it, it_t = entries(table.i_table), entries(table.i_table.T)
        gg, cross, ee = ((-1j * it, np.zeros_like(it), -1j * it) if cross_input
                         else (it + it_t, 1j * it_t, it - it_t))
    else:
        j1, j2, j3 = entries(table.j1), entries(table.j2), entries(table.j3)
        half = 0.5 * (j1 + j2)
        gg, cross, ee = ((-0.5j * (j1 + j2), 0.5 * (j1 - j2), 0.5j * (j1 + j2)) if cross_input
                         else (half + j3, 0.5j * (j1 - j2), -(half - j3)))
    if label == "ee":
        sign = (-1.0) ** order
        gg, cross, ee = sign * ee, -sign * cross, sign * gg
    mid = np.where(outer, 0.0, cross)
    return np.where(outer, gg, 0.0), mid, mid, np.where(outer, ee, 0.0)


def _column(label: str, order: int, n: int, table: CoefficientTable) -> np.ndarray:
    """Column n of the four qubit blocks of :func:`_corrections`, qubit-major:
    the amplitudes of the correction psi1 (``order`` 1) or psi2 (``order``
    2) to |label, n>, whose full state is psi0 - lam*psi1 - lam^2*psi2.
    An unknown label, or a level n that is not an integer in 0..n_max, is
    refused with ``ValueError``; like :func:`predicted_state`, it checks
    neither the table's structure nor its trust."""
    n = _count("Fock level n", n, 0, table.n_max)
    return np.concatenate(_corrections(label, table, order, lambda x: x[:, n]))


def predicted_state(
    label: str,
    n: int,
    lambda_tilde: float,
    table: CoefficientTable,
) -> np.ndarray:
    """Amplitudes of the second-order final state psi0 - lam*psi1 - lam^2*psi2
    (unnormalized), at one lambda.  psi0 is
    :func:`~msgate.ideal.ideal_output_state`, and psi1 and psi2 are the
    first- and second-order columns n of :func:`_corrections`, read by
    :func:`_column`.

    The cross-check route, compared with the oracle's final state and with
    the Van Loan derivatives of the exact gate: by design it checks neither
    the table's structure nor its trusted levels, so that any closed loop,
    off-calibration ones included, can be compared at every level up to
    ``n_max``.  A check here would close that independent route; the
    predictors check both, through :func:`_scalars`.  ``lambda_tilde`` is
    one finite real number (the rule of :func:`msgate.hilbert._number`)
    inside the hard cap, else ``ValueError`` naming it: one state per
    call."""
    lambda_tilde = _number("lambda_tilde", lambda_tilde)
    _check_lambda(lambda_tilde)
    return (ideal_output_state(label, n, table.cutoff)
            - lambda_tilde * _column(label, 1, n, table)
            - lambda_tilde * lambda_tilde * _column(label, 2, n, table))


# --------------------------------------------------------------------------
# Closed-form predictors
# --------------------------------------------------------------------------

def _check_lambda(lambda_tilde) -> np.ndarray:
    """``lambda_tilde`` (a float or a 1-D array) as an array, every value
    finite and inside the hard cap."""
    lam = _finite("lambda_tilde", lambda_tilde)
    if lam.ndim > 1:
        raise ValueError("lambda_tilde must be a float or a 1-D array")
    worst = np.abs(lam).max(initial=0.0)
    if worst > LAMBDA_HARD_CAP:
        raise ValueError(
            f"|lambda_tilde| = {worst:.3f} exceeds the hard cap "
            f"{LAMBDA_HARD_CAP}; the expansion is meaningless there"
        )
    return lam


def _scalars(n, table: CoefficientTable, lambda_tilde=0.0, initial: str = "gg"):
    """(lam, a, b, c_gg, c_ee, c_eg) of one predictor call, every input
    checked: the one place a thermal mode is averaged, and the one owner of
    the input's sign.

    ``lam`` is the lambda the |gg> closed forms read: :func:`_check_lambda`'s
    array for a gg input, its negation for ee.  ``initial`` must be gg or
    ee, the inputs every predictor covers.  An |ee> input is |gg> under the
    qubit-flip symmetry of :func:`_corrections`, which maps U(lam) to
    U(-lam) with both qubits flipped, so its predictions are the |gg> ones
    at -lam, qubits flipped where they have a qubit axis.  The negation
    comes last, after every check, so each refusal names the caller's
    value.

    For a Fock level or a 1-D sequence of levels ``n``, each scalar is
    gathered per level and shaped ``np.shape(n) + (1,) * lam.ndim``, to
    broadcast against ``lam`` (an empty sequence gives an empty grid).
    For a ThermalDistribution each is its probability-weighted mean over
    the mode's levels (:func:`_level_sum`), a numpy scalar: every
    predictor's reduced state is linear in the five, so the closed forms at
    the means are the mixture's.  The table's structure is checked first, by
    :meth:`CoefficientTable.check_health`, so an off-line table raises
    UnhealthyTableError here, however it was made.  A level the table
    does not trust raises TruncationError, as
    :meth:`DerivedScalars.require_trusted`, the first in order.

    Last, the expansion's domain: with kappa_n = -(c_gg + c_ee - Im b)/2
    (a thermal mode's at its mean scalars), x = |lam| sqrt(kappa_n) must
    not exceed 1/sqrt2 at any requested level and lam, or ``ValueError``
    names the worst level, its x and the largest |lam| served there,
    sqrt(0.5 / kappa_n).  x^2 is the predicted infidelity, and past 1/2 the
    Taylor populations, fidelity and purity can leave [0, 1].  The phase
    slope and both fringe engines read the scalars at lam = 0, where x is 0.
    """
    table.check_health()
    lam = _check_lambda(lambda_tilde)
    if _label(initial) not in ("gg", "ee"):
        raise ValueError(f"this predictor covers 'gg' and 'ee' inputs, not {initial!r}")
    thermal = isinstance(n, ThermalDistribution)
    if thermal:
        levels, weights = level_weights(n)
    else:
        # An empty sequence is an empty level array, though numpy makes it float.
        levels = np.asarray(n, dtype=int) if np.shape(n) == (0,) else np.asarray(n)
        if levels.ndim > 1 or levels.dtype.kind not in "iu":
            raise ValueError(f"this predictor takes a Fock level, a 1-D sequence "
                             f"of levels or a ThermalDistribution, not {n!r}")
    der = table.derived()
    for level in dict.fromkeys(levels.ravel().tolist()):
        der.require_trusted(level)
    per_level = (der.a, der.b, der.c_gg, der.c_ee, der.c_eg)
    if thermal:
        scalars = [_level_sum(weights, v[levels]) for v in per_level]
    else:
        index = levels.reshape(levels.shape + (1,) * lam.ndim)
        scalars = [v[index] for v in per_level]
    _, b, c_gg, c_ee, _ = scalars
    kappa = 0.5 * (b.imag - c_gg - c_ee)
    x2 = lam * lam * kappa
    if (x2 > 0.5).any():
        grid = np.shape(x2)
        worst = np.unravel_index(np.argmax(x2), grid)
        lam_w, kappa_w, x2_w = (np.broadcast_to(v, grid)[worst] for v in (lam, kappa, x2))
        where = (f"the thermal mode n_bar = {n.n_bar:g}" if thermal
                 else f"Fock level {np.broadcast_to(index, grid)[worst]}")
        raise ValueError(
            f"|lambda_tilde| = {abs(lam_w):g} takes {where} to x = |lambda_tilde| "
            f"sqrt(kappa_n) = {math.sqrt(x2_w):.3f}, past 1/sqrt(2), where the "
            "second-order expansion is meaningless; it serves |lambda_tilde| up to "
            f"{math.sqrt(0.5 / kappa_w):.3g} there")
    return (lam if initial == "gg" else -lam), *scalars


def predict_density_matrix(
    n, lambda_tilde, table: CoefficientTable, initial: str = "gg"
) -> np.ndarray:
    """Second-order reduced qubit state, X-shaped in the computational basis.

    Shape ``np.shape(n) + np.shape(lambda_tilde) + (4, 4)``, and
    ``np.shape(lambda_tilde) + (4, 4)`` for a thermal mode, whose state is
    the mixture of its levels' states.  Raw, like every predictor here: the
    trace keeps its O(lam^2) defect.  The populations are its diagonal and
    the pair coherence its (3, 0) entry for a |gg> input, (0, 3) for |ee>.
    Only the |gg> form is built, at the lambda :func:`_scalars` returns; an
    |ee> input's state is that form with both qubits flipped, the qubit
    order reversed on both axes (gg <-> ee, ge <-> eg).
    """
    lam, a, b, c_gg, c_ee, c_eg = _scalars(n, table, lambda_tilde, initial)
    l2 = lam * lam
    coh = (-1j + lam * a + l2 * b) / 2.0
    rho = np.zeros(coh.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = 0.5 + l2 * c_gg
    rho[..., 3, 3] = 0.5 + l2 * c_ee
    rho[..., 1, 1] = rho[..., 2, 2] = rho[..., 1, 2] = rho[..., 2, 1] = l2 * c_eg
    rho[..., 3, 0] = coh
    rho[..., 0, 3] = np.conj(coh)
    return rho if initial == "gg" else rho[..., ::-1, ::-1].copy()


def predict_populations(
    n, lambda_tilde, table: CoefficientTable, initial: str = "gg"
) -> np.ndarray:
    """Raw second-order populations (gg, ge, eg, ee), the diagonal of
    :func:`predict_density_matrix`, the mixture's for a thermal mode; their
    sum may differ from 1."""
    rho = predict_density_matrix(n, lambda_tilde, table, initial)
    return np.diagonal(rho, axis1=-2, axis2=-1).real.copy()


def predict_coherence(
    n, lambda_tilde, table: CoefficientTable, initial: str = "gg"
):
    """Pair coherence of :func:`predict_density_matrix`, the mixture's for a
    thermal mode: <ee|rho|gg> for a |gg> input, <gg|rho|ee> for |ee>."""
    rho = predict_density_matrix(n, lambda_tilde, table, initial)
    return rho[(..., *relative_phase_pair(initial))][()]


def predict_phase(n, lambda_tilde, table: CoefficientTable, initial: str = "gg"):
    """Relative phase of the pair coherence of a |gg> or |ee> input (ideal
    value -pi/2), to second order.

    The expanded angle -pi/2 + lam a + lam^2 Re b at the lambda
    :func:`_scalars` returns (-lam for |ee>), not the argument of
    :func:`predict_coherence`.  A thermal mode's is the same expression at
    its mean scalars, which is the mean of its levels' phases.
    """
    lam, a, b, *_ = _scalars(n, table, lambda_tilde, initial)
    return -math.pi / 2.0 + lam * a + lam * lam * b.real


def predict_fidelity(n, lambda_tilde, table: CoefficientTable):
    """Overlap of the reduced state with the ideal Bell output, to O(lam^2).

    1 + (lam^2/2)(c_gg + c_ee - Im b); same for gg and ee inputs, and
    linear in the scalars, so a thermal mode's is its levels' mean.
    """
    lam, _, b, c_gg, c_ee, _ = _scalars(n, table, lambda_tilde)
    return 1.0 + 0.5 * lam * lam * (c_gg + c_ee - b.imag)


def predict_purity(n, lambda_tilde, table: CoefficientTable):
    """Tr(rho^2) of the reduced state truncated at O(lam^2) (gg or ee input
    alike); it differs from Tr(rho^2) of :func:`predict_density_matrix` at
    O(lam^3).  1 - lam^2 (Im b - a^2/2 - c_gg - c_ee): for a thermal mode,
    at its mean scalars, the purity of the mixture, not the mean of its
    levels' purities (those differ at O(lam^2) through the a^2 term)."""
    lam, a, b, c_gg, c_ee, _ = _scalars(n, table, lambda_tilde)
    return 1.0 - lam * lam * (b.imag - 0.5 * a * a - c_gg - c_ee)


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

# The scalars a table file stores, each compared on load with the rebuilt
# tables' at 1e-12 relative; ``trusted`` and ``tail_tolerance`` are stored
# beside them and compared exactly.
_STORED = ("a", "b", "c_gg", "c_ee", "c_eg", "structure_residual")


def _to_json(value):
    """A stored scalar as JSON: a real array or number as itself, a complex
    array as its "re" and "im" parts."""
    if np.iscomplexobj(value):
        return {"re": value.real.tolist(), "im": value.imag.tolist()}
    return np.asarray(value).tolist()


def _from_json(value, like: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_to_json` for a scalar stored as ``like`` is,
    read back as an array of ``like``'s dtype."""
    if np.iscomplexobj(like):
        value = np.asarray(value["re"], dtype=float) + 1j * np.asarray(value["im"], dtype=float)
    return np.asarray(value, dtype=like.dtype)


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


def _read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``, the one reader of every
    input file.  Content that is not JSON (undecodable bytes included, and
    nesting too deep for the decoder) or not an object raises ``ValueError``
    naming the file as ``what`` and its path; a file that cannot be opened
    raises its ``OSError``."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path} is not a JSON object")
    return doc


def save_coefficient_table(table: CoefficientTable, path) -> str:
    """Write a versioned, byte-reproducible JSON record of the gate, and
    return the provenance digest written into it.

    The file names the gate, not its tables: the schema, the package
    version, the parameter dict (``n_max``, ``omega_tilde`` and
    ``tau_gate``), its digest (:attr:`CoefficientTable.provenance_hash`) and
    the ``derived`` block: the scalars named in ``_STORED``, each written
    by :func:`_to_json`, with ``trusted`` and the ``tail_tolerance`` it is
    computed at; one compact, key-sorted JSON object (about 5 kB at n_max
    40).  ``table.quad`` is not written: tables built with any panel counts
    save the same bytes.  A load rebuilds the
    tables from the parameters.  No timestamps: identical parameters
    produce identical bytes.  Missing parent directories of ``path`` are
    created.  The bytes go to a temporary file beside ``path`` that
    replaces it only once complete (:func:`_write_all`), so a reader never
    sees a partial file and a failed write leaves nothing.
    """
    der = table.derived()
    digest = table.provenance_hash
    doc = {
        "schema": TABLE_SCHEMA,
        "package_version": __version__,
        "params": table.parameter_dict(),
        "provenance_sha256": digest,
        "derived": {
            **{name: _to_json(getattr(der, name)) for name in _STORED},
            "trusted": der.trusted.astype(int).tolist(),
            "tail_tolerance": _TAIL_TOLERANCE,
        },
    }
    _write_all({Path(path): json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"})
    return digest


def _check_stored_derived(stored: dict, der: DerivedScalars) -> None:
    """Compare a file's ``derived`` block with the scalars of the rebuilt
    tables: each scalar named in ``_STORED``, read back by :func:`_from_json`
    as the rebuilt one is stored (``b`` as a complex number), within 1e-12
    relative; ``trusted`` and ``tail_tolerance`` exactly.  A mismatch raises
    ``ValueError`` naming the entry."""
    for name in _STORED:
        want = np.asarray(getattr(der, name))
        got = _from_json(stored[name], want)
        if got.shape != want.shape or not np.all(np.abs(got - want) <= 1e-12 * np.abs(want)):
            raise ValueError(
                f"coefficient file derived {name!r} does not match its rebuilt tables")
    if not np.array_equal(np.asarray(stored["trusted"]), der.trusted.astype(int)):
        raise ValueError("coefficient file derived 'trusted' does not match its rebuilt tables")
    if stored["tail_tolerance"] != _TAIL_TOLERANCE:
        raise ValueError("coefficient file derived 'tail_tolerance' is not the "
                         f"{_TAIL_TOLERANCE:.0e} that 'trusted' is computed at")


def load_coefficient_table(path) -> CoefficientTable:
    """Load a table written by :func:`save_coefficient_table`: rebuild it
    from the stored parameters and check it against the file.

    The file is read by :func:`_read_json_object`, which refuses content
    that is not a JSON object and names the file.  Then, in order: the
    schema (only the current one, schema 5, loads; a file of schema 1 to 4
    is refused with a message to rebuild it), the stored digest against the
    stored parameters, then the rebuild by :func:`compute_coefficient_table`
    (whose constructor refuses a non-finite entry with
    :class:`UnhealthyTableError`), whose parameter dict must equal the
    stored one (so a key other than ``n_max``, ``omega_tilde`` and
    ``tau_gate``, such as schema 4's ``phi`` or ``panels_1d``, is refused),
    and last the stored ``derived`` block against the scalars of the
    rebuilt tables (1e-12 relative, ``trusted`` and the ``tail_tolerance``
    it is computed at exactly).  A file that fails any of these, lacks an
    entry or holds one of the wrong type raises ``ValueError``; one that
    cannot be opened, its ``OSError``.  The structure is not checked here:
    an off-line file loads, as :func:`compute_coefficient_table` builds and
    :func:`save_coefficient_table` writes it, and its first predictor
    refuses it (:meth:`CoefficientTable.check_health`).
    The rebuilt scalars are kept for the predictors, and the rebuilt table
    carries the default ``quad``.  A load costs a build (the README gives
    the time of each).
    """
    doc = _read_json_object(path, "coefficient file")
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
    table = compute_coefficient_table(p["omega_tilde"], p["n_max"], tau_gate=p["tau_gate"])
    if table.parameter_dict() != p:
        raise ValueError("coefficient file parameters are not those of a table "
                         "'msgate coefficients' builds")
    _check_stored_derived(doc["derived"], table.derived())
    return table

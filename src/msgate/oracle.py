"""Independent full-Hamiltonian propagator used to check every predictor.

This module deliberately shares no derivation machinery with
:mod:`msgate.magnus`: it builds the full qubit-pair + mode Hamiltonian in a
truncated Fock space and propagates it exactly.  Agreement between the two
routes is the package's core evidence.

One frame carries every propagation.  The static-axis Hamiltonian
H(tau) = lam*S_z - omega*(a^dag e^{i tau} + a e^{-i tau})*S_phi, the frame
in which the perturbative coefficients are defined, is the constant
H' = lam*S_z - omega*(a + a^dag)*S_phi + N (N the phonon number) in the
frame psi = e^{i N tau} chi, which :func:`propagate_batch` alone builds.
Every other angle is a diagonal S_z factor around it.  The ramped axis,
H(s) = -omega*(a^dag e^{i s} + a e^{-i s})*S_{phi0 + lam*s}, has the
miscalibration term rotated away: the hardware's bookkeeping between gates
(drive phase counted against the qubit frame), used by the two-gate
calibration sequence.  Over a span (s0, s1) it is

    U_ramped = e^{i (phi0 + lam*s1) S_z} U_static e^{-i (phi0 + lam*s0) S_z},

U_static at drive phase 0 over the same span, so a scan phase phi0 is a
frame factor too.  Populations are frame-independent, so no de-rotation is
needed before measuring.  The spectrum of H' at one lam is thus the exact
propagator for any span, scan phase and record time.  It is taken per
symmetry block: e^{i(pi/2 - phi) S_z} turns S_phi into the real S_x, and
H' commutes with qubit exchange and with the parity (-1)^(N + S_z).  The
singlet evolves by e^{-iN dt}; the triplet splits by the parity of n + m
into two real blocks (49 and 50 states at n_max 32), and a batch calls
``eigh`` once per lam and block its columns occupy.  That spectrum depends
on none of the span, the scan phase or the ramp frame, so inside one
:func:`_shared_spectra` scope (the calibration fringe's two gates) each
(n_max, omega, lam, block) is diagonalised once; outside a scope nothing
is kept.  The tests check these propagators against an independent RK4
route on :func:`hamiltonian_matrix`.
Kets are in :mod:`msgate.hilbert`'s qubit-major layout, read only through
its owner: ``FockCutoff.number`` and ``s_z`` are the frame's diagonals, and
``FockCutoff.blocks`` splits a batch into its qubit-pair blocks for the
guard band and the reduced states.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import QUBIT_LABELS, FockCutoff, _finite, _number
from .ideal import (DimensionlessGateParams, collective_spin, ideal_output_state,
                     relative_phase_pair)

__all__ = [
    "IntegratorConfig",
    "GuardBandError",
    "NormDriftError",
    "hamiltonian_matrix",
    "propagate_batch",
    "propagate_ramped_axis",
    "observables",
    "sweep",
]


class GuardBandError(RuntimeError):
    """Probability reached the top of the Fock ladder; results untrusted."""


class NormDriftError(RuntimeError):
    """Propagation changed a state's norm; results untrusted."""


# Numerical health of every propagated column: at most _GUARD_TOLERANCE of
# its probability in the top _GUARD_LEVELS Fock levels, and a norm that
# moves by at most _NORM_TOLERANCE.
_GUARD_LEVELS = 5
_GUARD_TOLERANCE = 1e-10
_NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of oracle propagation.

    ``steps_per_gate`` changes no result.
    Every propagator checks its result by :func:`_check_health`, against
    the fixed health thresholds of this module.
    """

    steps_per_gate: int = 50_000


def _check_health(norm_drift, guard_band_mass: float) -> None:
    """Raise :class:`GuardBandError` or :class:`NormDriftError` when the
    guard mass or the (worst) norm drift exceeds its tolerance or is NaN
    (written ``not x <= tol``, since ``nan > tol`` is False).  An empty
    batch has no drift, and passes."""
    if not guard_band_mass <= _GUARD_TOLERANCE:
        raise GuardBandError(
            f"guard-band occupation {guard_band_mass:.3e} exceeds "
            f"{_GUARD_TOLERANCE:.1e}; raise the Fock cutoff"
        )
    drift = float(np.max(norm_drift, initial=0.0))
    if not drift <= _NORM_TOLERANCE:
        raise NormDriftError(f"norm drift {drift:.3e} exceeds {_NORM_TOLERANCE:.1e}")


def hamiltonian_matrix(
    tau: float, params: DimensionlessGateParams, cutoff: FockCutoff, lambda_tilde: float
) -> np.ndarray:
    """Dense static-axis Hamiltonian at dimensionless time tau and
    miscalibration ``lambda_tilde``, on the qubit-major composite basis:
    ``lambda_tilde`` times the diagonal ``FockCutoff.s_z`` of the layout's
    owner, less ``omega_tilde`` times S_phi (x) (a^dag e^{i tau} + a e^{-i tau})."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff.dim)), 1).astype(complex)  # annihilation
    s_phi = collective_spin(params.phi)
    drive = np.exp(1j * tau) * a.conj().T + np.exp(-1j * tau) * a
    return lambda_tilde * np.diagflat(cutoff.s_z) - params.omega_tilde * np.kron(s_phi, drive)


@functools.lru_cache(maxsize=8)
def _symmetry_blocks(n_max: int):
    """Real orthogonal basis in which H' at phi = pi/2 is block diagonal.

    Columns: triplet (T+, T0, T-) x Fock states with n + m even, then odd
    (m the S_z value), then the singlet.  Returns the basis (complex, so
    both products with it are one ZGEMM), N and S_z on it, and per triplet
    block its slice and real coupling -(a + a^dag) S_x, read off
    :func:`hamiltonian_matrix` at tau = 0.
    """
    cutoff = FockCutoff(n_max)
    d, r = cutoff.dim, np.sqrt(0.5)
    # Qubit columns T+, T0, T-, singlet over (gg, ge, eg, ee).
    qubit = np.array([[1, 0, 0, 0], [0, r, 0, r], [0, r, 0, -r], [0, 0, 1, 0]])
    triplet_parity = (np.tile(np.arange(d), 3) + np.repeat([1, 0, -1], d)) % 2
    block = np.concatenate([triplet_parity, np.full(d, 2)])
    basis = np.kron(qubit, np.eye(d))[:, np.argsort(block, kind="stable")]
    number, sz = (np.diag(basis.T @ (x * basis)).copy() for x in (cutoff.number, cutoff.s_z))
    drive = DimensionlessGateParams(omega_tilde=1.0, phi=np.pi / 2)
    coupled = basis.T @ hamiltonian_matrix(0.0, drive, cutoff, 0.0).real @ basis
    even = np.count_nonzero(block == 0)
    blocks = [(sl, coupled[sl, sl]) for sl in (slice(0, even), slice(even, 3 * d))]
    out = basis.astype(complex), number, sz, blocks
    for arr in (*out[:3], *(c for _, c in blocks)):
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


# The block spectra of the open _shared_spectra scope, or None outside one.
_SPECTRA = contextvars.ContextVar("_SPECTRA", default=None)


@contextlib.contextmanager
def _shared_spectra():
    """A scope in which :func:`_exact_evolve` diagonalises each (n_max,
    omega, lam, parity block) once, and reuses that spectrum: the arrays
    a second ``eigh`` of the same matrix returns.  It is dropped when the
    scope closes, on a raise too."""
    token = _SPECTRA.set({})
    try:
        yield
    finally:
        _SPECTRA.reset(token)


def _exact_evolve(lam, omega, phi, cutoff, cols: np.ndarray, dt: float) -> np.ndarray:
    """e^{-i H' dt} on each column, in the parity blocks of the rotated H'
    (module docstring), with one basis change each way for the batch.

    ``lam`` is one value or one per column, ``dt`` one duration.  Per lam,
    a block that is zero in those columns gets no ``eigh``, and a block
    already diagonalised in the open :func:`_shared_spectra` scope gets
    none either; the real eigenvectors act on (re, im).  This is the
    package's one ``eigh``.  A non-finite ``lam`` raises ``ValueError``: a
    NaN matches no lambda group and an inf makes NaN amplitudes.
    """
    lam = _finite("lambda_tilde", lam)
    spectra = _SPECTRA.get()
    basis, number, sz, blocks = _symmetry_blocks(cutoff.n_max)
    rot = np.exp(1j * (np.pi / 2 - phi) * cutoff.s_z)
    x = basis.T @ (rot * cols)
    lam = np.broadcast_to(lam, x.shape[1:])
    singlet = slice(blocks[-1][0].stop, None)  # S_z = 0 there: lam drops out
    y = np.zeros(x.shape, dtype=complex)
    y[singlet] = np.exp(-1j * number[singlet, None] * dt) * x[singlet]
    for value in np.unique(lam):
        same = lam == value
        for sl, coupling in blocks:
            part = x[sl].compress(same, axis=1)
            if part.any():
                key = (cutoff.n_max, omega, value, sl.start)
                spectrum = None if spectra is None else spectra.get(key)
                if spectrum is None:
                    h = omega * coupling + np.diag(number[sl] + value * sz[sl])
                    spectrum = np.linalg.eigh(h)
                    if spectra is not None:
                        spectra[key] = spectrum
                energies, vecs = spectrum
                z = (vecs.T @ part.view(float)).view(complex)
                z *= np.exp(-1j * energies[:, None] * dt)
                y[sl, same] = (vecs @ z.view(float)).view(complex)
    return np.conj(rot) * (basis @ y)


def _basis_columns(qubit: int, levels, cutoff: FockCutoff) -> np.ndarray:
    """One column |qubit, n> per initial level n.

    A level past the cutoff is a truncation, so it raises GuardBandError,
    before any other level is checked.  Then each distinct level, in order
    of first appearance, gets its flat index from :meth:`FockCutoff.index`,
    which raises ``ValueError`` for a qubit or level that is not a count in
    range, and one fancy assignment places every column.
    """
    top = max(levels, default=0)
    if top > cutoff.n_max:
        raise GuardBandError(
            f"initial Fock level {top} is above the oracle cutoff {cutoff.n_max}; "
            "raise --cutoff-n-max"
        )
    index = {n: cutoff.index(qubit, n) for n in dict.fromkeys(levels)}
    amps = np.zeros((cutoff.composite_dim, len(levels)), dtype=complex)
    amps[[index[n] for n in levels], np.arange(len(levels))] = 1.0
    return amps


def _guard_band_mass(amps: np.ndarray, cutoff: FockCutoff) -> np.ndarray:
    """Per-column probability in the top ``_GUARD_LEVELS`` Fock levels (all
    of them on a shorter ladder)."""
    levels = min(_GUARD_LEVELS, cutoff.dim)
    return (np.abs(cutoff.blocks(amps)[:, cutoff.dim - levels :, :]) ** 2).sum(axis=(0, 1))


def propagate_batch(
    amps: np.ndarray,
    cutoff: FockCutoff,
    params: DimensionlessGateParams,
    lambda_values: np.ndarray,
    config: IntegratorConfig = IntegratorConfig(),
    span: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Propagate many columns at once under the static-axis Hamiltonian.

    Each column j evolves under miscalibration ``lambda_values[j]``, all
    other parameters shared, over ``span`` (the gate, (0, tau_gate), when
    None): one :func:`_exact_evolve` call in the frame e^{i N tau}, the
    only frame the oracle builds.  Returns the final amplitudes, the
    per-column norm drift and the worst guard-band mass (0.0 for no
    columns), once :func:`_check_health` has passed them.  A non-finite
    lambda raises ``ValueError``.  ``config`` changes no result.
    """
    cols = np.asarray(amps, dtype=complex).reshape(cutoff.composite_dim, -1)
    t0, t1 = (0.0, params.tau_gate) if span is None else span
    chi = np.exp(-1j * t0 * cutoff.number) * cols
    final = _exact_evolve(lambda_values, params.omega_tilde, params.phi, cutoff, chi, t1 - t0)
    final *= np.exp(1j * t1 * cutoff.number)
    drift = np.abs(np.linalg.norm(final, axis=0) - np.linalg.norm(cols, axis=0))
    guard = float(_guard_band_mass(final, cutoff).max(initial=0.0))
    _check_health(drift, guard)
    return final.reshape(np.shape(amps)), drift, guard


def propagate_ramped_axis(
    amps: np.ndarray,
    cutoff: FockCutoff,
    omega_tilde: float,
    lambda_tilde: float,
    phi_values: np.ndarray,
    span: tuple[float, float],
    config: IntegratorConfig = IntegratorConfig(),
) -> tuple[np.ndarray, np.ndarray, float]:
    """Propagate columns under the ramped-axis Hamiltonian.

    Column j sees the spin axis at angle phi_values[j] + lambda_tilde * s
    (s is global, so a later span continues the same ramp).  It is one
    :func:`propagate_batch` call at drive phase 0 over ``span``, between
    the frame factors e^{-i(phi + lam s0) S_z} and e^{i(phi + lam s1) S_z}
    of the module docstring.  Those are diagonal phases, so that call's
    norm drift and guard mass are returned with the final amplitudes.
    ``lambda_tilde`` is one finite real number (the rule of
    :func:`msgate.hilbert._number`), else ``ValueError`` naming it: one ramp
    for every column.  Raises as :func:`propagate_batch` otherwise.
    """
    cols = np.asarray(amps, dtype=complex).reshape(cutoff.composite_dim, -1)
    phi = np.broadcast_to(np.asarray(phi_values, dtype=float), (cols.shape[1],))
    s0, s1 = span
    # Checked before the frame, where an inf would meet S_z = 0.
    lam = _number("lambda_tilde", lambda_tilde)
    chi = np.exp(-1j * (phi + lam * s0) * cutoff.s_z) * cols
    static, drift, guard = propagate_batch(
        chi, cutoff, DimensionlessGateParams(omega_tilde), lam, config, span
    )
    final = np.exp(1j * (phi + lam * s1) * cutoff.s_z) * static
    return final.reshape(np.shape(amps)), drift, guard


def observables(final: np.ndarray, initial_label: str, cutoff: FockCutoff) -> dict:
    """Standard scorecard of final states for a computational-basis input.

    ``final`` is one propagated column (4*dim,) or a batch (4*dim, k).  Keys:
    populations (gg, ge, eg, ee order), relative_phase, coherence_abs,
    fidelity, purity and rho, the reduced qubit-pair density matrix.  The
    health numbers (norm drift, guard-band mass) are the propagator's, not
    recomputed here.  A batch gives one value per column along a leading
    axis (rho is (k, 4, 4)); one column gives scalars, (4,) populations and
    a (4, 4) rho.  Fidelity is against the ideal *qubit* output, which is
    the same for every Fock level.
    """
    amps = np.asarray(final, dtype=complex)
    # (k, 4, dim), so every reduced state comes from one stacked product.
    v = np.ascontiguousarray(cutoff.blocks(amps).transpose(2, 0, 1))
    rho = v @ np.conj(v.transpose(0, 2, 1))
    row, col = relative_phase_pair(initial_label)
    coh = rho[:, row, col]
    target = ideal_output_state(initial_label, 0, FockCutoff(0))
    scores = {
        "populations": np.real(np.diagonal(rho, axis1=1, axis2=2)),
        "relative_phase": np.angle(coh),
        "coherence_abs": np.abs(coh),
        "fidelity": np.real(np.sum(np.outer(target.conj(), target) * rho, axis=(1, 2))),
        "purity": np.real(np.sum(rho * rho.transpose(0, 2, 1), axis=(1, 2))),
        "rho": rho,
    }
    if amps.ndim == 1:
        return {key: value[0] for key, value in scores.items()}
    return scores


def sweep(
    lambda_values: np.ndarray,
    fock_levels: list[int],
    params: DimensionlessGateParams,
    cutoff: FockCutoff,
) -> dict[str, np.ndarray]:
    """Propagate |gg, n> across a miscalibration grid.

    All (n, lambda) pairs go through one batched propagation, scored by one
    :func:`observables` call.  Returns the columns of the sweep CSV, each a
    ``(len(fock_levels), len(lambda_values))`` array, keyed in CSV order:
    relative_phase, the populations p_gg..p_ee, coherence_abs, fidelity,
    purity and the pair's health numbers norm_drift and guard_band_mass.
    An empty grid (no lambda or no level) gives empty columns.  Raises
    GuardBandError for a level above the cutoff, GuardBandError or
    NormDriftError when any pair exceeds the health thresholds, and
    ValueError for a non-finite lambda.
    """
    lam = np.asarray(lambda_values, dtype=float)
    grid = (len(fock_levels), lam.size)
    amps = _basis_columns(0, np.repeat(fock_levels, lam.size), cutoff)
    final, drift, _ = propagate_batch(amps, cutoff, params, np.tile(lam, grid[0]))
    obs = observables(final, "gg", cutoff)
    columns = {
        "relative_phase": obs["relative_phase"],
        **{f"p_{q}": p for q, p in zip(QUBIT_LABELS, obs["populations"].T)},
        **{k: obs[k] for k in ("coherence_abs", "fidelity", "purity")},
        "norm_drift": drift,
        "guard_band_mass": _guard_band_mass(final, cutoff),
    }
    return {key: value.reshape(grid) for key, value in columns.items()}

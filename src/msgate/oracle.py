"""Independent full-Hamiltonian propagator used to check every predictor.

This module deliberately shares no derivation machinery with
:mod:`msgate.magnus`: it builds the full qubit-pair + mode Hamiltonian in a
truncated Fock space and propagates it exactly.  Agreement between the two
routes is the package's core evidence.

Two drive frames are provided:

* ``static_axis`` -- H(tau) = lam*S_z - omega*(a^dag e^{i tau} + a e^{-i tau})*S_phi,
  the frame in which the perturbative coefficients are defined.
* ``ramped_axis`` -- the miscalibration term rotated away, leaving
  H(s) = -omega*(a^dag e^{i s} + a e^{-i s})*S_{phi0 + lam*s}.  This is the
  hardware's bookkeeping between gates (drive phase counted against the
  qubit frame), used by the two-gate calibration sequence.  Populations are
  frame-independent, so no de-rotation is needed before measuring.

Both are the constant H' = lam*S_z - omega*(a + a^dag)*S_phi + N (N the
phonon number) in a rotating frame: psi = e^{i N tau} chi for the static
axis; psi = e^{i (N + lam*S_z) s} chi for the ramped axis at phi = 0, with
the start angle phi0 entering as conjugation by e^{i phi0 S_z}.  So the
spectrum of H' at one lam is the exact propagator for any span, scan phase
and record time.  It is taken per symmetry block: e^{i(pi/2 - phi) S_z}
turns S_phi into the real S_x, and H' commutes with qubit exchange and
with the parity (-1)^(N + S_z).  The singlet evolves by e^{-iN dt}; the
triplet splits by the parity of n + m into two real blocks (49 and 50
states at n_max 32), and a batch calls ``eigh`` once per lam and block its
columns occupy.  The tests check these propagators against an
independent RK4 route on :func:`hamiltonian_matrix`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import SIGMA_Z, QUBIT_LABELS, FockCutoff
from .ideal import DimensionlessGateParams, collective_spin, ideal_output_state

__all__ = [
    "IntegratorConfig",
    "GuardBandError",
    "NormDriftError",
    "hamiltonian_matrix",
    "propagate_batch",
    "propagate_ramped_axis",
    "observables",
    "relative_phase_pair",
    "sweep",
]


class GuardBandError(RuntimeError):
    """Probability reached the top of the Fock ladder; results untrusted."""


class NormDriftError(RuntimeError):
    """Propagation changed a state's norm; results untrusted."""


# Pair coherence below which observables flag the relative phase unreliable.
_COHERENCE_FLOOR = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical-health thresholds for oracle propagation.

    Every propagator checks its result against them and raises
    :class:`GuardBandError` or :class:`NormDriftError`.  ``steps_per_gate``
    is still accepted but no longer changes any result.
    """

    steps_per_gate: int = 50_000
    guard_levels: int = 5
    guard_tolerance: float = 1e-10
    norm_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.guard_levels < 1:
            raise ValueError("guard_levels must be positive")

    def check(self, norm_drift, guard_band_mass: float) -> None:
        """Raise when the (worst) norm drift or guard mass exceeds tolerance."""
        if guard_band_mass > self.guard_tolerance:
            raise GuardBandError(
                f"guard-band occupation {guard_band_mass:.3e} exceeds "
                f"{self.guard_tolerance:.1e}; raise the Fock cutoff"
            )
        drift = float(np.max(norm_drift))
        if drift > self.norm_tolerance:
            raise NormDriftError(f"norm drift {drift:.3e} exceeds {self.norm_tolerance:.1e}")


def hamiltonian_matrix(
    tau: float, params: DimensionlessGateParams, cutoff: FockCutoff, lambda_tilde: float
) -> np.ndarray:
    """Dense static-axis Hamiltonian at dimensionless time tau and
    miscalibration ``lambda_tilde``."""
    d = cutoff.dim
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)  # annihilation
    eye2 = np.eye(2, dtype=complex)
    s_z = 0.5 * (np.kron(SIGMA_Z, eye2) + np.kron(eye2, SIGMA_Z))
    s_phi = collective_spin(params.phi)
    drive = np.exp(1j * tau) * a.conj().T + np.exp(-1j * tau) * a
    return lambda_tilde * np.kron(s_z, np.eye(d)) - params.omega_tilde * np.kron(
        s_phi, drive
    )


def _diagonals(cutoff: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """Phonon number N and collective S_z on the composite basis, as columns."""
    number = np.tile(np.arange(cutoff.dim, dtype=float), 4)
    return number[:, None], np.repeat([1.0, 0.0, 0.0, -1.0], cutoff.dim)[:, None]


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
    number, sz = (np.diag(basis.T @ (diag * basis)).copy() for diag in _diagonals(cutoff))
    drive = DimensionlessGateParams(omega_tilde=1.0, phi=np.pi / 2)
    coupled = basis.T @ hamiltonian_matrix(0.0, drive, cutoff, 0.0).real @ basis
    even = np.count_nonzero(block == 0)
    blocks = [(sl, coupled[sl, sl]) for sl in (slice(0, even), slice(even, 3 * d))]
    out = basis.astype(complex), number, sz, blocks
    for arr in (*out[:3], *(c for _, c in blocks)):
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


def _exact_evolve(lam, omega, phi, cutoff, cols: np.ndarray, dt) -> np.ndarray:
    """e^{-i H' dt} on each column, in the parity blocks of the rotated H'
    (module docstring), with one basis change each way for the batch.

    ``lam`` and ``dt`` are one value or one per column (``cols`` may be one
    column, evaluated at every duration).  Per lam, a block that is zero in
    those columns gets no ``eigh``; the real eigenvectors act on (re, im).
    """
    basis, number, sz, blocks = _symmetry_blocks(cutoff.n_max)
    rot = np.exp(1j * (np.pi / 2 - phi) * _diagonals(cutoff)[1])
    dt = np.reshape(dt, (1, -1))
    x, _ = np.broadcast_arrays(basis.T @ (rot * cols), dt)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), x.shape[1:])
    singlet = slice(blocks[-1][0].stop, None)  # S_z = 0 there: lam drops out
    y = np.zeros(x.shape, dtype=complex)
    y[singlet] = np.exp(-1j * number[singlet, None] * dt) * x[singlet]
    for value in np.unique(lam):
        same = lam == value
        span = dt if dt.size == 1 else dt.compress(same, axis=1)
        for sl, coupling in blocks:
            part = x[sl].compress(same, axis=1)
            if part.any():
                h = omega * coupling + np.diag(number[sl] + value * sz[sl])
                energies, vecs = np.linalg.eigh(h)
                z = (vecs.T @ part.view(float)).view(complex)
                z *= np.exp(-1j * energies[:, None] * span)
                y[sl, same] = (vecs @ z.view(float)).view(complex)
    return np.conj(rot) * (basis @ y)


def _basis_columns(qubit: int, levels, cutoff: FockCutoff) -> np.ndarray:
    """One column |qubit, n> per initial level n.

    A level past the cutoff is a truncation, so it raises GuardBandError.
    """
    top = max(levels, default=0)
    if top > cutoff.n_max:
        raise GuardBandError(
            f"initial Fock level {top} is above the oracle cutoff {cutoff.n_max}; "
            "raise --cutoff-n-max"
        )
    amps = np.zeros((cutoff.composite_dim, len(levels)), dtype=complex)
    for j, n in enumerate(levels):
        amps[cutoff.index(qubit, n), j] = 1.0
    return amps


def _guard_band_mass(amps: np.ndarray, cutoff: FockCutoff, levels: int) -> np.ndarray:
    """Per-column probability in the top Fock levels."""
    d = cutoff.dim
    levels = min(levels, d)
    blocks = amps.reshape(4, d, -1)
    return (np.abs(blocks[:, d - levels :, :]) ** 2).sum(axis=(0, 1))


def _with_health(cols, final, cutoff, config, shape):
    """(final reshaped, per-column norm drift, worst guard-band mass), checked."""
    drift = np.abs(np.linalg.norm(final, axis=0) - np.linalg.norm(cols, axis=0))
    guard = float(_guard_band_mass(final, cutoff, config.guard_levels).max())
    config.check(drift, guard)
    return final.reshape(shape), drift, guard


def propagate_batch(
    amps: np.ndarray,
    cutoff: FockCutoff,
    params: DimensionlessGateParams,
    lambda_values: np.ndarray,
    config: IntegratorConfig = IntegratorConfig(),
    span: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Propagate many columns at once in the static-axis frame.

    Each column j evolves under miscalibration ``lambda_values[j]``, all
    other parameters shared, in one :func:`_exact_evolve` call.  Returns
    (final amplitudes, per-column norm drift, worst guard-band mass).
    """
    cols = np.asarray(amps, dtype=complex).reshape(cutoff.composite_dim, -1)
    t0, t1 = (0.0, params.tau_gate) if span is None else span
    number, _ = _diagonals(cutoff)
    chi = np.exp(-1j * t0 * number) * cols
    final = _exact_evolve(lambda_values, params.omega_tilde, params.phi, cutoff, chi, t1 - t0)
    final *= np.exp(1j * t1 * number)
    return _with_health(cols, final, cutoff, config, np.shape(amps))


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
    :func:`_exact_evolve` call at phi = 0 (one ``eigh`` per parity block the
    columns occupy); each column's start angle enters as the diagonal
    e^{i phi S_z}.  Returns and raises as :func:`propagate_batch`.
    """
    cols = np.asarray(amps, dtype=complex).reshape(cutoff.composite_dim, -1)
    phi = np.broadcast_to(np.asarray(phi_values, dtype=float), (cols.shape[1],))
    s0, s1 = span
    number, sz = _diagonals(cutoff)
    gen = number + lambda_tilde * sz
    scan = np.exp(1j * sz * phi[None, :])
    chi = np.conj(scan) * np.exp(-1j * s0 * gen) * cols
    evolved = _exact_evolve(lambda_tilde, omega_tilde, 0.0, cutoff, chi, s1 - s0)
    final = scan * np.exp(1j * s1 * gen) * evolved
    return _with_health(cols, final, cutoff, config, np.shape(amps))


def relative_phase_pair(initial_label: str) -> tuple[int, int]:
    """(row, column) of the reduced-matrix coherence whose argument is the
    gate's relative phase for a given computational input."""
    pairs = {"gg": (3, 0), "ee": (0, 3), "ge": (2, 1), "eg": (1, 2)}
    return pairs[initial_label]


def observables(final: np.ndarray, initial_label: str, cutoff: FockCutoff) -> dict:
    """Standard scorecard of final states for a computational-basis input.

    ``final`` is one propagated column (4*dim,) or a batch (4*dim, k).  Keys:
    populations (gg, ge, eg, ee order), relative_phase, coherence_abs,
    phase_reliable, fidelity, purity, norm and rho, the reduced qubit-pair
    density matrix.  A batch gives one value per column along a leading
    axis (rho is (k, 4, 4)); one column gives scalars, (4,) populations and
    a (4, 4) rho.  Fidelity is against the ideal *qubit* output, which is
    the same for every Fock level.
    """
    amps = np.asarray(final, dtype=complex)
    # (k, 4, dim), so every reduced state comes from one stacked product.
    v = np.ascontiguousarray(amps.reshape(4, cutoff.dim, -1).transpose(2, 0, 1))
    rho = v @ np.conj(v.transpose(0, 2, 1))
    row, col = relative_phase_pair(initial_label)
    coh = rho[:, row, col]
    target = ideal_output_state(initial_label, 0, FockCutoff(0))
    scores = {
        "populations": np.real(np.diagonal(rho, axis1=1, axis2=2)),
        "relative_phase": np.angle(coh),
        "coherence_abs": np.abs(coh),
        "phase_reliable": np.abs(coh) > _COHERENCE_FLOOR,
        "fidelity": np.real(np.sum(np.outer(target.conj(), target) * rho, axis=(1, 2))),
        "purity": np.real(np.sum(rho * rho.transpose(0, 2, 1), axis=(1, 2))),
        "norm": np.linalg.norm(v, axis=(1, 2)),
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
    config: IntegratorConfig = IntegratorConfig(),
    initial_label: str = "gg",
) -> dict[str, np.ndarray]:
    """Propagate |initial_label, n> across a miscalibration grid.

    All (n, lambda) pairs go through one batched propagation, scored by one
    :func:`observables` call.  Returns the columns of the sweep CSV, each a
    ``(len(fock_levels), len(lambda_values))`` array, keyed in CSV order:
    relative_phase, the populations p_gg..p_ee, coherence_abs, fidelity,
    purity and the pair's health numbers norm_drift and guard_band_mass.
    Raises GuardBandError for a level above the cutoff, and GuardBandError
    or NormDriftError when any pair exceeds the config's health tolerances.
    """
    lam = np.asarray(lambda_values, dtype=float)
    grid = (len(fock_levels), lam.size)
    amps = _basis_columns(QUBIT_LABELS.index(initial_label),
                          np.repeat(fock_levels, lam.size), cutoff)
    final, drift, _ = propagate_batch(amps, cutoff, params, np.tile(lam, grid[0]), config)
    obs = observables(final, initial_label, cutoff)
    columns = {
        "relative_phase": obs["relative_phase"],
        **dict(zip(("p_gg", "p_ge", "p_eg", "p_ee"), obs["populations"].T)),
        **{k: obs[k] for k in ("coherence_abs", "fidelity", "purity")},
        "norm_drift": drift,
        "guard_band_mass": _guard_band_mass(final, cutoff, config.guard_levels),
    }
    return {key: value.reshape(grid) for key, value in columns.items()}

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
the start angle phi0 entering as conjugation by e^{i phi0 S_z}.  So one
diagonalisation of H' per lam is the exact propagator for any span, scan
phase and record time.  It is done per symmetry block: the diagonal
e^{i(pi/2 - phi) S_z} turns S_phi into the real S_x, and H' commutes with
qubit exchange and with the parity (-1)^(N + S_z).  The singlet evolves by
e^{-iN dt}; the triplet splits by the parity of n + m into two real
blocks, one ``eigh`` each (49 and 50 states at n_max 32, against one
complex 132-state ``eigh``).  The RK4 integrator :func:`_rk4` is kept as
the tests' independent reference route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    SIGMA_Z,
    QUBIT_LABELS,
    CompositeState,
    FockCutoff,
    partial_trace_phonons,
    purity,
)
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
    "expectation_trajectory",
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


def _ladder(dim: int) -> np.ndarray:
    """Annihilation operator a on 0..dim-1."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def hamiltonian_matrix(
    tau: float, params: DimensionlessGateParams, cutoff: FockCutoff
) -> np.ndarray:
    """Dense static-axis Hamiltonian at dimensionless time tau."""
    d = cutoff.dim
    a = _ladder(d)
    eye2 = np.eye(2, dtype=complex)
    s_z = 0.5 * (np.kron(SIGMA_Z, eye2) + np.kron(eye2, SIGMA_Z))
    s_phi = collective_spin(params.phi)
    drive = np.exp(1j * tau) * a.conj().T + np.exp(-1j * tau) * a
    return params.lambda_tilde * np.kron(s_z, np.eye(d)) - params.omega_tilde * np.kron(
        s_phi, drive
    )


def _rk4(apply_h, psi: np.ndarray, t0: float, t1: float, steps: int) -> np.ndarray:
    """Classic RK4 for i dpsi/dt = H(t) psi; apply_h(t, psi) -> H(t) psi.

    Not used by the propagators: it is the independent reference route the
    tests check them against.
    """
    h = (t1 - t0) / steps
    for k in range(steps):
        t = t0 + k * h
        k1 = -1j * apply_h(t, psi)
        k2 = -1j * apply_h(t + 0.5 * h, psi + 0.5 * h * k1)
        k3 = -1j * apply_h(t + 0.5 * h, psi + 0.5 * h * k2)
        k4 = -1j * apply_h(t + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return psi


def _diagonals(cutoff: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """Phonon number N and collective S_z on the composite basis, as columns."""
    number = np.tile(np.arange(cutoff.dim, dtype=float), 4)
    return number[:, None], np.repeat([1.0, 0.0, 0.0, -1.0], cutoff.dim)[:, None]


def _frame_hamiltonian(lam: float, omega: float, phi: float, cutoff: FockCutoff):
    """H' = lam*S_z - omega*(a + a^dag)*S_phi + N = e^{-iN tau} H(tau) e^{iN tau} + N."""
    a = _ladder(cutoff.dim)
    number, sz = _diagonals(cutoff)
    return -omega * np.kron(collective_spin(phi), a + a.conj().T) + np.diag(
        (number + lam * sz)[:, 0]
    )


@functools.lru_cache(maxsize=8)
def _symmetry_blocks(n_max: int):
    """Real orthogonal basis in which H' at phi = pi/2 is block diagonal.

    Columns: triplet (T+, T0, T-) x Fock states with n + m even, then odd
    (m the S_z value), then the singlet.  Returns the basis (complex, so
    both products with it are one ZGEMM), N and S_z on it, and per triplet
    block its slice and real coupling -(a + a^dag) S_x, all read off
    :func:`_frame_hamiltonian`.
    """
    cutoff = FockCutoff(n_max)
    d, r = cutoff.dim, np.sqrt(0.5)
    # Qubit columns T+, T0, T-, singlet over (gg, ge, eg, ee).
    qubit = np.array([[1, 0, 0, 0], [0, r, 0, r], [0, r, 0, -r], [0, 0, 1, 0]])
    triplet_parity = (np.tile(np.arange(d), 3) + np.repeat([1, 0, -1], d)) % 2
    block = np.concatenate([triplet_parity, np.full(d, 2)])
    basis = np.kron(qubit, np.eye(d))[:, np.argsort(block, kind="stable")]
    number, shifted, coupled = (
        basis.T @ _frame_hamiltonian(lam, omega, np.pi / 2, cutoff).real @ basis
        for lam, omega in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    )
    even = np.count_nonzero(block == 0)
    blocks = [(sl, (coupled - number)[sl, sl]) for sl in (slice(0, even), slice(even, 3 * d))]
    out = basis.astype(complex), np.diag(number).copy(), np.diag(shifted - number).copy(), blocks
    for arr in (*out[:3], *(c for _, c in blocks)):
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


def _exact_evolve(lam, omega, phi, cutoff, cols: np.ndarray, dt) -> np.ndarray:
    """e^{-i H' dt} on each column, one real eigh per triplet parity block
    of the e^{i(pi/2 - phi) S_z}-rotated H' (see the module docstring).

    ``dt`` is one duration, or one per column (``cols`` may then be a single
    column, evaluated at every duration).
    """
    basis, number, sz, blocks = _symmetry_blocks(cutoff.n_max)
    rot = np.exp(1j * (np.pi / 2 - phi) * _diagonals(cutoff)[1])
    x = basis.T @ (rot * cols)
    dt = np.reshape(dt, (1, -1))
    diagonal = number + lam * sz
    # The singlet rows keep this diagonal evolution; the triplet rows are
    # overwritten by their blocks below.
    y = np.exp(-1j * diagonal[:, None] * dt) * x
    for sl, coupling in blocks:
        energies, vecs = np.linalg.eigh(omega * coupling + np.diag(diagonal[sl]))
        y[sl] = vecs @ (np.exp(-1j * energies[:, None] * dt) * (vecs.T @ x[sl]))
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

    Each column j evolves under the Hamiltonian with miscalibration
    ``lambda_values[j]``; all other parameters are shared.  Columns with
    the same lambda share one diagonalisation of H' (two real block
    ``eigh``).  Returns (final amplitudes, per-column norm drift, worst
    guard-band mass).
    """
    cols = np.asarray(amps, dtype=complex).reshape(cutoff.composite_dim, -1)
    lam = np.broadcast_to(np.asarray(lambda_values, dtype=float), (cols.shape[1],))
    t0, t1 = (0.0, params.tau_gate) if span is None else span
    number, _ = _diagonals(cutoff)
    chi = np.exp(-1j * t0 * number) * cols
    final = np.empty_like(chi)
    for value in np.unique(lam):
        same = lam == value
        final[:, same] = _exact_evolve(
            value, params.omega_tilde, params.phi, cutoff, chi[:, same], t1 - t0
        )
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
    (s is global, so a later span continues the same ramp).  The whole
    batch shares one diagonalisation of H' at phi = 0 (two real block
    ``eigh``); each column's start angle enters as the diagonal
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


def observables(state: CompositeState, initial_label: str, initial_n: int) -> dict:
    """Standard scorecard of a final state for a computational-basis input.

    Keys: populations (gg, ge, eg, ee order), relative_phase, coherence_abs,
    phase_reliable, fidelity, purity, norm, rho (QubitDensityMatrix).
    Fidelity is against the ideal *qubit* output (reduced-state overlap).
    """
    rho = partial_trace_phonons(state)
    pops = np.real(np.diag(rho.matrix)).copy()
    row, col = relative_phase_pair(initial_label)
    coh = rho.matrix[row, col]
    target = ideal_output_state(initial_label, initial_n, state.cutoff)
    target_qubit = target.amplitudes.reshape(4, state.cutoff.dim)[:, initial_n]
    fid = float(np.real(target_qubit.conj() @ rho.matrix @ target_qubit))
    return {
        "populations": pops,
        "relative_phase": float(np.angle(coh)),
        "coherence_abs": float(abs(coh)),
        "phase_reliable": bool(abs(coh) > _COHERENCE_FLOOR),
        "fidelity": fid,
        "purity": purity(rho),
        "norm": state.norm,
        "rho": rho,
    }


def expectation_trajectory(
    initial: CompositeState,
    params: DimensionlessGateParams,
    n_records: int = 64,
    config: IntegratorConfig = IntegratorConfig(),
) -> dict[str, np.ndarray]:
    """Record <a>, norm and guard mass at evenly spaced times over the gate.

    One diagonalisation of H' serves every record time.  Raises GuardBandError
    or NormDriftError when any record exceeds the config's tolerances.
    """
    if n_records < 2:
        raise ValueError("need at least two record points")
    cutoff = initial.cutoff
    a_op = np.kron(np.eye(4, dtype=complex), _ladder(cutoff.dim))
    taus = np.linspace(0.0, params.tau_gate, n_records)
    chi = _exact_evolve(params.lambda_tilde, params.omega_tilde, params.phi, cutoff,
                        initial.amplitudes[:, None], taus)
    psi = np.exp(1j * _diagonals(cutoff)[0] * taus[None, :]) * chi
    norms = np.linalg.norm(psi, axis=0)
    a_exp = np.einsum("ij,ij->j", psi.conj(), a_op @ psi) / np.maximum(norms**2, 1e-300)
    guard = _guard_band_mass(psi, cutoff, config.guard_levels)
    config.check(np.abs(norms - initial.norm), float(guard.max()))
    return {"tau": taus, "a_expect": a_exp, "norm": norms, "guard_band_mass": guard}


def sweep(
    lambda_values: np.ndarray,
    fock_levels: list[int],
    params: DimensionlessGateParams,
    cutoff: FockCutoff,
    config: IntegratorConfig = IntegratorConfig(),
    initial_label: str = "gg",
) -> list[dict]:
    """Propagate |initial_label, n> across a miscalibration grid.

    All (lambda, n) pairs go through one batched propagation; rows come
    back ordered by (n, lambda), one dict per pair with the lambda, the
    level, the populations p_gg..p_ee, the observables and the pair's
    health numbers.  Raises GuardBandError for a level above the cutoff, and
    GuardBandError or NormDriftError when any pair exceeds the config's
    health tolerances.
    """
    lam = np.asarray(lambda_values, dtype=float)
    pairs = [(n, l) for n in fock_levels for l in lam]
    amps = _basis_columns(QUBIT_LABELS.index(initial_label), [n for n, _ in pairs], cutoff)
    lam_cols = np.array([l for _, l in pairs])
    final, drift, _ = propagate_batch(amps, cutoff, params, lam_cols, config)
    guard_cols = _guard_band_mass(final, cutoff, config.guard_levels)
    rows = []
    for j, (n, l) in enumerate(pairs):
        state = CompositeState(final[:, j], cutoff)
        obs = observables(state, initial_label, n)
        row = {"lambda_tilde": l, "fock_n": n}
        row.update(zip(("p_gg", "p_ge", "p_eg", "p_ee"), obs["populations"]))
        row.update({k: obs[k] for k in ("relative_phase", "coherence_abs", "fidelity", "purity")})
        row.update(norm_drift=float(drift[j]), guard_band_mass=float(guard_cols[j]))
        rows.append(row)
    return rows


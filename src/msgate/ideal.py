"""Calibrated force gate: loop functions and ideal output states.

The dimensionless Hamiltonian (time tau = epsilon * t, energies over epsilon)

    H(tau) = lam * S_z - omega * (a^dag e^{i tau} + a e^{-i tau}) * S_phi

with S_phi = S_y cos(phi) + S_x sin(phi) and S_a the two-qubit collective
half-sum of Pauli operators.  At lam = 0 the propagator is exact: in the
sigma_y product basis (for phi = 0) the +/- branches are displaced along the
closed loop F(tau) and pick up the enclosed-area phase G(tau),

    F(tau) = omega * (e^{i tau} - 1),      G(tau) = omega^2 * (tau - sin tau).

The calibrated point omega = 1/2, tau_g = 2*pi closes the loop with
G = pi/2, giving a maximally entangling gate exp(i (pi/2) S_phi^2); K loops
at omega = 1/(2 sqrt K), tau_g = 2*pi*K give the same gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import SIGMA_X, SIGMA_Y, FockCutoff, _count, _label, _number

__all__ = [
    "DimensionlessGateParams",
    "collective_spin",
    "loop_functions",
    "ideal_output_state",
    "relative_phase_pair",
]

TAU_GATE = 2.0 * math.pi


def collective_spin(phi: float) -> np.ndarray:
    """4x4 collective spin S_phi = S_y cos(phi) + S_x sin(phi)."""
    s1 = SIGMA_Y * math.cos(phi) + SIGMA_X * math.sin(phi)
    eye = np.eye(2, dtype=complex)
    return 0.5 * (np.kron(s1, eye) + np.kron(eye, s1))


@dataclass(frozen=True)
class DimensionlessGateParams:
    """Gate parameters after rescaling time by the drive detuning.

    The center-line error lam/epsilon is not one of them: every propagator,
    table and fringe takes it as an argument.  Each field is one finite
    real number (the rule of :func:`msgate.hilbert._number`), kept as the
    Python float that rule returns, so parameters compare, hash and
    serialise the same whether written as an int, a float, a numpy scalar
    or a 0-d array; anything else, a zero ``omega_tilde`` or a
    ``tau_gate`` that is not positive raises ``ValueError`` naming it.

    Attributes
    ----------
    omega_tilde:
        Sideband coupling over detuning, eta*Omega/epsilon.  1/2 when
        calibrated for a single-loop maximally entangling gate.
    tau_gate:
        Dimensionless gate duration; 2*pi closes one loop.
    phi:
        Drive phase selecting the spin axis S_phi.
    """

    omega_tilde: float = 0.5
    tau_gate: float = TAU_GATE
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_tilde", "tau_gate", "phi"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.omega_tilde == 0.0:
            raise ValueError("omega_tilde must be nonzero")
        if self.tau_gate <= 0.0:
            raise ValueError("tau_gate must be positive")

    @classmethod
    def calibrated(cls, loops: int) -> "DimensionlessGateParams":
        """The calibrated gate of ``loops`` closed loops: omega_tilde =
        1/(2 sqrt(loops)) for tau_gate = 2*pi*loops, which encloses the area
        pi/2.  Raises ``ValueError`` unless ``loops`` is an integer >= 1."""
        loops = _count("loops", loops, 1)
        return cls(omega_tilde=1.0 / (2.0 * math.sqrt(loops)), tau_gate=loops * TAU_GATE)


def loop_functions(
    tau: float | np.ndarray, params: DimensionlessGateParams
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement F(tau) and accumulated phase G(tau) of the driven mode.

    Vectorized over ``tau``.  Returns (F, G) with F complex, G real.
    """
    tau = np.asarray(tau, dtype=float)
    w = params.omega_tilde
    f = w * (np.exp(1j * tau) - 1.0)
    g = w * w * (tau - np.sin(tau))
    return f, g


_IDEAL_COMBOS = {
    # label -> ((qubit index, coefficient), ...), overall e^{i pi/4}/sqrt(2)
    "gg": ((0, 1.0), (3, -1.0j)),
    "ge": ((1, 1.0), (2, 1.0j)),
    "eg": ((1, 1.0j), (2, 1.0)),
    "ee": ((0, -1.0j), (3, 1.0)),
}


def ideal_output_state(label: str, n: int, cutoff: FockCutoff) -> np.ndarray:
    """Amplitudes of the calibrated gate's final state on |label, n>,
    phonons untouched.

    exp(i (pi/2) S_y^2) maps each computational pair to an equal-weight Bell
    combination with overall phase e^{i pi/4}.
    """
    amps = np.zeros(cutoff.composite_dim, dtype=complex)
    pref = np.exp(0.25j * math.pi) / math.sqrt(2.0)
    for q, coeff in _IDEAL_COMBOS[_label(label)]:
        amps[cutoff.index(q, n)] = pref * coeff
    return amps


def relative_phase_pair(initial_label: str) -> tuple[int, int]:
    """(row, column) of the reduced-matrix coherence whose argument is the
    gate's relative phase for a given computational input.  It couples the
    two qubit states of the input's :data:`_IDEAL_COMBOS` entry; the oracle
    and the predictors both read the phase there."""
    pairs = {"gg": (3, 0), "ee": (0, 3), "ge": (2, 1), "eg": (1, 2)}
    return pairs[_label(initial_label)]


"""Calibrated force gate: loop functions, exact propagator, target unitary.

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
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Y_BASIS,
    CompositeState,
    FockCutoff,
    displacement_matrix,
)

__all__ = [
    "DimensionlessGateParams",
    "collective_spin",
    "loop_functions",
    "ideal_propagator",
    "ideal_output_state",
    "ms_target_unitary",
    "phase_space_trajectory",
    "trajectory_csv",
]

TAU_GATE = 2.0 * math.pi


def collective_spin(phi: float = 0.0) -> np.ndarray:
    """4x4 collective spin S_phi = S_y cos(phi) + S_x sin(phi)."""
    s1 = SIGMA_Y * math.cos(phi) + SIGMA_X * math.sin(phi)
    eye = np.eye(2, dtype=complex)
    return 0.5 * (np.kron(s1, eye) + np.kron(eye, s1))


@dataclass(frozen=True)
class DimensionlessGateParams:
    """Gate parameters after rescaling time by the drive detuning.

    Attributes
    ----------
    omega_tilde:
        Sideband coupling over detuning, eta*Omega/epsilon.  1/2 when
        calibrated for a single-loop maximally entangling gate.
    lambda_tilde:
        Qubit-frequency miscalibration over detuning, lam/epsilon (signed).
    tau_gate:
        Dimensionless gate duration; 2*pi closes one loop.
    phi:
        Drive phase selecting the spin axis S_phi.
    """

    omega_tilde: float = 0.5
    lambda_tilde: float = 0.0
    tau_gate: float = TAU_GATE
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_tilde", "lambda_tilde", "tau_gate", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega_tilde == 0.0:
            raise ValueError("omega_tilde must be nonzero")
        if self.tau_gate <= 0.0:
            raise ValueError("tau_gate must be positive")

    @classmethod
    def calibrated(cls, loops: int) -> "DimensionlessGateParams":
        """The calibrated gate of ``loops`` closed loops: omega_tilde =
        1/(2 sqrt(loops)) for tau_gate = 2*pi*loops, which encloses the area
        pi/2.  Raises ``ValueError`` unless ``loops`` is an integer >= 1."""
        if not isinstance(loops, int) or isinstance(loops, bool) or loops < 1:
            raise ValueError(f"loops must be an integer >= 1, got {loops!r}")
        return cls(omega_tilde=1.0 / (2.0 * math.sqrt(loops)), tau_gate=loops * TAU_GATE)

    @classmethod
    def from_physical(
        cls,
        lamb_dicke: float,
        rabi_rate: float,
        detuning: float,
        qubit_shift: float = 0.0,
        phi: float = 0.0,
        n_loops: int = 1,
    ) -> "DimensionlessGateParams":
        """Build from lab-frame angular frequencies (rad/s).

        ``detuning`` is the (signed) gap between the drive beat note and the
        motional sideband; ``qubit_shift`` is the center-line miscalibration.
        The gate time is n_loops * 2*pi/|detuning|.
        """
        if detuning == 0.0:
            raise ValueError("detuning must be nonzero")
        return cls(
            omega_tilde=lamb_dicke * rabi_rate / detuning,
            lambda_tilde=qubit_shift / detuning,
            tau_gate=n_loops * TAU_GATE,
            phi=phi,
        )

    @property
    def is_calibrated(self) -> bool:
        """Loop closes (F(tau_gate)=0) and the enclosed area is +/- pi/2."""
        f, g = loop_functions(self.tau_gate, self)
        area = abs(abs(g) - math.pi / 2.0) < 1e-12
        return bool(abs(f) < 1e-12 and area)

    def with_lambda(self, lambda_tilde: float) -> "DimensionlessGateParams":
        return replace(self, lambda_tilde=lambda_tilde)


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


def ideal_propagator(
    tau: float, params: DimensionlessGateParams, cutoff: FockCutoff
) -> np.ndarray:
    """Exact lam=0 propagator U_0(tau) in the computational frame.

    Block-diagonal in the S_phi eigenbasis: the |++> and |--> branches are
    displaced by +/- F(tau) with phase e^{i G(tau)}; |+-> and |-+> idle.
    Currently restricted to phi = 0 (axis S_y), where the branch basis is the
    sigma_y product basis.
    """
    if params.phi != 0.0:
        raise NotImplementedError("ideal propagator implemented for phi=0 only")
    f, g = loop_functions(tau, params)
    d = cutoff.dim
    u = np.zeros((4 * d, 4 * d), dtype=complex)
    phase = np.exp(1j * float(g))
    u[0:d, 0:d] = phase * displacement_matrix(complex(f), cutoff)
    u[d : 2 * d, d : 2 * d] = np.eye(d)
    u[2 * d : 3 * d, 2 * d : 3 * d] = np.eye(d)
    u[3 * d :, 3 * d :] = phase * displacement_matrix(-complex(f), cutoff)
    big_w = np.kron(SIGMA_Y_BASIS, np.eye(d, dtype=complex))
    return big_w.conj().T @ u @ big_w


def ms_target_unitary(theta: float = math.pi / 2.0, phi: float = 0.0) -> np.ndarray:
    """Qubit-only target exp(i theta S_phi^2) as a dense 4x4 matrix.

    S_phi^2 is idempotent on the two-qubit space, so the exponential
    collapses to 1 + (e^{i theta} - 1) S_phi^2.
    """
    s2 = collective_spin(phi)
    s2 = s2 @ s2
    return np.eye(4, dtype=complex) + (np.exp(1j * theta) - 1.0) * s2


_IDEAL_COMBOS = {
    # label -> ((qubit index, coefficient), ...), overall e^{i pi/4}/sqrt(2)
    "gg": ((0, 1.0), (3, -1.0j)),
    "ge": ((1, 1.0), (2, 1.0j)),
    "eg": ((1, 1.0j), (2, 1.0)),
    "ee": ((0, -1.0j), (3, 1.0)),
}


def ideal_output_state(
    label: str, n: int, cutoff: FockCutoff
) -> CompositeState:
    """Final state of the calibrated gate on |label, n>, phonons untouched.

    exp(i (pi/2) S_y^2) maps each computational pair to an equal-weight Bell
    combination with overall phase e^{i pi/4}.
    """
    if label not in _IDEAL_COMBOS:
        raise ValueError(f"unknown qubit label {label!r}")
    amps = np.zeros(cutoff.composite_dim, dtype=complex)
    pref = np.exp(0.25j * math.pi) / math.sqrt(2.0)
    for q, coeff in _IDEAL_COMBOS[label]:
        amps[cutoff.index(q, n)] = pref * coeff
    return CompositeState(amps, cutoff)


def phase_space_trajectory(
    params: DimensionlessGateParams, n_samples: int = 256
) -> dict[str, np.ndarray]:
    """Sampled +/- branch trajectories of the driven mode over one gate.

    Returns arrays ``tau``, ``alpha_plus``, ``alpha_minus`` (complex), and
    ``area_phase`` = G(tau).
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    tau = np.linspace(0.0, params.tau_gate, n_samples)
    f, g = loop_functions(tau, params)
    return {
        "tau": tau,
        "alpha_plus": f,
        "alpha_minus": -f,
        "area_phase": g,
    }


def trajectory_csv(trajectory: dict[str, np.ndarray]) -> str:
    """A phase-space trajectory as versioned CSV text, one row per sample."""
    lines = [
        "# schema=msgate/trajectory/1",
        "tau,re_alpha_plus,im_alpha_plus,re_alpha_minus,im_alpha_minus,area_phase",
    ]
    columns = (
        trajectory["tau"],
        trajectory["alpha_plus"].real,
        trajectory["alpha_plus"].imag,
        trajectory["alpha_minus"].real,
        trajectory["alpha_minus"].imag,
        trajectory["area_phase"],
    )
    lines += [",".join(repr(float(x)) for x in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"

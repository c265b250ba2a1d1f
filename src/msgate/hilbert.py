"""Two-qubit x single-mode Hilbert space utilities.

Conventions used throughout the package
---------------------------------------
* Single-qubit basis: |g> = (1, 0)^T, |e> = (0, 1)^T with the standard
  Pauli matrices, so sigma_z|g> = +|g> and sigma_y|g> = i|e>.
* Two-qubit computational order: (gg, ge, eg, ee) -> qubit index 0..3.
* sigma_y eigenbasis: |+> = (|g> + i|e>)/sqrt(2), |-> = (|g> - i|e>)/sqrt(2)
  (eigenvalues +1 and -1); two-qubit order (++, +-, -+, --).
* Composite kets are stored qubit-major: flat index = q*(n_max+1) + n for
  qubit-pair index q and Fock level n, i.e. kron(qubit, phonon).

Displacement matrix elements <m|D(alpha)|n> are computed from the exact
closed form (stable at moderate alpha via log-gamma factorial ratios) and,
for batches of alpha, by an exact column recurrence.  Both give the matrix
elements of the infinite-dimensional operator: truncation affects only which
rows are stored, not their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import gammaln

__all__ = [
    "Frame",
    "FockCutoff",
    "CompositeState",
    "QubitDensityMatrix",
    "ThermalDistribution",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "QUBIT_LABELS",
    "qubit_basis_change",
    "displacement_element",
    "displacement_matrix",
    "displacement_matrix_batch",
    "coherent_amplitudes",
    "partial_trace_phonons",
    "state_fidelity",
    "purity",
    "thermal_probabilities",
    "level_weights",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

QUBIT_LABELS = ("gg", "ge", "eg", "ee")

# Single-qubit map from computational coordinates to sigma_y coordinates:
# rows (+, -), columns (g, e).
_W1 = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / math.sqrt(2.0)


class Frame(Enum):
    """Which qubit basis the amplitudes of a composite state refer to."""

    COMPUTATIONAL = "computational"
    SIGMA_Y = "sigma_y"


def qubit_basis_change(frame_from: Frame, frame_to: Frame) -> np.ndarray:
    """4x4 unitary mapping two-qubit coordinates between frames."""
    if frame_from == frame_to:
        return np.eye(4, dtype=complex)
    w = np.kron(_W1, _W1)
    if frame_from == Frame.COMPUTATIONAL:
        return w
    return w.conj().T


@dataclass(frozen=True)
class FockCutoff:
    """Phonon truncation at levels 0..n_max inclusive."""

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @property
    def composite_dim(self) -> int:
        return 4 * self.dim

    def index(self, qubit: int, n: int) -> int:
        """Flat index of |qubit-pair q, Fock n> (qubit-major)."""
        if not 0 <= qubit < 4:
            raise ValueError(f"qubit-pair index must be 0..3, got {qubit}")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"Fock level {n} outside 0..{self.n_max}")
        return qubit * self.dim + n

    def split(self, flat: int) -> tuple[int, int]:
        """Inverse of :meth:`index`."""
        return divmod(flat, self.dim)


@dataclass
class CompositeState:
    """Pure state of two qubits and one mode as a flat amplitude vector."""

    amplitudes: np.ndarray
    cutoff: FockCutoff
    frame: Frame = Frame.COMPUTATIONAL

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.cutoff.composite_dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({self.cutoff.composite_dim},)"
            )
        self.amplitudes = amps

    @classmethod
    def basis_state(
        cls,
        qubit: int | str,
        n: int,
        cutoff: FockCutoff,
        frame: Frame = Frame.COMPUTATIONAL,
    ) -> "CompositeState":
        """|qubit-pair, n> with qubit given as index 0..3 or label like 'gg'."""
        if isinstance(qubit, str):
            qubit = QUBIT_LABELS.index(qubit)
        amps = np.zeros(cutoff.composite_dim, dtype=complex)
        amps[cutoff.index(qubit, n)] = 1.0
        return cls(amps, cutoff, frame)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def qubit_block(self, qubit: int) -> np.ndarray:
        """Phonon amplitudes attached to one qubit-pair index (a view)."""
        d = self.cutoff.dim
        return self.amplitudes[qubit * d : (qubit + 1) * d]

    def in_frame(self, frame: Frame) -> "CompositeState":
        if frame == self.frame:
            return self
        w = qubit_basis_change(self.frame, frame)
        amps = (w @ self.amplitudes.reshape(4, self.cutoff.dim)).ravel()
        return CompositeState(amps, self.cutoff, frame)

    def overlap(self, other: "CompositeState") -> complex:
        """<self|other>, transforming frames if they differ."""
        if other.cutoff != self.cutoff:
            raise ValueError("states live on different cutoffs")
        rhs = other.in_frame(self.frame)
        return complex(np.vdot(self.amplitudes, rhs.amplitudes))


@dataclass
class QubitDensityMatrix:
    """4x4 reduced state of the qubit pair (computational order gg,ge,eg,ee).

    Not necessarily trace-one: reduced states of truncated or perturbative
    kets keep their raw trace so that normalization loss stays visible.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        self.matrix = m

    def validate(self, atol: float = 1e-10) -> None:
        """Raise unless Hermitian, positive semidefinite and trace <= 1."""
        m = self.matrix
        if not np.allclose(m, m.conj().T, atol=atol):
            raise ValueError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if eigs.min() < -atol:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        if self.trace > 1.0 + max(atol, 1e-9):
            raise ValueError(f"density matrix trace {self.trace} exceeds 1")

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def population(self, qubit: int | str) -> float:
        if isinstance(qubit, str):
            qubit = QUBIT_LABELS.index(qubit)
        return float(np.real(self.matrix[qubit, qubit]))

    def coherence(self, bra: int | str, ket: int | str) -> complex:
        """Off-diagonal element <bra|rho|ket> by index or label."""
        if isinstance(bra, str):
            bra = QUBIT_LABELS.index(bra)
        if isinstance(ket, str):
            ket = QUBIT_LABELS.index(ket)
        return complex(self.matrix[bra, ket])

    def normalized(self) -> "QubitDensityMatrix":
        tr = self.trace
        if tr <= 0.0:
            raise ValueError("cannot normalize a trace<=0 matrix")
        return QubitDensityMatrix(self.matrix / tr)


def displacement_element(m: int, n: int, alpha: complex) -> complex:
    """Exact matrix element <m|D(alpha)|n> of the displacement operator.

    Uses the associated-Laguerre closed form with factorial ratios evaluated
    through log-gamma; exact (to roundoff) for the infinite-dimensional
    operator, independent of any cutoff.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be non-negative")
    alpha = complex(alpha)
    x = abs(alpha) ** 2
    if x == 0.0:
        return 1.0 + 0.0j if m == n else 0.0 + 0.0j
    lg = gammaln
    if m >= n:
        # sqrt(n!/m!) * alpha^(m-n) * e^{-x/2} * L_n^{(m-n)}(x) expanded.
        total = 0.0
        for k in range(n + 1):
            lnc = lg(n + 1) - lg(k + 1) - lg(n - k + 1)
            term = (-1.0) ** k * math.exp(lnc - lg(m - n + k + 1) + k * math.log(x))
            total += term
        pref = math.exp(0.5 * (lg(m + 1) - lg(n + 1)) - 0.5 * x)
        return pref * alpha ** (m - n) * total
    # m < n: mirror expansion in conj(alpha).
    total = 0.0
    for k in range(m + 1):
        lnc = lg(n + 1) - lg(k + 1) - lg(n - k + 1)
        term = (-1.0) ** (n - k) * math.exp(
            lnc - lg(m - k + 1) + (m - k) * math.log(x)
        )
        total += term
    pref = math.exp(0.5 * (lg(m + 1) - lg(n + 1)) - 0.5 * x)
    return pref * np.conjugate(alpha) ** (n - m) * total


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """<m|D(alpha)|0> for m = 0..dim-1 (coherent-state column)."""
    return displacement_matrix_batch(np.array([alpha]), dim)[0, :, 0].copy()


def displacement_matrix_batch(alphas: np.ndarray, dim: int) -> np.ndarray:
    """Stack of dense displacement matrices, shape (len(alphas), dim, dim).

    Column recurrence (from D a^dag D^dag = a^dag - conj(alpha)):

        <m|D|0>   = e^{-|a|^2/2} alpha^m / sqrt(m!)
        <m|D|n+1> = (sqrt(m) <m-1|D|n> - conj(alpha) <m|D|n>) / sqrt(n+1)

    The recurrence only references lower row indices, so every stored entry
    equals the untruncated operator's matrix element exactly.
    """
    alphas = np.asarray(alphas, dtype=complex).ravel()
    k = alphas.size
    out = np.empty((k, dim, dim), dtype=complex)
    sqrt_m = np.sqrt(np.arange(dim))
    # Coherent-state column.
    out[:, 0, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for m in range(1, dim):
        out[:, m, 0] = out[:, m - 1, 0] * alphas / sqrt_m[m]
    ac = alphas.conj()[:, None]
    shifted = np.empty((k, dim), dtype=complex)
    for n in range(dim - 1):
        col = out[:, :, n]
        shifted[:, 0] = 0.0
        shifted[:, 1:] = col[:, :-1] * sqrt_m[1:]
        out[:, :, n + 1] = (shifted - ac * col) / sqrt_m[n + 1]
    return out


def displacement_matrix(alpha: complex, cutoff: FockCutoff | int) -> np.ndarray:
    """Dense [<m|D(alpha)|n>] for m, n = 0..n_max."""
    dim = cutoff.dim if isinstance(cutoff, FockCutoff) else int(cutoff)
    return displacement_matrix_batch(np.array([alpha]), dim)[0]


def partial_trace_phonons(state: CompositeState) -> QubitDensityMatrix:
    """Reduced qubit-pair density matrix, in the state's own frame order.

    For states in :class:`Frame.COMPUTATIONAL` the rows/columns follow
    ``QUBIT_LABELS``; callers holding sigma_y-frame states should convert
    first if they want computational matrix elements.
    """
    v = state.amplitudes.reshape(4, state.cutoff.dim)
    return QubitDensityMatrix(v @ v.conj().T)


def state_fidelity(state: CompositeState, target: CompositeState) -> float:
    """|<target|state>|^2 between pure composite states."""
    return abs(state.overlap(target)) ** 2


def purity(rho: QubitDensityMatrix | np.ndarray) -> float:
    """Tr(rho^2), real part (imaginary part is roundoff for Hermitian rho)."""
    m = rho.matrix if isinstance(rho, QubitDensityMatrix) else np.asarray(rho)
    return float(np.real(np.trace(m @ m)))


def thermal_probabilities(n_bar: float, n_max: int) -> np.ndarray:
    """Geometric thermal weights p_n = n_bar^n / (1+n_bar)^{n+1}, n=0..n_max."""
    if n_bar < 0:
        raise ValueError("mean occupation must be >= 0")
    if n_bar == 0.0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    n = np.arange(n_max + 1)
    ratio = n_bar / (1.0 + n_bar)
    return np.exp(n * np.log(ratio) - np.log1p(n_bar))


# Probability a thermal distribution may leave beyond its last level.
_THERMAL_TAIL = 1e-9


@dataclass
class ThermalDistribution:
    """Thermal phonon distribution over 0..n_max, the levels it needs.

    With r = n_bar / (1 + n_bar), ``n_max`` is the smallest n >= 4 with
    r^n <= 1e-9 (0 for the ground state), so the truncated tail r^(n_max+1)
    stays below 1e-9.
    """

    n_bar: float
    n_max: int = field(init=False)
    probabilities: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.n_max = 0
        if self.n_bar > 0.0:
            ratio = self.n_bar / (1.0 + self.n_bar)
            self.n_max = max(4, math.ceil(math.log(_THERMAL_TAIL) / math.log(ratio)))
        self.probabilities = thermal_probabilities(self.n_bar, self.n_max)

    @property
    def truncated_mass(self) -> float:
        return float(1.0 - self.probabilities.sum())


def level_weights(target: int | ThermalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(Fock levels, probabilities) of a pure level or a thermal mode."""
    if isinstance(target, ThermalDistribution):
        return np.arange(target.n_max + 1), target.probabilities
    return np.array([int(target)]), np.array([1.0])

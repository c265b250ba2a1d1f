"""Two-qubit x single-mode Hilbert space utilities.

Conventions used throughout the package
---------------------------------------
* Single-qubit basis: |g> = (1, 0)^T, |e> = (0, 1)^T with the standard
  Pauli matrices, so sigma_z|g> = +|g> and sigma_y|g> = i|e>.
* Two-qubit computational order: (gg, ge, eg, ee) -> qubit index 0..3.
  Every amplitude vector and density matrix in the package uses it.
* sigma_y eigenbasis: |+> = (|g> + i|e>)/sqrt(2), |-> = (|g> - i|e>)/sqrt(2)
  (eigenvalues +1 and -1); two-qubit order (++, +-, -+, --).
  ``SIGMA_Y_BASIS`` maps computational coordinates to these.
* Composite kets are stored qubit-major: flat index = q*(n_max+1) + n for
  qubit-pair index q and Fock level n, i.e. kron(qubit, phonon).

Displacement matrix elements <m|D(beta)|n> come from one exact column
recurrence, :func:`displacement_matrix`.  It gives the matrix elements of
the infinite-dimensional operator: truncation affects only which rows are
stored, not their values.  It builds the ideal propagator and, as the
lam = 0 eigenvectors D(s*omega)|k>, every coefficient table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FockCutoff",
    "CompositeState",
    "QubitDensityMatrix",
    "ThermalDistribution",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "QUBIT_LABELS",
    "SIGMA_Y_BASIS",
    "displacement_matrix",
    "partial_trace_phonons",
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

# Two-qubit map: rows (++, +-, -+, --), columns (gg, ge, eg, ee).
SIGMA_Y_BASIS = np.kron(_W1, _W1)


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

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.cutoff.composite_dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({self.cutoff.composite_dim},)"
            )
        self.amplitudes = amps

    @classmethod
    def basis_state(cls, qubit: int | str, n: int, cutoff: FockCutoff) -> "CompositeState":
        """|qubit-pair, n> with qubit given as index 0..3 or label like 'gg'."""
        if isinstance(qubit, str):
            qubit = QUBIT_LABELS.index(qubit)
        amps = np.zeros(cutoff.composite_dim, dtype=complex)
        amps[cutoff.index(qubit, n)] = 1.0
        return cls(amps, cutoff)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def qubit_block(self, qubit: int) -> np.ndarray:
        """Phonon amplitudes attached to one qubit-pair index (a view)."""
        d = self.cutoff.dim
        return self.amplitudes[qubit * d : (qubit + 1) * d]

    def overlap(self, other: "CompositeState") -> complex:
        """<self|other>."""
        if other.cutoff != self.cutoff:
            raise ValueError("states live on different cutoffs")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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


def displacement_matrix(alpha: complex, cutoff: FockCutoff | int) -> np.ndarray:
    """Dense [<m|D(alpha)|n>] for m, n = 0..n_max, by column recurrence.

    From D a^dag D^dag = a^dag - conj(alpha):

        <m|D|0>   = e^{-|a|^2/2} alpha^m / sqrt(m!)
        <m|D|n+1> = (sqrt(m) <m-1|D|n> - conj(alpha) <m|D|n>) / sqrt(n+1)

    The recurrence only references lower row indices, so every stored entry
    is the untruncated operator's matrix element: truncation changes none.
    Rounding grows along the columns, to about 2e-14 at alpha = 0.5 and
    2e-10 at alpha = 1.1 - 0.3j by column 75.
    """
    dim = cutoff.dim if isinstance(cutoff, FockCutoff) else int(cutoff)
    alpha = np.complex128(alpha)
    out = np.empty((dim, dim), dtype=complex)
    sqrt_m = np.sqrt(np.arange(dim))
    # Coherent-state column.
    out[0, 0] = np.exp(-0.5 * np.abs(alpha) ** 2)
    for m in range(1, dim):
        out[m, 0] = out[m - 1, 0] * alpha / sqrt_m[m]
    shifted = np.zeros(dim, dtype=complex)
    for n in range(dim - 1):
        col = out[:, n]
        shifted[1:] = col[:-1] * sqrt_m[1:]
        out[:, n + 1] = (shifted - alpha.conj() * col) / sqrt_m[n + 1]
    return out


def partial_trace_phonons(state: CompositeState) -> QubitDensityMatrix:
    """Reduced qubit-pair density matrix; rows/columns follow ``QUBIT_LABELS``."""
    v = state.amplitudes.reshape(4, state.cutoff.dim)
    return QubitDensityMatrix(v @ v.conj().T)


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

# Most Fock levels a thermal distribution may span: far above any table
# (n_max <= 120) or oracle cutoff, and refused before any array is made.
_THERMAL_MAX_LEVELS = 10_000


@dataclass
class ThermalDistribution:
    """Thermal phonon distribution over 0..n_max, the levels it needs.

    With r = n_bar / (1 + n_bar), ``n_max`` is the smallest n >= 4 with
    r^n <= 1e-9 (0 for the ground state), so the truncated tail r^(n_max+1)
    stays below 1e-9.  A non-finite ``n_bar``, or one that needs more than
    10^4 levels (n_bar above about 480), raises ``ValueError``.
    """

    n_bar: float
    n_max: int = field(init=False)
    probabilities: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.n_bar):
            raise ValueError(f"n_bar must be finite, got {self.n_bar}")
        self.n_max = 0
        if self.n_bar > 0.0:
            # r^n = 1e-9 at n = log(1e-9) / log(r).  log(r) = -log1p(1 / n_bar)
            # stays nonzero where r itself rounds to 1 (n_bar above 1e16).
            n_tail = math.log(_THERMAL_TAIL) / -math.log1p(1.0 / self.n_bar)
            if n_tail + 1.0 > _THERMAL_MAX_LEVELS:
                raise ValueError(
                    f"n_bar = {self.n_bar:g} needs {n_tail + 1.0:.3g} Fock levels to "
                    f"hold all but {_THERMAL_TAIL:.0e} of its probability; at most "
                    f"{_THERMAL_MAX_LEVELS} are supported"
                )
            self.n_max = max(4, math.ceil(n_tail))
        self.probabilities = thermal_probabilities(self.n_bar, self.n_max)

    @property
    def truncated_mass(self) -> float:
        return float(1.0 - self.probabilities.sum())


def level_weights(target: int | ThermalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(Fock levels, probabilities) of a pure level or a thermal mode."""
    if isinstance(target, ThermalDistribution):
        return np.arange(target.n_max + 1), target.probabilities
    return np.array([int(target)]), np.array([1.0])

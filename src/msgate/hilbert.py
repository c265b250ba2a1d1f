"""Two-qubit x single-mode Hilbert space utilities.

Conventions used throughout the package
---------------------------------------
* Single-qubit basis: |g> = (1, 0)^T, |e> = (0, 1)^T with the standard
  Pauli matrices, so sigma_z|g> = +|g> and sigma_y|g> = i|e>.
* Two-qubit computational order: (gg, ge, eg, ee) -> qubit index 0..3.
  Every amplitude vector and density matrix in the package uses it.
* sigma_y eigenbasis: |+> = (|g> + i|e>)/sqrt(2), |-> = (|g> - i|e>)/sqrt(2)
  (eigenvalues +1 and -1); two-qubit order (++, +-, -+, --).
* Composite kets are plain complex amplitude arrays of length 4*(n_max+1)
  (a batch is one column each), stored qubit-major: flat index =
  q*(n_max+1) + n for qubit-pair index q and Fock level n, i.e.
  kron(qubit, phonon).

Displacement matrix elements <m|D(beta)|n> come from one exact column
recurrence, :func:`displacement_matrix`.  It gives the matrix elements of
the infinite-dimensional operator: truncation affects only which rows are
stored, not their values.  As the lam = 0 eigenvectors D(s*omega)|k>, it
builds every coefficient table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FockCutoff",
    "ThermalDistribution",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "QUBIT_LABELS",
    "displacement_matrix",
    "thermal_probabilities",
    "level_weights",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

QUBIT_LABELS = ("gg", "ge", "eg", "ee")

@dataclass(frozen=True)
class FockCutoff:
    """Phonon truncation at levels 0..n_max inclusive."""

    n_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, numbers.Integral):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
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


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """Dense [<m|D(alpha)|n>] for m, n = 0..dim-1, by column recurrence.

    From D a^dag D^dag = a^dag - conj(alpha):

        <m|D|0>   = e^{-|a|^2/2} alpha^m / sqrt(m!)
        <m|D|n+1> = (sqrt(m) <m-1|D|n> - conj(alpha) <m|D|n>) / sqrt(n+1)

    The recurrence only references lower row indices, so every stored entry
    is the untruncated operator's matrix element: truncation changes none.
    Rounding grows along the columns, to about 2e-14 at alpha = 0.5 and
    2e-10 at alpha = 1.1 - 0.3j by column 75.  Column n is built in place
    as row n of a transposed buffer, from the row before it, and the result
    is a C-ordered copy of that buffer's transpose.
    """
    alpha = np.complex128(alpha)
    cols = np.empty((dim, dim), dtype=complex)  # cols[n, m] = <m|D|n>
    sqrt_m = np.sqrt(np.arange(dim))
    # Coherent-state column.
    cols[0, 0] = np.exp(-0.5 * np.abs(alpha) ** 2)
    for m in range(1, dim):
        cols[0, m] = cols[0, m - 1] * alpha / sqrt_m[m]
    cols[1:, 0] = 0.0  # <0|D|n+1> has no sqrt(m) <m-1|D|n> term
    conj_alpha = alpha.conj()
    hop = np.empty(dim, dtype=complex)
    for n in range(dim - 1):
        col, nxt = cols[n], cols[n + 1]
        np.multiply(col[:-1], sqrt_m[1:], out=nxt[1:])
        np.multiply(conj_alpha, col, out=hop)
        np.subtract(nxt, hop, out=nxt)
        np.divide(nxt, sqrt_m[n + 1], out=nxt)
    return cols.T.copy()


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


def level_weights(target: int | ThermalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(Fock levels, probabilities) of a pure level or a thermal mode."""
    if isinstance(target, ThermalDistribution):
        return np.arange(target.n_max + 1), target.probabilities
    return np.array([int(target)]), np.array([1.0])

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
  kron(qubit, phonon).  :class:`FockCutoff` owns this layout: its
  members index it, give its two diagonals N and S_z, and split a ket into
  its four qubit-pair blocks.  Every S_z in the package, the oracle's
  Hamiltonian included, is that diagonal; no Pauli-z matrix is kept, and
  ``SIGMA_X`` and ``SIGMA_Y`` serve the collective spin S_phi alone.

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
    "QUBIT_LABELS",
    "displacement_matrix",
    "level_weights",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

QUBIT_LABELS = ("gg", "ge", "eg", "ee")


# The input rules every module checks its arguments by, each in one place.

def _count(name: str, value, least: int = 0, most: int | None = None) -> int:
    """``value`` as an int, if it is an integer (a numpy integer or a 0-d
    integer array too, but not a bool, a float such as 6.0, a string or
    None) in least..most (unbounded above when ``most`` is None); else
    ``ValueError`` naming ``name``."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]  # the numpy scalar it holds, as _number reads it
    whole = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if whole and least <= value and (most is None or value <= most):
        return int(value)
    span = f">= {least}" if most is None else f"in {least}..{most}"
    # tolist() spells a numpy scalar as a plain number: 1.5, not np.float64(1.5).
    raise ValueError(f"{name} must be an integer {span}, got {np.asarray(value).tolist()!r}")


def _finite(name: str, value) -> np.ndarray:
    """``value``, a real number or an array of them, as a float array; else
    ``ValueError`` naming ``name``.  nan, inf, bools, complex numbers and
    strings are refused."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    arr = np.asarray(arr, dtype=float)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")
    return arr


def _number(name: str, value) -> float:
    """``value`` as a float, if it is one finite real number (a numpy scalar
    or a 0-d array too); else ``ValueError`` naming ``name``: whatever
    :func:`_finite` refuses, then any array with an axis, a one-element
    list included."""
    arr = _finite(name, value)
    if arr.ndim:
        raise ValueError(f"{name} must be a single number, got {np.asarray(value).tolist()!r}")
    return float(arr)


def _label(label: str) -> str:
    """``label`` if it is one of :data:`QUBIT_LABELS`, else ``ValueError``."""
    if label not in QUBIT_LABELS:
        raise ValueError(f"unknown qubit label {label!r}")
    return label


@dataclass(frozen=True)
class FockCutoff:
    """Phonon truncation at levels 0..n_max inclusive, and the owner of the
    qubit-major composite layout (module docstring): :meth:`index`,
    :attr:`number` and :attr:`s_z`, the composite basis' two diagonals, and
    :meth:`blocks`, the four qubit-pair blocks of a ket or a batch.

    ``n_max`` and the Fock levels :meth:`index` takes are counts: integers,
    numpy integers and 0-d integer arrays included but not bools or floats
    such as 32.0; anything else raises ``ValueError`` naming the parameter.
    A value: ``n_max`` is kept as the Python int :func:`_count` returns, so
    a cutoff built from a numpy integer compares, hashes and serialises as
    one built from an int."""

    n_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", _count("n_max", self.n_max))

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @property
    def composite_dim(self) -> int:
        return 4 * self.dim

    def index(self, qubit: int, n: int) -> int:
        """Flat index of |qubit-pair q, Fock n> (qubit-major)."""
        return _count("qubit", qubit, 0, 3) * self.dim + _count("Fock level n", n, 0, self.n_max)

    @property
    def number(self) -> np.ndarray:
        """Phonon number N on the composite basis, as a (4 dim, 1) column."""
        return np.tile(np.arange(self.dim, dtype=float), 4)[:, None]

    @property
    def s_z(self) -> np.ndarray:
        """Collective S_z on the composite basis, (1, 0, 0, -1) over the
        qubit pairs (gg, ge, eg, ee), as a (4 dim, 1) column."""
        return np.repeat([1.0, 0.0, 0.0, -1.0], self.dim)[:, None]

    def blocks(self, amps: np.ndarray) -> np.ndarray:
        """A composite ket, or a batch of them as columns, as its four
        qubit-pair blocks: shape (4, dim, columns), [q, n, j] the amplitude
        of column j on |q, n>, a view wherever numpy's reshape gives one."""
        return np.asarray(amps).reshape(4, self.dim, -1)


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """Dense [<m|D(alpha)|n>] for m, n = 0..dim-1, by column recurrence.

    From D a^dag D^dag = a^dag - conj(alpha):

        <m|D|0>   = e^{-|a|^2/2} alpha^m / sqrt(m!)
        <m|D|n+1> = (sqrt(m) <m-1|D|n> - conj(alpha) <m|D|n>) / sqrt(n+1)

    The recurrence only references lower row indices, so every stored entry
    is the untruncated operator's matrix element: truncation changes none.
    Rounding grows along the columns, to about 2e-14 at alpha = 0.5 and
    2e-10 at alpha = 1.1 - 0.3j by column 75.  Against the same recurrence
    in 50 digits, on the rows 0..n_max of a table build's spectrum (sizes
    of n_max 40 and 120), the error is 2.7e-13 at alpha = 1/2 and n_max
    120 and at most 4.4e-15 otherwise for alpha = 1/(2 sqrt K), K in
    {1, 4, 100}.  At alpha = 1.5 and size 228 it reaches 15 in the last
    rows (see :func:`msgate.magnus.compute_coefficient_table`).
    Column n is built in place as row n of a transposed buffer, from the
    row before it, in real arithmetic for a real ``alpha`` (the matrix is
    then real) and complex otherwise, by one loop; the division by sqrt(n+1) is a product with its
    reciprocal, which is what numpy's complex-by-real division computes, so
    a real ``alpha`` gives the complex recurrence's real parts bit for bit
    (and +0 imaginary parts, where that route may leave -0).  The result
    is a C-ordered complex copy of the buffer's transpose, whatever
    ``alpha``: the table products' rounding depends on the operand layout.
    ``dim`` is a count >= 1 and ``alpha`` one finite real number, or a
    complex one whose real and imaginary parts each are (the rule of
    :func:`_number`), else ``ValueError`` naming it.
    """
    dim = _count("dim", dim, 1)
    if np.iscomplexobj(alpha):
        alpha = np.complex128(_number("alpha", np.real(alpha)), _number("alpha", np.imag(alpha)))
    else:
        alpha = np.float64(_number("alpha", alpha))
    cols = np.empty((dim, dim), dtype=alpha.dtype)  # cols[n, m] = <m|D|n>
    sqrt_m = np.sqrt(np.arange(dim))
    scale = 1.0 / sqrt_m[1:]  # scale[n] = 1 / sqrt(n+1)
    # Coherent-state column, in Python scalars: numpy's IEEE products, faster.
    entry, a = np.exp(-0.5 * np.abs(alpha) ** 2).item(), alpha.item()
    cols[0, 0] = entry
    for m, s in enumerate(scale.tolist(), start=1):
        entry = entry * a * s
        cols[0, m] = entry
    cols[1:, 0] = 0.0  # <0|D|n+1> has no sqrt(m) <m-1|D|n> term
    conj_alpha = alpha.conj()
    hop = np.empty(dim, dtype=alpha.dtype)
    # Row n+1 from row n; ``shifted`` is row n+1 from level 1 on.
    for col, nxt, shifted, s in zip(cols, cols[1:], cols[1:, 1:], scale):
        np.multiply(col[:-1], sqrt_m[1:], out=shifted)
        np.multiply(conj_alpha, col, out=hop)
        np.subtract(nxt, hop, out=nxt)
        np.multiply(nxt, s, out=nxt)
    return cols.T.astype(complex, order="C")


# Probability a thermal distribution may leave beyond its last level.
_THERMAL_TAIL = 1e-9

# Most Fock levels a thermal distribution may span: far above any table
# (n_max <= 120) or oracle cutoff, and refused before any array is made.
_THERMAL_MAX_LEVELS = 10_000


@dataclass(frozen=True)
class ThermalDistribution:
    """Thermal phonon distribution over 0..n_max, the levels it needs.

    ``probabilities`` holds the geometric weights
    p_n = n_bar^n / (1+n_bar)^{n+1}, n = 0..n_max.
    With r = n_bar / (1 + n_bar), ``n_max`` is the smallest n >= 4 with
    r^n <= 1e-9 (0 for the ground state), so the truncated tail r^(n_max+1)
    stays below 1e-9.  ``n_bar`` is one finite real number (the rule of
    :func:`_number`); a negative one, or one that needs more than 10^4
    levels (n_bar above about 480), raises ``ValueError`` naming it.
    A value: ``n_bar`` is kept as the Python float that rule returns, and
    ``n_max`` and the read-only ``probabilities`` are computed once from
    it, so two modes compare and hash by ``n_bar`` alone, however the
    caller wrote it.
    """

    n_bar: float
    n_max: int = field(init=False, compare=False)
    probabilities: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_bar", _number("n_bar", self.n_bar))
        if self.n_bar < 0:
            raise ValueError(f"n_bar must be >= 0, got {self.n_bar:g}")
        n_max, weights = 0, np.ones(1)
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
            n_max = max(4, math.ceil(n_tail))
            log_r = np.log(self.n_bar / (1.0 + self.n_bar))
            weights = np.exp(np.arange(n_max + 1) * log_r - np.log1p(self.n_bar))
        weights.flags.writeable = False
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "probabilities", weights)


def level_weights(target: int | ThermalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(Fock levels, probabilities) of a pure level or a thermal mode."""
    if isinstance(target, ThermalDistribution):
        return np.arange(target.n_max + 1), target.probabilities
    return np.array([_count("Fock level n", target)]), np.array([1.0])


def _level_sum(weights: np.ndarray, values: np.ndarray):
    """sum_k weights[k] * values[k] over the level axis (``values``' first),
    added left to right, level 0 first.

    Every level average in the package is this sum.  It is the last row of
    one running sum along the level axis: ``np.cumsum`` adds each row to the
    total of the rows before it, so the order of the additions is fixed,
    unlike a BLAS dot or a reduction whose order numpy picks (pairwise
    summation), and a thermal result does not move with the BLAS build; a
    single weight of 1.0 returns its values exactly."""
    terms = weights.reshape((-1,) + (1,) * (values.ndim - 1)) * values
    return np.cumsum(terms, axis=0)[-1]

"""Independent references the benchmark checks msgate's outputs against.

Nothing here imports msgate.  Two kinds of reference live in this module:

* an exact propagator for the gate Hamiltonian.  In the frame
  psi = exp(i N tau) chi the static-axis Hamiltonian
  H(tau) = lam S_z - omega (a^dag e^{i tau} + a e^{-i tau}) S_phi
  becomes the constant H' = lam S_z - omega (a + a^dag) S_phi + N, so a gate
  is one matrix exponential per lam.  The ramped-axis Hamiltonian
  H(s) = -omega (a^dag e^{is} + a e^{-is}) S_{phi0 + lam s} reduces to the
  same H' (with phi = 0) in the frame exp(i (N + lam S_z) s), with the scan
  phase phi0 entering as conjugation by exp(i phi0 S_z).
* the closed-form second-order predictors, evaluated on coefficient
  scalars stored in ``refs.json`` (written by ``make_refs.py``).

Conventions follow msgate's: qubit-pair order (gg, ge, eg, ee), composite
index q * dim + n, S_phi = S_y cos(phi) + S_x sin(phi).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
# Diagonal of S_z = (sigma_z x 1 + 1 x sigma_z)/2 over (gg, ge, eg, ee).
_SZ_DIAG = np.array([1.0, 0.0, 0.0, -1.0])


def table_key(n_max: int, panels_1d: int, panels_2d: int) -> str:
    """Key of one table shape in ``refs.json``."""
    return f"{n_max}/{panels_1d}/{panels_2d}"


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------------ exact propagator

def _spin(phi: float) -> np.ndarray:
    s1 = _SY * math.cos(phi) + _SX * math.sin(phi)
    return 0.5 * (np.kron(s1, _I2) + np.kron(_I2, s1))


class ExactGate:
    """Exact propagators at one Fock cutoff and coupling, cached per (lam, span)."""

    def __init__(self, n_max: int, omega: float):
        self.dim = n_max + 1
        d = self.dim
        ladder = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
        self._x = ladder + ladder.conj().T
        self.omega = omega
        self.number = np.tile(np.arange(d, dtype=float), 4)
        self.sz = np.repeat(_SZ_DIAG, d)
        self._cache: dict[tuple, np.ndarray] = {}

    def _step(self, lam: float, phi: float, duration: float) -> np.ndarray:
        key = (float(lam), float(phi), float(duration))
        if key not in self._cache:
            h = (
                lam * np.diag(self.sz)
                - self.omega * np.kron(_spin(phi), self._x)
                + np.diag(self.number)
            )
            self._cache[key] = expm(-1j * duration * h)
        return self._cache[key]

    def static(self, amps, lam_values, span, phi: float = 0.0) -> np.ndarray:
        """Static-axis gate over ``span``; column j uses ``lam_values[j]``."""
        amps = np.asarray(amps, dtype=complex).reshape(4 * self.dim, -1)
        lam = np.broadcast_to(np.asarray(lam_values, dtype=float), (amps.shape[1],))
        t0, t1 = span
        out = np.empty_like(amps)
        for value in np.unique(lam):
            cols = lam == value
            x = np.exp(-1j * t0 * self.number)[:, None] * amps[:, cols]
            out[:, cols] = np.exp(1j * t1 * self.number)[:, None] * (
                self._step(value, phi, t1 - t0) @ x
            )
        return out

    def ramped(self, amps, lam: float, phi_values, span) -> np.ndarray:
        """Ramped-axis gate over ``span``; column j starts at axis ``phi_values[j]``."""
        amps = np.asarray(amps, dtype=complex).reshape(4 * self.dim, -1)
        phi = np.broadcast_to(np.asarray(phi_values, dtype=float), (amps.shape[1],))
        s0, s1 = span
        gen = self.number + lam * self.sz
        conj_phi = np.exp(1j * np.outer(self.sz, phi))
        x = conj_phi.conj() * (np.exp(-1j * s0 * gen)[:, None] * amps)
        y = self._step(lam, 0.0, s1 - s0) @ x
        return np.exp(1j * s1 * gen)[:, None] * (conj_phi * y)


def gg_observables(final: np.ndarray, n: int, dim: int) -> dict:
    """Scorecard of a gate's output column for input |gg, n>."""
    v = final.reshape(4, dim)
    rho = v @ v.conj().T
    coh = rho[3, 0]
    pref = np.exp(0.25j * math.pi) / math.sqrt(2.0)
    target = pref * np.array([1.0, 0.0, 0.0, -1.0j])
    pops = np.real(np.diag(rho))
    return {
        "relative_phase": float(np.angle(coh)),
        "p_gg": float(pops[0]),
        "p_ge": float(pops[1]),
        "p_eg": float(pops[2]),
        "p_ee": float(pops[3]),
        "coherence_abs": float(abs(coh)),
        "fidelity": float(np.real(target.conj() @ rho @ target)),
        "purity": float(np.real(np.trace(rho @ rho))),
    }


def sweep_reference(lams, fock, n_max: int, omega: float) -> dict:
    """Exact observables keyed by (fock_n, lambda index) for a |gg, n> sweep."""
    gate = ExactGate(n_max, omega)
    d = gate.dim
    out = {}
    for i, lam in enumerate(lams):
        for n in fock:
            col = np.zeros(4 * d, dtype=complex)
            col[n] = 1.0
            final = gate.static(col, [lam], (0.0, 2.0 * math.pi))[:, 0]
            out[(n, i)] = gg_observables(final, n, d)
    return out


# ------------------------------------------------------- closed-form predictors

class Scalars:
    """Per-level coefficient scalars of one table shape, from ``refs.json``."""

    def __init__(self, entry: dict):
        self.a = np.asarray(entry["a"])
        self.b = np.asarray(entry["b_re"]) + 1j * np.asarray(entry["b_im"])
        self.c_gg = np.asarray(entry["c_gg"])
        self.c_ee = np.asarray(entry["c_ee"])
        self.c_eg = np.asarray(entry["c_eg"])
        self.trusted = np.asarray(entry["trusted"], dtype=bool)

    def thermal(self, n_bar: float) -> tuple[np.ndarray, np.ndarray]:
        """Levels and geometric weights up to the cutoff keeping 1e-9 of tail."""
        ratio = n_bar / (1.0 + n_bar)
        top = max(4, int(math.ceil(math.log(1e-9) / math.log(ratio))))
        levels = np.arange(top + 1)
        return levels, np.exp(levels * math.log(ratio) - math.log1p(n_bar))

    def phase(self, levels, weights, lam: float, sign: float = 1.0) -> float:
        vals = -math.pi / 2 + sign * lam * self.a[levels] + lam**2 * self.b[levels].real
        return float(np.dot(weights, vals))

    def fidelity(self, levels, weights, lam: float) -> float:
        vals = 1.0 + 0.5 * lam**2 * (
            self.c_gg[levels] + self.c_ee[levels] - self.b[levels].imag
        )
        return float(np.dot(weights, vals))

    def populations(self, n: int, lam: float, initial: str = "gg") -> np.ndarray:
        l2 = lam**2
        first, last = (self.c_gg[n], self.c_ee[n])
        if initial == "ee":
            first, last = last, first
        return np.array([0.5 + l2 * first, l2 * self.c_eg[n], l2 * self.c_eg[n], 0.5 + l2 * last])

    def coherence(self, n: int, lam: float, initial: str = "gg") -> complex:
        sign = 1.0 if initial == "gg" else -1.0
        return complex(-1j + sign * lam * self.a[n] + lam**2 * self.b[n]) / 2.0

    def purity(self, n: int, lam: float) -> float:
        return float(
            1.0 - lam**2 * (self.b[n].imag - 0.5 * self.a[n] ** 2 - self.c_gg[n] - self.c_ee[n])
        )

    def sweep_row(self, n: int, lam: float) -> dict:
        pops = self.populations(n, lam)
        one = (np.array([n]), np.array([1.0]))
        return {
            "pred_phase": self.phase(*one, lam),
            "pred_p_gg": pops[0],
            "pred_p_ge": pops[1],
            "pred_p_eg": pops[2],
            "pred_p_ee": pops[3],
            "pred_coherence_abs": abs(self.coherence(n, lam)),
            "pred_fidelity": self.fidelity(*one, lam),
            "pred_purity": self.purity(n, lam),
            "pred_population_sum": float(pops.sum()),
        }

"""Two-gate calibration sequence: fringe simulation, fit, and inversion.

The sequence applies the entangling gate twice from |gg> with the second
gate's drive phase advanced by a scan value phi_d.  A center-line detuning
error lam makes the qubit frame slip against the drive between and during
the gates; to first order the excited-pair population traces

    P(ee)(phi_d) = (1 + cos(2*phi_d + phi_seq)) / 2,
    phi_seq      = 2 * lam * a_n / detuning,

with a_n the per-Fock-level phase slope from the coefficient table.  The
fitted fringe phase therefore measures lam directly.  The fringe is linear
in (A cos phi_seq, A sin phi_seq, offset), so the fit is a weighted linear
least-squares solve with no iteration and no starting guess.

Two engines produce fringes: ``first_order_model`` evaluates the cosine
model above (thermally weighted when asked), and ``oracle`` propagates the
full ramped-axis Hamiltonian exactly (see :mod:`msgate.oracle`) with the
axis angle continuing across both gates, as drive-phase bookkeeping works
on hardware, and raises when either gate fails its health checks.
Populations are frame-independent, so the two may be compared directly.

The coefficient table owns the gate: the oracle runs its ``omega_tilde`` for
its ``tau_gate``, so the fringe and the slope a_n always describe one gate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .hilbert import FockCutoff, ThermalDistribution, level_weights
from .magnus import LAMBDA_HARD_CAP, CoefficientTable, _checked
from .oracle import _basis_columns, propagate_ramped_axis

__all__ = [
    "SequenceConfig",
    "FringeFit",
    "LambdaEstimate",
    "phase_scan",
    "simulate_fringe",
    "sample_fringe",
    "fit_fringe",
    "effective_phase_slope",
    "phi_seq_prediction",
    "estimate_lambda",
    "run_calibration",
]

ENGINES = ("first_order_model", "oracle")


def _check_shots(shots: int | None) -> None:
    """Refuse a shot count that is neither None nor a whole number >= 1."""
    if shots is not None and not (shots >= 1 and float(shots).is_integer()):
        raise ValueError("shots must be positive")


@dataclass(frozen=True)
class SequenceConfig:
    """Physical and numerical settings for one calibration run.

    ``detuning`` (signed, rad/s) sets the gate clock; each gate lasts
    ``tau_gate``/|detuning|, with ``tau_gate`` that of the coefficient table
    the run is given.  ``qubit_shift`` is the center-line error lam (rad/s)
    being estimated.  ``mode`` is the initial mode of the motion: a Fock
    level or a thermal distribution.  ``shots`` per scan point is a whole
    number >= 1, or None to fit exact probabilities.
    """

    detuning: float
    qubit_shift: float
    mode: int | ThermalDistribution = 0
    phase_points: int = 16
    shots: int | None = 200
    engine: str = "oracle"
    cutoff_n_max: int = 32

    def __post_init__(self) -> None:
        for name in ("detuning", "qubit_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.detuning == 0.0:
            raise ValueError("detuning must be nonzero")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if abs(self.lambda_tilde) > LAMBDA_HARD_CAP:
            raise ValueError(
                f"|qubit_shift/detuning| = {abs(self.lambda_tilde):.3f} "
                f"exceeds {LAMBDA_HARD_CAP}"
            )
        if not isinstance(self.phase_points, numbers.Integral):
            raise ValueError(f"phase_points must be an integer, got {self.phase_points!r}")
        if self.phase_points < 5:
            raise ValueError("need at least 5 phase points to fit 3 parameters")
        if not isinstance(self.mode, ThermalDistribution):
            if not isinstance(self.mode, numbers.Integral):
                raise ValueError("mode must be an integer Fock level or a "
                                 f"ThermalDistribution, got {self.mode!r}")
            if self.mode < 0:
                raise ValueError(f"the initial Fock level must be >= 0, got {self.mode}")
        _check_shots(self.shots)

    @property
    def lambda_tilde(self) -> float:
        return self.qubit_shift / self.detuning


def phase_scan(n_points: int) -> np.ndarray:
    """Evenly spaced scan phases covering one fringe period [0, pi)."""
    return np.arange(n_points) * math.pi / n_points


def effective_phase_slope(
    table: CoefficientTable, n: int | ThermalDistribution
) -> float:
    """a_n, or the thermally weighted mean slope sum_n p_n a_n.

    To first order the thermal fringe is a phasor average of per-level
    fringes, so its fitted phase corresponds to the weighted mean slope.
    """
    levels, weights, _ = _checked(n, table, thermal=True)
    return float(weights @ table.derived().a[levels])


def phi_seq_prediction(qubit_shift: float, detuning: float, slope: float) -> float:
    """First-order fringe phase 2*lam*a/detuning (radians)."""
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    return 2.0 * qubit_shift * slope / detuning


def _model_fringe(
    config: SequenceConfig, phi_d: np.ndarray, table: CoefficientTable
) -> np.ndarray:
    levels, weights, _ = _checked(config.mode, table, thermal=True)
    slips = 2.0 * config.lambda_tilde * table.derived().a[levels]
    terms = (weights * 0.5)[:, None] * (1.0 + np.cos(2.0 * phi_d + slips[:, None]))
    # A sum down the level axis adds the levels in order, unlike a BLAS dot,
    # so a thermal fringe does not move with the BLAS build.
    return terms.sum(axis=0)


def _oracle_fringe(
    config: SequenceConfig, table: CoefficientTable, phi_d: np.ndarray
) -> np.ndarray:
    cutoff = FockCutoff(config.cutoff_n_max)
    levels, weights = level_weights(config.mode)
    lam = config.lambda_tilde
    omega, tau = table.params.omega_tilde, table.params.tau_gate
    # Gate 1 at drive phase 0, one column per initial Fock level.
    init = _basis_columns(0, levels, cutoff)
    mid, _, _ = propagate_ramped_axis(
        init, cutoff, omega, lam, np.zeros(len(levels)), (0.0, tau)
    )
    # Gate 2 spans s in [tau, 2 tau]; the axis ramp continues through it, so
    # the scan phase enters on top of the accumulated slip.
    cols = np.repeat(mid, phi_d.size, axis=1)
    phis = np.tile(phi_d, len(levels))
    fin, _, _ = propagate_ramped_axis(cols, cutoff, omega, lam, phis, (tau, 2.0 * tau))
    d = cutoff.dim
    p_ee = (np.abs(fin[3 * d :, :]) ** 2).sum(axis=0)
    p_ee = p_ee.reshape(len(levels), phi_d.size)
    return weights @ p_ee


def simulate_fringe(
    config: SequenceConfig,
    table: CoefficientTable,
    phi_d: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact fringe probabilities P(ee)(phi_d) of the configured engine,
    which runs the gate of ``table``."""
    if phi_d is None:
        phi_d = phase_scan(config.phase_points)
    phi_d = np.asarray(phi_d, dtype=float)
    if config.engine == "first_order_model":
        return phi_d, _model_fringe(config, phi_d, table)
    return phi_d, _oracle_fringe(config, table, phi_d)


def sample_fringe(
    p_ee: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Binomial shot noise: observed excitation fractions of ``shots``
    draws, a whole number >= 1."""
    _check_shots(shots)
    p = np.clip(np.asarray(p_ee, dtype=float), 0.0, 1.0)
    return rng.binomial(shots, p) / shots


@dataclass
class FringeFit:
    """Result of fitting A*cos(2*phi_d + phase) + offset, with A >= 0 and
    phase in (-pi, pi].

    The errors and the covariance are inf when the fit leaves them
    undetermined: at an amplitude of zero or at the rounding level of the
    data, where the phase has no meaning, and without ``shots`` when the
    residuals that would scale the covariance are at rounding level.
    """

    amplitude: float
    phase: float
    offset: float
    amplitude_err: float
    phase_err: float
    offset_err: float
    covariance: np.ndarray
    residual_rms: float
    n_points: int
    shots: int | None


# Residual RMS at or below which a fit without shots has no scale for its
# covariance: exact cosine fringes leave rounding of at most 6e-16.  The
# oracle fringe departs from a cosine as lam^4 (5.4e-13 at 10 Hz, 4.4e-11
# at 30 Hz against 11 kHz), so it keeps its error bars down to about 3 Hz.
_RESIDUAL_RMS_FLOOR = 1e-14


def _binomial_sigma(p: np.ndarray, shots: int) -> np.ndarray:
    """Binomial standard error of fractions p, floored as if p(1-p) >= 1/(4 shots)."""
    return np.sqrt(np.maximum(p * (1.0 - p), 0.25 / shots) / shots)


def _weighted_solve(design: np.ndarray, p_obs: np.ndarray, sigma: np.ndarray):
    """Weighted least-squares coefficients and their covariance inv(X^T W X)."""
    u, sv, vt = np.linalg.svd(design / sigma[:, None], full_matrices=False)
    if sv[-1] <= sv[0] * max(design.shape) * np.finfo(float).eps:
        raise ValueError("the scan phases do not determine the fringe (rank < 3)")
    coef = vt.T @ ((u.T @ (p_obs / sigma)) / sv)
    return coef, (vt.T / sv**2) @ vt


def fit_fringe(
    phi_d: np.ndarray, p_obs: np.ndarray, shots: int | None = None
) -> FringeFit:
    """Weighted least-squares fringe fit, solved in closed form.

    The frequency is fixed at 2 cycles per radian of scan phase (the pair
    coherence winds twice per drive-phase radian), so the model is linear
    in (c, s, offset) = (A cos phase, A sin phase, offset) on the columns
    [cos 2 phi_d, -sin 2 phi_d, 1], and each pass is one linear solve.
    With ``shots`` given, points are weighted by their binomial uncertainty
    and the covariance is absolute; otherwise it is scaled from the
    residuals.  Binomial weights are taken from a first-pass fitted curve
    rather than the observed fractions: observed-fraction weights correlate
    with the noise and understate the parameter covariance.  The
    covariance of (c, s, offset) maps to (A, phase, offset) through the
    Jacobian of A = hypot(c, s), phase = atan2(s, c).  Raises ValueError on
    ``shots`` that is neither None nor a whole number >= 1, non-finite data or
    scan phases that do not determine the fringe.
    """
    _check_shots(shots)
    phi_d = np.asarray(phi_d, dtype=float)
    p_obs = np.asarray(p_obs, dtype=float)
    if phi_d.shape != p_obs.shape or phi_d.ndim != 1 or phi_d.size < 5:
        raise ValueError("need matching 1-D phase/population arrays, >= 5 points")
    if not (np.isfinite(phi_d).all() and np.isfinite(p_obs).all()):
        raise ValueError("fringe data must be finite")
    design = np.column_stack(
        [np.cos(2.0 * phi_d), -np.sin(2.0 * phi_d), np.ones_like(phi_d)]
    )
    sigma = np.ones_like(p_obs)
    if shots is not None:
        coef, _ = _weighted_solve(design, p_obs, _binomial_sigma(p_obs, shots))
        sigma = _binomial_sigma(np.clip(design @ coef, 0.0, 1.0), shots)
    coef, cov = _weighted_solve(design, p_obs, sigma)
    resid = p_obs - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    c, s, offset = (float(x) for x in coef)
    amp = math.hypot(c, s)
    # Adding 0.0 turns a -0.0 sine into +0.0, keeping the phase off -pi.
    phase = math.atan2(s + 0.0, c)
    # An amplitude at the rounding level of the data is no fringe: a flat
    # scan fits A of 1e-16 to 3e-16 where exact arithmetic gives 0.
    amp_floor = phi_d.size * np.finfo(float).eps * float(np.abs(p_obs).max())
    if amp <= amp_floor or (shots is None and rms <= _RESIDUAL_RMS_FLOOR):
        cov = np.full((3, 3), math.inf)
    else:
        if shots is None:
            cov = cov * float(resid @ resid) / (phi_d.size - 3)
        cu, su = c / amp, s / amp
        jac = np.array([[cu, su, 0.0], [-su / amp, cu / amp, 0.0], [0.0, 0.0, 1.0]])
        cov = jac @ cov @ jac.T
    errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FringeFit(
        amplitude=amp,
        phase=phase,
        offset=offset,
        amplitude_err=float(errs[0]),
        phase_err=float(errs[1]),
        offset_err=float(errs[2]),
        covariance=cov,
        residual_rms=rms,
        n_points=phi_d.size,
        shots=shots,
    )


@dataclass
class LambdaEstimate:
    """Inverted center-line error with its propagated uncertainty."""

    lambda_hat: float
    lambda_err: float
    phi_seq: float
    phi_seq_err: float
    slope: float
    detuning: float
    caveats: list[str] = field(default_factory=list)


def estimate_lambda(
    fit: FringeFit, slope: float, detuning: float
) -> LambdaEstimate:
    """Invert the fitted fringe phase through phi_seq = 2*lam*slope/detuning."""
    if abs(slope) < 1e-6:
        raise ValueError(
            f"phase slope {slope:.2e} is too small to invert; the sequence "
            "is insensitive to the center-line error at this Fock level"
        )
    lam_hat = detuning * fit.phase / (2.0 * slope)
    lam_err = abs(detuning / (2.0 * slope)) * fit.phase_err
    caveats = []
    if abs(lam_hat / detuning) > 0.1:
        caveats.append(
            "estimated |shift/detuning| exceeds 0.1; the first-order "
            "inversion is biased this far out"
        )
    if fit.amplitude < 0.2:
        caveats.append("fringe contrast below 0.2; phase poorly constrained")
    if not math.isfinite(fit.phase_err):
        caveats.append("fringe covariance undetermined; the error bars are not meaningful")
    return LambdaEstimate(
        lambda_hat=float(lam_hat),
        lambda_err=float(lam_err),
        phi_seq=fit.phase,
        phi_seq_err=fit.phase_err,
        slope=slope,
        detuning=detuning,
        caveats=caveats,
    )


def run_calibration(
    config: SequenceConfig,
    table: CoefficientTable,
    rng: np.random.Generator | None = None,
) -> tuple[FringeFit, LambdaEstimate, np.ndarray, np.ndarray]:
    """Simulate, (optionally) sample, fit and invert one calibration scan.

    Returns (fit, estimate, phi_d, observed fractions).  Sampling is skipped
    when ``config.shots`` is None, in which case the fit sees exact
    probabilities.
    """
    phi_d, p_exact = simulate_fringe(config, table)
    if config.shots is None:
        p_obs = p_exact
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        p_obs = sample_fringe(p_exact, config.shots, rng)
    fit = fit_fringe(phi_d, p_obs, config.shots)
    slope = effective_phase_slope(table, config.mode)
    estimate = estimate_lambda(fit, slope, config.detuning)
    return fit, estimate, phi_d, p_obs

"""Two-gate calibration sequence: fringe simulation, fit, and inversion.

The sequence applies the entangling gate twice from |gg> with the second
gate's drive phase advanced by a scan value phi_d.  A center-line detuning
error lam makes the qubit frame slip against the drive between and during
the gates; to first order the excited-pair population traces

    P(ee)(phi_d) = (1 + cos(2*phi_d + phi_seq)) / 2,
    phi_seq      = 2 * lam * a_n / detuning,

with a_n the per-Fock-level phase slope from the coefficient table.  The
fitted fringe phase therefore measures lam directly.

Two engines produce fringes: ``first_order_model`` evaluates the cosine
model above (thermally weighted when asked), and ``oracle`` propagates the
full ramped-axis Hamiltonian exactly (see :mod:`msgate.oracle`) with the
axis angle continuing across both gates, as drive-phase bookkeeping works
on hardware, and raises when either gate fails its health checks.
Populations are frame-independent, so the two may be compared directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .hilbert import FockCutoff, ThermalDistribution, level_weights
from .magnus import LAMBDA_HARD_CAP, CoefficientTable, _scalars_for
from .oracle import _basis_columns, propagate_ramped_axis

__all__ = [
    "SequenceConfig",
    "FitError",
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


@dataclass(frozen=True)
class SequenceConfig:
    """Physical and numerical settings for one calibration run.

    ``detuning`` (signed, rad/s) sets the gate clock; each gate lasts
    2*pi/|detuning|.  ``qubit_shift`` is the center-line error lam (rad/s)
    being estimated.  A thermal initial mode is used when ``n_bar`` is set,
    otherwise the pure Fock level ``fock_initial``.
    """

    detuning: float
    qubit_shift: float
    omega_tilde: float = 0.5
    fock_initial: int = 0
    n_bar: float | None = None
    phase_points: int = 16
    shots: int | None = 200
    engine: str = "oracle"
    cutoff_n_max: int = 32

    def __post_init__(self) -> None:
        if self.detuning == 0.0:
            raise ValueError("detuning must be nonzero")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if abs(self.lambda_tilde) > LAMBDA_HARD_CAP:
            raise ValueError(
                f"|qubit_shift/detuning| = {abs(self.lambda_tilde):.3f} "
                f"exceeds {LAMBDA_HARD_CAP}"
            )
        if self.phase_points < 5:
            raise ValueError("need at least 5 phase points to fit 3 parameters")
        if self.n_bar is None and self.fock_initial < 0:
            raise ValueError("fock_initial must be >= 0")

    @property
    def lambda_tilde(self) -> float:
        return self.qubit_shift / self.detuning

    def target(self) -> int | ThermalDistribution:
        """The initial mode: the thermal distribution, or the Fock level."""
        if self.n_bar is None:
            return self.fock_initial
        return ThermalDistribution(self.n_bar)


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
    levels, weights = _scalars_for(n, table)
    return float(weights @ table.derived().a[levels])


def phi_seq_prediction(qubit_shift: float, detuning: float, slope: float) -> float:
    """First-order fringe phase 2*lam*a/detuning (radians)."""
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    return 2.0 * qubit_shift * slope / detuning


def _model_fringe(
    config: SequenceConfig, phi_d: np.ndarray, table: CoefficientTable
) -> np.ndarray:
    levels, weights = _scalars_for(config.target(), table)
    lam = config.lambda_tilde
    a = table.derived().a
    p = np.zeros_like(phi_d, dtype=float)
    for w, n in zip(weights, levels):
        p += w * 0.5 * (1.0 + np.cos(2.0 * phi_d + 2.0 * lam * a[n]))
    return p


def _oracle_fringe(config: SequenceConfig, phi_d: np.ndarray) -> np.ndarray:
    cutoff = FockCutoff(config.cutoff_n_max)
    levels, weights = level_weights(config.target())
    lam = config.lambda_tilde
    tau_g = 2.0 * math.pi
    # Gate 1 at drive phase 0, one column per initial Fock level.
    init = _basis_columns(0, levels, cutoff)
    mid, _, _ = propagate_ramped_axis(
        init, cutoff, config.omega_tilde, lam, np.zeros(len(levels)), (0.0, tau_g)
    )
    # Gate 2 spans s in [2pi, 4pi]; the axis ramp continues through it, so
    # the scan phase enters on top of the accumulated slip.
    cols = np.repeat(mid, phi_d.size, axis=1)
    phis = np.tile(phi_d, len(levels))
    fin, _, _ = propagate_ramped_axis(
        cols, cutoff, config.omega_tilde, lam, phis, (tau_g, 2.0 * tau_g)
    )
    d = cutoff.dim
    p_ee = (np.abs(fin[3 * d :, :]) ** 2).sum(axis=0)
    p_ee = p_ee.reshape(len(levels), phi_d.size)
    return weights @ p_ee


def simulate_fringe(
    config: SequenceConfig,
    phi_d: np.ndarray | None = None,
    table: CoefficientTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact fringe probabilities P(ee)(phi_d) for the configured engine."""
    if phi_d is None:
        phi_d = phase_scan(config.phase_points)
    phi_d = np.asarray(phi_d, dtype=float)
    if config.engine == "first_order_model":
        if table is None:
            raise ValueError("the first_order_model engine needs a coefficient table")
        return phi_d, _model_fringe(config, phi_d, table)
    return phi_d, _oracle_fringe(config, phi_d)


def sample_fringe(
    p_ee: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Binomial shot noise: observed excitation fractions."""
    if shots < 1:
        raise ValueError("shots must be positive")
    p = np.clip(np.asarray(p_ee, dtype=float), 0.0, 1.0)
    return rng.binomial(shots, p) / shots


class FitError(RuntimeError):
    """The fringe fit did not converge."""


@dataclass
class FringeFit:
    """Result of fitting A*cos(2*phi_d + phase) + offset.

    The errors are inf when the covariance could not be estimated.
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


def _fringe_model(phi: np.ndarray, amp: float, phase: float, offset: float):
    return amp * np.cos(2.0 * phi + phase) + offset


def _curve_fit(phi_d, p_obs, p0, sigma, absolute_sigma):
    """curve_fit of the fringe model; an undetermined covariance stays inf."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            return curve_fit(_fringe_model, phi_d, p_obs, p0=p0, sigma=sigma,
                             absolute_sigma=absolute_sigma, maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"fringe fit did not converge: {exc}") from exc


def fit_fringe(
    phi_d: np.ndarray, p_obs: np.ndarray, shots: int | None = None
) -> FringeFit:
    """Weighted least-squares fringe fit with a DFT-based initializer.

    The frequency is fixed at 2 cycles per radian of scan phase (the pair
    coherence winds twice per drive-phase radian).  With ``shots`` given,
    points are weighted by their binomial uncertainty and the covariance is
    absolute; otherwise it is scaled from the residuals.  Binomial weights
    are taken from a first-pass fitted curve rather than the observed
    fractions — observed-fraction weights correlate with the noise and
    understate the parameter covariance.  Raises FitError when the fit
    does not converge.
    """
    phi_d = np.asarray(phi_d, dtype=float)
    p_obs = np.asarray(p_obs, dtype=float)
    if phi_d.shape != p_obs.shape or phi_d.size < 5:
        raise ValueError("need matching phase/population arrays, >= 5 points")
    mean = float(p_obs.mean())
    # Single-bin DFT at the known frequency seeds amplitude and phase.
    z = np.sum((p_obs - mean) * np.exp(-2.0j * phi_d)) * 2.0 / phi_d.size
    p0 = [max(abs(z), 1e-3), float(np.angle(z)), mean]
    sigma = None
    if shots is not None:
        var = np.maximum(p_obs * (1.0 - p_obs), 0.25 / shots) / shots
        sigma = np.sqrt(var)
    popt, pcov = _curve_fit(phi_d, p_obs, p0, sigma, shots is not None)
    if shots is not None:
        fitted = np.clip(_fringe_model(phi_d, *popt), 0.0, 1.0)
        var = np.maximum(fitted * (1.0 - fitted), 0.25 / shots) / shots
        popt, pcov = _curve_fit(phi_d, p_obs, popt, np.sqrt(var), True)
    amp, phase, offset = (float(x) for x in popt)
    if amp < 0.0:
        amp, phase = -amp, phase + math.pi
        pcov = pcov.copy()
        # Flipping the amplitude sign leaves variances unchanged but flips
        # the amp-phase and amp-offset covariances.
        pcov[0, 1:] *= -1.0
        pcov[1:, 0] *= -1.0
    phase = math.remainder(phase, 2.0 * math.pi)
    if phase <= -math.pi:
        phase += 2.0 * math.pi
    resid = p_obs - _fringe_model(phi_d, amp, phase, offset)
    errs = np.sqrt(np.maximum(np.diag(pcov), 0.0))
    return FringeFit(
        amplitude=amp,
        phase=float(phase),
        offset=offset,
        amplitude_err=float(errs[0]),
        phase_err=float(errs[1]),
        offset_err=float(errs[2]),
        covariance=pcov,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
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

    @property
    def lambda_tilde_hat(self) -> float:
        return self.lambda_hat / self.detuning


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
    phi_d, p_exact = simulate_fringe(config, table=table)
    if config.shots is None:
        p_obs = p_exact
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        p_obs = sample_fringe(p_exact, config.shots, rng)
    fit = fit_fringe(phi_d, p_obs, config.shots)
    slope = effective_phase_slope(table, config.target())
    estimate = estimate_lambda(fit, slope, config.detuning)
    return fit, estimate, phi_d, p_obs

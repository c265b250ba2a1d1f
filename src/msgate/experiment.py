"""Two-gate calibration sequence: fringe simulation, fit, and inversion.

The sequence applies the entangling gate twice from |gg> with the second
gate's drive phase advanced by a scan value phi_d.  A center-line detuning
error lam makes the qubit frame slip against the drive between and during
the gates; to first order the excited-pair population traces

    P(ee)(phi_d) = (1 + cos(2*phi_d + phi_seq)) / 2,
    phi_seq      = 2 * lambda_tilde * a_n,

with lambda_tilde = lam / detuning the gate's own unit of the error and a_n
the per-Fock-level phase slope from the coefficient table.  The fitted
fringe phase therefore measures lambda_tilde directly.  Every value here
is dimensionless: a caller working in Hz or rad/s converts at its own
edge, as the ``calibrate`` command does.  The fringe is linear in
(A cos phi_seq, A sin phi_seq, offset), so the fit is a weighted linear
least-squares solve with no iteration and no starting guess.

Two engines produce fringes: ``first_order_model`` evaluates the cosine
model above (thermally weighted when asked), and ``oracle`` propagates the
full ramped-axis Hamiltonian exactly (see :mod:`msgate.oracle`) with the
axis angle continuing across both gates, as drive-phase bookkeeping works
on hardware.  A scan phase is then a diagonal S_z factor around gate 2, so
gate 2 runs once for the whole scan, and the two gates, which share one
rotating-frame Hamiltonian, share its block spectra: one ``eigh`` per
occupied parity block per fringe (``msgate.oracle._shared_spectra``).
The engine raises when either gate fails its health checks.  Each engine
first checks the table's structure (UnhealthyTableError) and that it
trusts every initial level (TruncationError), through
``magnus._scalars``, the oracle after its cutoff check and before it
propagates either gate.
Populations are frame-independent, so the two may be compared directly.

The coefficient table owns the gate: the oracle runs its ``omega_tilde`` for
its ``tau_gate``, so the fringe and the slope a_n always describe one gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (FockCutoff, ThermalDistribution, _count, _finite, _level_sum, _number,
                      level_weights)
from .magnus import CoefficientTable, _check_lambda, _scalars
from .oracle import _basis_columns, _shared_spectra, propagate_ramped_axis

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


# Fewest scan phases of a fringe scan, for its three fitted parameters.
_MIN_PHASE_POINTS = 5


@dataclass(frozen=True)
class SequenceConfig:
    """Physical and numerical settings for one calibration run.

    ``lambda_tilde`` is the center-line error being estimated, lam over the
    signed detuning: one finite real number (the rule of
    :func:`msgate.hilbert._number`) inside the predictors' hard cap, else
    ``ValueError`` naming it.  Each gate is the gate of the
    coefficient table the run is given, its ``tau_gate`` in units of
    1/|detuning|.  ``mode`` is the initial mode of the motion: a Fock level
    or a thermal distribution.  ``shots`` per scan point is at least 1, or
    None to fit exact probabilities, and ``phase_points`` at least
    ``_MIN_PHASE_POINTS`` (5), for the three fringe parameters.  Counts
    (``phase_points``, ``shots``, a Fock level ``mode`` and
    ``cutoff_n_max``, whichever engine runs) are integers, numpy integers
    and 0-d integer arrays included but not bools or floats such as 6.0;
    anything else raises ``ValueError`` naming the field, in the order of
    the fields.  A value: each number is kept as the Python float or int
    its rule returns, so a config compares, hashes and prints the same
    however the caller wrote it.
    """

    lambda_tilde: float
    mode: int | ThermalDistribution = 0
    phase_points: int = 16
    shots: int | None = 200
    engine: str = "oracle"
    cutoff_n_max: int = 32

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_tilde", _number("lambda_tilde", self.lambda_tilde))
        _check_lambda(self.lambda_tilde)
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        object.__setattr__(self, "phase_points",
                           _count("phase_points", self.phase_points, _MIN_PHASE_POINTS))
        if not isinstance(self.mode, ThermalDistribution):
            object.__setattr__(self, "mode", _count("mode", self.mode))
        if self.shots is not None:
            object.__setattr__(self, "shots", _count("shots", self.shots, 1))
        object.__setattr__(self, "cutoff_n_max", _count("cutoff_n_max", self.cutoff_n_max))


def phase_scan(n_points: int) -> np.ndarray:
    """Evenly spaced scan phases covering one fringe period [0, pi);
    ``n_points`` is a count >= 1, else ``ValueError``."""
    return np.arange(_count("n_points", n_points, 1)) * math.pi / n_points


def effective_phase_slope(
    table: CoefficientTable, n: int | ThermalDistribution
) -> float:
    """a_n, or the thermally weighted mean slope sum_n p_n a_n: the ``a``
    the predictors read (``magnus._scalars``).

    To first order the thermal fringe is a phasor average of per-level
    fringes, so its fitted phase corresponds to the weighted mean slope.
    ``n`` is read as :func:`simulate_fringe` reads a mode: anything but a
    Fock level or a ThermalDistribution (a list of levels too) raises
    ``ValueError``, an off-line table raises UnhealthyTableError, and a
    level the table does not trust raises TruncationError.
    """
    level_weights(n)  # a level or a mode, as a fringe reads it
    return float(_scalars(n, table)[1])


def phi_seq_prediction(lambda_tilde: float, slope):
    """First-order fringe phase 2*lambda_tilde*a (radians) for the phase
    slope ``a`` = ``slope``, the one forward formula of the fringe: the
    model engine passes an array of per-level slopes and gets their
    phases.  ``lambda_tilde`` is checked as the predictors check it, and a
    non-finite ``slope`` raises ``ValueError``."""
    _check_lambda(lambda_tilde)
    _finite("slope", slope)
    return 2.0 * lambda_tilde * slope


# The fringe engines: each returns one fringe per initial level (rows, in
# the order of ``levels``), after its own check that it can run them.

def _model_fringe(
    config: SequenceConfig, table: CoefficientTable, levels: np.ndarray, phi_d: np.ndarray
) -> np.ndarray:
    slips = phi_seq_prediction(config.lambda_tilde, _scalars(levels, table)[1])
    return 0.5 * (1.0 + np.cos(2.0 * phi_d + slips[:, None]))


def _oracle_fringe(
    config: SequenceConfig, table: CoefficientTable, levels: np.ndarray, phi_d: np.ndarray
) -> np.ndarray:
    cutoff = FockCutoff(config.cutoff_n_max)
    lam = config.lambda_tilde
    omega, tau = table.params.omega_tilde, table.params.tau_gate
    # Gate 1 at drive phase 0, one column per initial Fock level; a level
    # above the cutoff raises GuardBandError.
    init = _basis_columns(0, levels, cutoff)
    _scalars(levels, table)  # each level trusted by the table, before any gate runs
    # Both gates have one H', so gate 2 reuses gate 1's block spectra.
    with _shared_spectra():
        mid, _, _ = propagate_ramped_axis(init, cutoff, omega, lam, 0.0, (0.0, tau))
        # Gate 2 spans s in [tau, 2 tau], the axis ramp continuing through
        # it.  A scan phase phi_d is the frame factor e^{i phi_d S_z} around
        # it (see msgate.oracle), so gate 2 runs once at phase 0 on the
        # S_z = m parts of mid (3 columns per level).  Up to a phase, the
        # |ee> rows at phi_d are the sum over m of e^{-i m phi_d} times gate
        # 2's output on part m.
        m = np.array([1.0, 0.0, -1.0])
        parts = np.where(cutoff.s_z[:, :, None] == m, mid[:, :, None], 0.0)
        fin, _, _ = propagate_ramped_axis(
            parts.reshape(len(mid), -1), cutoff, omega, lam, 0.0, (tau, 2.0 * tau)
        )
    ee = cutoff.blocks(fin)[3].reshape(cutoff.dim, len(levels), 3)
    return (np.abs(ee @ np.exp(-1j * np.outer(m, phi_d))) ** 2).sum(axis=0)


_FRINGE_ENGINES = {"first_order_model": _model_fringe, "oracle": _oracle_fringe}
ENGINES = tuple(_FRINGE_ENGINES)


def simulate_fringe(
    config: SequenceConfig, table: CoefficientTable
) -> tuple[np.ndarray, np.ndarray]:
    """Scan phases ``phase_scan(config.phase_points)`` and the exact fringe
    probabilities P(ee)(phi_d) there of the configured engine, which runs
    the gate of ``table``: one fringe per initial level, averaged over a
    thermal mode's levels by their probabilities."""
    phi_d = phase_scan(config.phase_points)
    levels, weights = level_weights(config.mode)
    engine = _FRINGE_ENGINES[config.engine]
    return phi_d, _level_sum(weights, engine(config, table, levels, phi_d))


def sample_fringe(
    p_ee: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Binomial shot noise: observed excitation fractions of ``shots``
    draws, an integer >= 1."""
    _count("shots", shots, 1)
    p = np.clip(np.asarray(p_ee, dtype=float), 0.0, 1.0)
    return rng.binomial(shots, p) / shots


@dataclass(frozen=True)
class FringeFit:
    """Result of fitting A*cos(2*phi_d + phase) + offset, with A >= 0 and
    phase in (-pi, pi].

    The errors and the covariance are inf when the fit leaves them
    undetermined: at an amplitude of zero or at the rounding level of the
    data, where the phase has no meaning, and without ``shots`` when the
    residuals that would scale the covariance are at rounding level.  A
    value: the constructor marks ``covariance`` read-only.
    """

    amplitude: float
    phase: float
    offset: float
    amplitude_err: float
    phase_err: float
    offset_err: float
    covariance: np.ndarray
    residual_rms: float

    def __post_init__(self) -> None:
        self.covariance.flags.writeable = False


# Residual RMS at or below which a fit without shots has no scale for its
# covariance: exact cosine fringes leave rounding of at most 6e-16.  The
# oracle fringe departs from a cosine as lam^4 (5.4e-13 at |lambda_tilde|
# 9.1e-4, 4.4e-11 at 2.7e-3), so it keeps its error bars down to about
# |lambda_tilde| 2.7e-4.
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
    Jacobian of A = hypot(c, s), phase = atan2(s, c), and is exactly
    symmetric.  Raises ValueError on ``shots`` that is neither None nor an
    integer >= 1, non-finite data or scan phases that do not determine the
    fringe.
    """
    if shots is not None:
        _count("shots", shots, 1)
    phi_d = _finite("phi_d", phi_d)
    p_obs = _finite("p_obs", p_obs)
    if phi_d.shape != p_obs.shape or phi_d.ndim != 1 or phi_d.size < _MIN_PHASE_POINTS:
        raise ValueError(
            f"need matching 1-D phase/population arrays, >= {_MIN_PHASE_POINTS} points")
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
        # The product rounds its two off-diagonal halves apart; the mean
        # leaves the diagonal's bits, so each *_err is unchanged.
        cov = (cov + cov.T) / 2.0
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
    )


@dataclass(frozen=True)
class LambdaEstimate:
    """Inverted center-line error ``lambda_tilde`` (lam over the detuning)
    with its propagated one-sigma uncertainty ``lambda_tilde_err``, the
    phase slope it was inverted through, and the caveats of the
    inversion.  Each number is a Python float."""

    lambda_tilde: float
    lambda_tilde_err: float
    slope: float
    caveats: tuple[str, ...] = ()


def estimate_lambda(fit: FringeFit, slope: float) -> LambdaEstimate:
    """Invert the fitted fringe phase through phi_seq = 2*lambda_tilde*slope.

    ``slope`` is one finite real number (the rule of
    :func:`msgate.hilbert._number`), kept as a float in the estimate; one
    that is not, or is below 1e-6 in magnitude, raises ``ValueError``.
    The error is inf when the fit's phase error is."""
    slope = _number("slope", slope)
    if abs(slope) < 1e-6:
        raise ValueError(
            f"phase slope {slope:.2e} is too small to invert; the sequence "
            "is insensitive to the center-line error at this Fock level"
        )
    lam_hat = fit.phase / (2.0 * slope)
    lam_err = fit.phase_err / abs(2.0 * slope)
    caveats = []
    if abs(lam_hat) > 0.1:
        caveats.append(
            "estimated |lambda_tilde| exceeds 0.1; the first-order "
            "inversion is biased this far out"
        )
    if fit.amplitude < 0.2:
        caveats.append("fringe contrast below 0.2; phase poorly constrained")
    if not math.isfinite(fit.phase_err):
        caveats.append("fringe covariance undetermined; the error bars are not meaningful")
    return LambdaEstimate(
        lambda_tilde=float(lam_hat),
        lambda_tilde_err=float(lam_err),
        slope=slope,
        caveats=tuple(caveats),
    )


def run_calibration(
    config: SequenceConfig,
    table: CoefficientTable,
    rng: np.random.Generator | None = None,
) -> tuple[FringeFit, LambdaEstimate, np.ndarray, np.ndarray]:
    """Simulate, (optionally) sample, fit and invert one calibration scan.

    Returns (fit, estimate, phi_d, observed fractions).  Sampling is skipped
    when ``config.shots`` is None, in which case the fit sees exact
    probabilities.  Without ``rng`` the shots are drawn from
    ``np.random.default_rng(0)``, so repeated calls agree.
    """
    phi_d, p_obs = simulate_fringe(config, table)
    if config.shots is not None:
        rng = np.random.default_rng(0) if rng is None else rng
        p_obs = sample_fringe(p_obs, config.shots, rng)
    fit = fit_fringe(phi_d, p_obs, config.shots)
    slope = effective_phase_slope(table, config.mode)
    estimate = estimate_lambda(fit, slope)
    return fit, estimate, phi_d, p_obs

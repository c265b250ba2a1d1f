"""Molmer-Sorensen gate simulation and center-line detuning calibration.

Subpackage map:

* :mod:`msgate.hilbert`    -- Fock-space utilities, displacement operators.
* :mod:`msgate.ideal`      -- calibrated gate: loop functions, ideal output states.
* :mod:`msgate.magnus`     -- detuning-error coefficient tables, predictors.
* :mod:`msgate.oracle`     -- independent exact full-Hamiltonian propagator.
* :mod:`msgate.experiment` -- two-gate calibration sequence and fringe fit.
* :mod:`msgate.cli`        -- command-line entry points.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

"""Exception types raised by the numerical kernels and solvers, the one
check of a count (a shape, an iteration count or a seed) and the one check
of a real number (a step, a metric or schedule parameter, a constant)."""

import math
import numbers


class ManifoldSvrgError(Exception):
    """Base class for all library errors."""


class NonFiniteInput(ManifoldSvrgError):
    """A kernel received NaN or Inf entries."""


class RankDeficient(ManifoldSvrgError):
    """A factorization input lost full column rank."""


class SingularStep(ManifoldSvrgError):
    """An inner solve of a retraction is singular; the tangent is corrupted."""


class NonFiniteValue(ManifoldSvrgError):
    """Objective or gradient became non-finite during iteration."""


class NoFeasibleC(ManifoldSvrgError):
    """No step-size constant satisfies the schedule inequality."""


class TooManySamples(ManifoldSvrgError):
    """Requested more observed entries than the matrix holds."""


class NoConvergentTau(ManifoldSvrgError):
    """No step size in the tuning grid converged on every run."""


class InvalidObservation(ManifoldSvrgError, ValueError):
    """A matrix-completion observation has an index outside the matrix or is malformed."""


def check_count(name, value, low):
    """value as an int of at least low; a numpy integer passes, a float or a bool fails."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= low):
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
    return int(value)


def check_real(name, value, low, high=math.inf, open_low=False):
    """value as a float in [low, high], (low, high] with open_low; no bool, NaN or infinity."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value)
            or not (low < value if open_low else low <= value) or value > high):
        interval = f"{'(' if open_low else '['}{low}, {high}{')' if high == math.inf else ']'}"
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
    return float(value) + 0.0  # -0.0 as 0.0, so that one value has one repr

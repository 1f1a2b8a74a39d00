"""Exception types raised by the numerical kernels and solvers."""


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

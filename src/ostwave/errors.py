"""Domain-level error types.

These mark conditions where the mathematics itself rules out an answer
(as opposed to bad arguments, which raise ValueError).  The CLI maps any
DomainError to exit code 1 and argument problems to exit code 2.
"""


class DomainError(Exception):
    """A computation failed for a mathematical reason, not a usage one."""


class ResonanceError(DomainError):
    """A harmonic resonance makes the small-amplitude expansion blow up."""

    def __init__(self, message, harmonics=None):
        super().__init__(message)
        self.harmonics = tuple(harmonics) if harmonics else ()


class InconclusiveError(DomainError):
    """Parameters sit exactly on a degenerate boundary; no verdict exists."""


class NoRootError(DomainError):
    """A root search found no sign change in the requested bracket."""


class BracketError(DomainError):
    """A root-finding bracket does not straddle the sought transition."""


class SolveError(DomainError, RuntimeError):
    """The Hill eigen-solve failed: its matrix is singular or Arnoldi did not converge."""

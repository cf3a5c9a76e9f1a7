"""Exception types shared across the package.

Every error that a caller is expected to branch on gets its own class; the
CLI maps them onto exit codes (2 for precondition violations, 3 for budget
and cap overruns, 1 for I/O and parse problems).
"""


class RigidlabError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(RigidlabError):
    """Vector/lattice/ambient dimensions disagree."""


class PreconditionError(RigidlabError):
    """An operation's documented precondition does not hold."""


class CapExceeded(RigidlabError):
    """An enumeration would exceed a configured cap (CAP_EXCEEDED)."""


class SearchExhausted(RigidlabError):
    """A bounded search ran out of budget (SEARCH_EXHAUSTED)."""


class PrecisionInsufficient(RigidlabError):
    """Stored precision cannot certify a floor value (PRECISION_INSUFFICIENT)."""


class UndecidableFromSamples(RigidlabError):
    """Sampled data cannot decide an asymptotic question (UNDECIDABLE_FROM_SAMPLES)."""


class UnsupportedShape(RigidlabError):
    """A group/pattern shape outside the supported product forms (UNSUPPORTED_SHAPE)."""


class ConstructionFailed(RigidlabError):
    """A constructive search produced no verified object."""


class ParseError(RigidlabError):
    """Text input failed to parse; `position` is the offending offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position

"""Domain error hierarchy.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured error JSON without string matching.
"""


class RbrenError(Exception):
    code = "error"


class ContextError(RbrenError):
    """Operands declared over different variable/generator contexts."""

    code = "context-mismatch"


class PoleAtPointError(RbrenError):
    """Evaluation hit a negative power of a variable assigned zero."""

    code = "pole-at-point"


class DisconnectedError(RbrenError):
    code = "disconnected-graph"


class MomentumError(RbrenError):
    code = "momentum-violation"


class SizeBoundError(RbrenError):
    code = "size-bound"


class QuotientError(RbrenError):
    code = "bad-quotient"


class UnknownGeneratorError(RbrenError):
    code = "unknown-generator"


class MissingValueError(RbrenError):
    code = "missing-character-value"


class PreconditionError(RbrenError):
    code = "precondition"


class InvariantError(RbrenError):
    code = "invariant-violation"

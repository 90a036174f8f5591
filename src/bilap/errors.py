"""Exception types shared across the toolkit."""


class NumericalFailure(RuntimeError):
    """A numerical procedure could not reach its stopping criterion."""


class NoConvergence(NumericalFailure):
    """A series or iteration hit its term/iteration cap."""


class BracketFailure(NumericalFailure):
    """A scan found no sign change where one was required."""


class NotSingular(RuntimeError):
    """Null-vector extraction requested at a point where the system is regular."""


class SingularPairingMatrix(NumericalFailure):
    """The corner pairing matrix is rank deficient; the corrected solve does not apply."""

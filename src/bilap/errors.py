"""Exception types shared across the toolkit."""


class NumericalFailure(RuntimeError):
    """A numerical procedure could not reach its stopping criterion."""


class NotSingular(RuntimeError):
    """Null-vector extraction requested at a point where the system is regular."""


class SingularPairingMatrix(NumericalFailure):
    """The corner pairing matrix is rank deficient; the corrected solve does not apply."""

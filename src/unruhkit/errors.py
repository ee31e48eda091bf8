"""Exception types shared across the package."""


class LabelError(ValueError):
    """Unknown, duplicate or colliding tensor-factor label."""


class EigensolverError(RuntimeError):
    """Dense Hermitian eigensolver failed; carries matrix diagnostics."""


class ConvergenceError(RuntimeError):
    """A fermion sweep row breaks 0 <= N or N_AR + N_AAR <= 1/2.

    An unconverged bosonic point is a row with ``converged`` false, not an error.
    """


class MethodDisagreementError(RuntimeError):
    """Independent evaluation routes disagree beyond tolerance.

    This signals a construction bug, not a numerical accident: the
    closed-form negative eigenvalues of the 3x3 blocks and the eigensolve of
    the full 8x8 partial transpose must agree to essentially machine
    precision.
    """


class GridError(ValueError):
    """Sampling grid cannot represent the requested profile accurately."""

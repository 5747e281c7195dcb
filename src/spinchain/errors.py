"""Exception types shared across the package.

The CLI maps these onto exit codes: DomainError and
ConstraintViolationError -> 2, ConvergenceError (including its subclass
IncompleteSpectrumError) and DivergenceError -> 3.
It also maps MemoryError (a count too large to allocate) and OSError (a
file that cannot be read or written) to 2. Of the solver errors only
IncompleteSpectrumError carries data: `found` (the eigenpairs whose own seed
converged, with distinct roots in conjugate pairs, to that eigenvalue),
`expected`, `best_residual`.
"""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class ConstraintViolationError(ValueError):
    """A geometric constraint (unit norm, tangency) is violated."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge."""


class IncompleteSpectrumError(ConvergenceError):
    """A level solve certified fewer branches than the level has.

    `found` counts the recurrence eigenpairs whose own seed converged to that
    eigenvalue, with distinct roots whose nearest-conjugate pairing is an
    involution, and `expected` is n + 1;
    `best_residual` is the smallest Bethe residual among the Newton polishes
    that did not converge (None when every polish converged but some
    collided, did not pair off or reached another eigenvalue).
    """

    def __init__(
        self,
        message: str,
        found: int,
        expected: int,
        best_residual: float | None = None,
    ):
        super().__init__(message)
        self.found = found
        self.expected = expected
        self.best_residual = best_residual


class DivergenceError(RuntimeError):
    """A trajectory left the trusted numerical range."""

    def __init__(self, message: str, z: float):
        super().__init__(message)
        self.z = z

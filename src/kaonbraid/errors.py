"""Exception types shared across the package."""


class KaonbraidError(ValueError):
    """Base class for all validation failures raised by this package."""


class ValidationError(KaonbraidError):
    """An input value violates a documented precondition."""


class DomainError(KaonbraidError):
    """A scalar argument lies outside the operation's domain."""

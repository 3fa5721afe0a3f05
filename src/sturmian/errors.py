"""Shared exception types."""


class CapExceededError(RuntimeError):
    """An enumeration or a prefix would exceed its configured cap."""


class TheoremViolationError(RuntimeError):
    """An exhaustive verifier found no witness where one is guaranteed."""

"""Shared exception types."""

__all__ = ["CapExceededError", "TheoremViolationError"]


class CapExceededError(RuntimeError):
    """An enumeration, a scan or a prefix would exceed its configured cap."""


class TheoremViolationError(RuntimeError):
    """A verifier found no witness where the theorem promises one."""

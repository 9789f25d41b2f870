"""Shared exception types."""


class NumericsError(RuntimeError):
    """A numerical routine failed or produced an inconsistent result."""


class DegeneratePathError(NumericsError):
    """A simulated path produced a denominator too small to be genuine."""

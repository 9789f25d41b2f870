"""The shared exception type of a numerical failure (exit 3)."""


class NumericsError(RuntimeError):
    """A numerical routine failed or produced an inconsistent result."""

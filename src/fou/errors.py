"""Shared exception types, and `arithmetic`, which turns numpy's signal of
a floating-point failure into one of them."""
from contextlib import contextmanager


class NumericsError(RuntimeError):
    """A numerical routine failed or produced an inconsistent result."""


@contextmanager
def arithmetic(theta: float, horizon: float, what: str):
    """A FloatingPointError in the block, numpy's signal of an overflow, a
    division by zero or an invalid value under the error state of
    `cli.main`, becomes a NumericsError naming `what`, theta and T."""
    try:
        yield
    except FloatingPointError as exc:
        raise NumericsError(f"{exc} in {what} at theta = {theta:.6g}, "
                            f"T = {horizon:.6g}") from None

"""Shared exception types and input checks."""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or out-of-range input."""


class ResourceLimitError(RuntimeError):
    """A configured budget (output size, search nodes, or wall clock) ran out.

    For searches interrupted mid-run, ``lower_bound`` and ``upper_bound``
    carry the best exact bounds established before the budget expired.
    """

    def __init__(
        self,
        message: str,
        *,
        lower_bound: int | None = None,
        upper_bound: int | None = None,
    ) -> None:
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound


def is_integer(value: object) -> bool:
    """True for an int that is not a bool, so JSON true/false never pass as 1/0."""
    return isinstance(value, int) and not isinstance(value, bool)

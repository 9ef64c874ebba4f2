"""Shared error types."""


class InternalCheckError(RuntimeError):
    """An internal invariant failed; maps to exit code 3 in the CLI."""

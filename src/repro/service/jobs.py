"""The error a failed service request raises in the in-process client."""

from __future__ import annotations

__all__ = ["JobError"]


class JobError(RuntimeError):
    """A request failed; carries the original error type name and message."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message

"""The former name of :class:`repro.service.ServiceError`."""

from __future__ import annotations

from .protocol import ServiceError as JobError

__all__ = ["JobError"]

"""Shared exception base so the CLI can report one machine-parsable line."""

import dataclasses
import math


class KwbiasError(Exception):
    """Base class for all errors raised by this package."""


def require_finite(settings: object, error: type[KwbiasError]) -> None:
    """Raise `error` naming the first float field of dataclass `settings`
    that is NaN or infinite."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")

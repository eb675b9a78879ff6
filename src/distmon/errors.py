"""Shared exception types and the desk-scale guard."""

import os

SCALE_OVERRIDE_ENV = "DISTMON_SCALE_OVERRIDE"


class TableFormatError(ValueError):
    """Malformed table data: wrong shape, out-of-range cells, bad JSON schema."""


class NotAssociativeError(ValueError):
    """A monoid-only operation was applied to a non-associative table."""


class ScaleGuardError(ValueError):
    """A desk-scale guard was exceeded without an override."""


def scale_override_active() -> bool:
    return os.environ.get(SCALE_OVERRIDE_ENV) == "1"


def check_scale(what: str, value: int, limit: int) -> None:
    """Raise ScaleGuardError unless value <= limit or DISTMON_SCALE_OVERRIDE=1,
    the one way past every guard.  Callers pass their guard constant when
    they are called, so each reads it then."""
    if value <= limit or scale_override_active():
        return
    raise ScaleGuardError(
        f"{what}={value} exceeds the desk-scale guard ({limit}); "
        f"set {SCALE_OVERRIDE_ENV}=1 to lift it"
    )

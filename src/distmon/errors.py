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


def check_scale(what: str, value: int, limit: int, override: bool = False) -> None:
    """Raise ScaleGuardError unless value <= limit or an override is active.

    DISTMON_SCALE_OVERRIDE=1 lifts every guard.  The `override` flag is
    for a census run from the library, which passes
    SearchConfig.scale_override; every other guard has the variable alone.
    """
    if value <= limit or override or scale_override_active():
        return
    raise ScaleGuardError(
        f"{what}={value} exceeds the desk-scale guard ({limit}); "
        f"pass an override or set {SCALE_OVERRIDE_ENV}=1"
    )

"""The error every settings check raises, and the bounds check each owner
of settings runs over its one table."""

from __future__ import annotations

import operator
from typing import Mapping

_HOLDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


class ConfigError(ValueError):
    """An invalid setting: `field` names it and `reason` says what is wrong,
    as in "k must be >= 1, got 0"."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


def check_bounds(values: Mapping[str, object], bounds: tuple[tuple[str, str, float], ...]) -> None:
    """Raise ConfigError for the first `(setting, comparison, bound)` row of
    `bounds` that the setting's value fails; NaN fails every row."""
    for name, comparison, bound in bounds:
        if not _HOLDS[comparison](values[name], bound):
            raise ConfigError(name, f"must be {comparison} {bound}, got {values[name]}")

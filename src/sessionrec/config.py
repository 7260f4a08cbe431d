"""Checks shared by the config sections: ModelConfig, TrainConfig,
RetrievalConfig and PreprocessConfig. Each setting and its default is one
field of one section; each section's ``validate()`` starts with
:func:`check_types` and adds its own range checks. All raise ConfigError.
"""

from __future__ import annotations

import functools
import types
import typing
from dataclasses import fields
from typing import Any

from .errors import ConfigError

# a section's hints never change, and resolving them costs retrieve 50 us a call
_type_hints = functools.cache(typing.get_type_hints)


def _matches(value: Any, hint: Any) -> bool:
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_matches(value, h) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, hint)


def check_types(section: Any) -> None:
    """Raise ConfigError unless every field holds a value of its annotated
    type; ``int`` excludes ``bool`` and ``float`` also accepts ``int``."""
    hints = _type_hints(type(section))
    for f in fields(section):
        value = getattr(section, f.name)
        if not _matches(value, hints[f.name]):
            raise ConfigError(f"setting {f.name!r} must be {f.type}, got {value!r}")


def check_at_least(section: Any, low: int, *names: str) -> None:
    """Raise ConfigError unless each named (integer) field is >= ``low``."""
    for name in names:
        if getattr(section, name) < low:
            raise ConfigError(f"{name} must be >= {low}, got {getattr(section, name)}")


def section_from_dict(cls: type, doc: Any) -> Any:
    """Build and validate a config section from a decoded JSON object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} settings must be a JSON object, got {doc!r}")
    try:
        section = cls(**doc)
    except TypeError as exc:  # an unknown key or a missing required field
        raise ConfigError(f"bad {cls.__name__} settings: {exc}") from None
    section.validate()
    return section

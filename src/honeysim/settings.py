"""The one reader of the mappings a user writes: a run config's top level, sections and entries, and catalog rows.

Each setting's type is declared once, as a field annotation of a ``Settings`` dataclass or in the ``read`` call
for its mapping. A value must already have that type as YAML reads it, so a quoted number or flag is refused,
and an unknown key is refused by name. This module imports no other honeysim module, so every reader can import it.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


class ConfigError(ValueError):
    """The run config cannot be executed as written."""


# each type's accepted Python types, and how a refusal names it; a bool is no integer or number
TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "list": ((list, tuple), "a list"),  # no file holds a tuple: a tuple is a list that a frozen type holds
    "list[str]": ((list, tuple), "a list of strings"),
    "list[int]": ((list, tuple), "a list of integers"),
    "dict": ((dict,), "a mapping"),
}


def check(value, kind: str, name: str):
    """``value`` as the setting ``name`` of type ``kind`` holds it (a number as a float); else ConfigError naming it.

    ``kind`` is a key of ``TYPES``, a ``list[...]`` of one, or an ``Optional[...]`` of either, which takes null as
    absent. Each item of a list is checked, and a refusal names it (``seeds[1]``).
    """
    if kind.startswith("Optional["):
        if value is None:
            return None
        kind = kind[len("Optional[") : -1]
    kinds, what = TYPES[kind]
    if isinstance(value, kinds) and (kind == "bool" or not isinstance(value, bool)):
        if kind.startswith("list["):
            for index, item in enumerate(value):
                check(item, kind[len("list[") : -1], f"{name}[{index}]")
        try:
            return float(value) if kind == "float" else value
        except OverflowError:  # an integer past the largest float
            pass
    raise ConfigError(f"{repr(name) if name else 'the top level'} must be {what}, got {value!r}")


def read(data, kinds: dict[str, str], path: str = "", required: tuple[str, ...] = ()) -> dict:
    """The settings of the mapping ``data`` at ``path`` (empty at a file's top level): each key that holds a value.

    ``kinds`` maps each key the mapping may hold to its type. ConfigError
    names an unknown key, a missing ``required`` one, or a value of another type.
    """
    check(data, "dict", path)
    where = f"in {path}" if path else "at the top level"
    for fault, keys in (
        ("unknown", sorted((key for key in data if key not in kinds), key=str)),
        ("missing", [key for key in required if key not in data]),
    ):
        if keys:
            raise ConfigError(f"{fault} key {', '.join(map(repr, keys))} {where}")
    settings = {key: check(value, kinds[key], f"{path}.{key}" if path else key) for key, value in data.items()}
    return {key: value for key, value in settings.items() if value is not None}


@dataclass(frozen=True, kw_only=True)
class Settings:
    """A mapping's settings as a frozen dataclass: its fields are the keys, each annotated with a type name as text."""

    def __post_init__(self) -> None:
        # each field holds the value ``check`` gives, so a setting built in code holds what a config gives
        for setting in fields(self):
            object.__setattr__(self, setting.name, check(getattr(self, setting.name), setting.type, setting.name))

    @classmethod
    def read(cls, data, path: str):
        """An instance from the mapping ``data`` at ``path``; a field without a default is a required key."""
        kinds = {setting.name: setting.type for setting in fields(cls)}
        required = tuple(s.name for s in fields(cls) if s.default is MISSING and s.default_factory is MISSING)
        settings = read(data, kinds, path, required)
        try:
            return cls(**settings)
        except ValueError as exc:  # a value of its type that the settings refuse
            raise ConfigError(f"{path}: {exc}") from None

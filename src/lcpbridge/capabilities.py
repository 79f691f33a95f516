"""Capability registry: what each platform can export and import.

The data ships as a human-readable TOML file so vendor updates do not need
a code change; ``--capabilities <file>`` swaps in a different registry.
``load_toml`` reads a file in plain TOML, as the shipped registry is,
itself (``_plain_toml``), and any other file with ``tomllib``, imported then.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

from .errors import ConfigError, UnknownPlatformError

LEVELS = ("none", "partial", "full")
FORMAT_TOKENS = ("JSON", "XLSX", "CSV", "XML", "DS", "SQL")
MODEL_KINDS = ("data", "gui", "behavior")
DIRECTIONS = ("export", "import")

_DEFAULT_PATH = Path(__file__).parent / "assets" / "capabilities.toml"


class CapabilityRecord(namedtuple("CapabilityRecord", "platform_id direction data gui behavior "
                                                     "third_party formats")):
    """What one platform supports in one direction: levels per model kind and formats."""

    __slots__ = ()

    def level(self, kind: str) -> str:
        return {"data": self.data, "gui": self.gui, "behavior": self.behavior}[kind]

    def describe(self) -> str:
        kinds = ", ".join(f"{k}={self.level(k)}" for k in MODEL_KINDS)
        star = " (3rd-party app required)" if self.third_party else ""
        formats = "+".join(self.formats) if self.formats else "-"
        return f"{self.direction}: {kinds}, format {formats}{star}"


class CapabilityMatrix(namedtuple("CapabilityMatrix", "records displays")):
    """The capability records of every platform, and each platform's display
    name: ``records`` maps (platform_id, direction) to a ``CapabilityRecord``,
    ``displays`` maps platform_id to its display name."""

    __slots__ = ()

    def platform_ids(self) -> tuple[str, ...]:
        return tuple(self.displays)

    def display_name(self, platform_id: str) -> str:
        return self.displays.get(platform_id, platform_id)

    def get(self, platform_id: str, direction: str) -> CapabilityRecord:
        if direction not in DIRECTIONS:
            raise ConfigError(f"direction must be export or import, not {direction!r}")
        try:
            return self.records[(platform_id, direction)]
        except KeyError:
            raise UnknownPlatformError(
                f"unknown platform {platform_id!r}; known: {', '.join(self.displays)}")


_TOML_TYPES = {str: "a string", bool: "true or false", list: "an array", dict: "a table"}


def typed_value(value, kind: type, where: str):
    """``value`` if it is a ``kind``, else a ConfigError naming the TOML key."""
    if not isinstance(value, kind):
        raise ConfigError(f"{where} must be {_TOML_TYPES[kind]}, not {value!r}")
    return value


def _check_level(value, where: str) -> str:
    if value not in LEVELS:
        raise ConfigError(f"{where}: support level must be one of {LEVELS}, not {value!r}")
    return value


@lru_cache(maxsize=1)
def _plain_line() -> re.Pattern:
    """A line of plain TOML, compiled on first use: a table header of bare
    keys or a bare key set to a value, or neither, then maybe a comment."""
    string = r'"[ !#-\[\]-~]*"'  # printable ASCII but for the quote and the backslash
    key = r"[A-Za-z0-9_-]+"
    return re.compile(rf"[ \t]*(?:\[({key}(?:\.{key})*)\]|({key})[ \t]*=[ \t]*({string}|true|false"
                      rf"|\[[ \t]*(?:{string}[ \t]*(?:,[ \t]*{string}[ \t]*)*,?[ \t]*)?\]))?"
                      r"[ \t]*(?:#[ -~\t]*)?")


def _plain_toml(text: str) -> dict | None:
    """``text``'s tables as ``tomllib.loads`` reads them if it is plain TOML,
    else None. Not plain: a non-ASCII character or a CR, a line of another
    form, a key or table defined twice, a key that is also a table, and
    ``[a]`` after ``[a.b]``."""
    if not text.isascii() or "\r" in text:
        return None
    fullmatch = _plain_line().fullmatch
    root = table = {}
    for line in text.split("\n"):
        match = fullmatch(line)
        if match is None:
            return None
        header, key, value = match.groups()
        if header:
            table = root
            *parents, name = header.split(".")
            for part in parents:
                table = table.setdefault(part, {})
                if type(table) is not dict:
                    return None
            if name in table:
                return None
            table[name] = table = {}
        elif key:
            if key in table:
                return None
            if value[0] == "[":
                table[key] = value.split('"')[1::2]  # no string holds a quote
            else:
                table[key] = value[1:-1] if value[0] == '"' else value == "true"
    return root


def load_toml(path: str | Path, what: str) -> dict:
    """The tables of a TOML file; a file that cannot be read or parsed is a
    ConfigError that says it cannot load ``what``. ``TOMLDecodeError`` is a
    ``ValueError``."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode()
        tables = _plain_toml(text)
        if tables is None:
            import tomllib

            tables = tomllib.loads(text)
        return tables
    except (ValueError, OSError, RecursionError) as exc:
        raise ConfigError(f"cannot load {what}: {exc}") from exc


def load_capabilities(path: str | Path) -> CapabilityMatrix:
    """Parse a capability file; validates levels and format tokens."""
    raw = load_toml(path, f"capabilities from {path}")
    records = {}
    displays = {}
    for platform_id, body in raw.items():
        if not isinstance(body, dict):
            raise ConfigError(f"platform {platform_id!r}: expected a table")
        displays[platform_id] = typed_value(body.get("display", platform_id), str,
                                            f"{platform_id}.display")
        for direction in DIRECTIONS:
            where = f"{platform_id}.{direction}"
            section = body.get(direction)
            if section is None:
                raise ConfigError(f"platform {platform_id!r} lacks [{where}]")
            typed_value(section, dict, where)
            formats = tuple(typed_value(section.get("formats", []), list, f"{where}.formats"))
            for token in formats:
                if token not in FORMAT_TOKENS:
                    raise ConfigError(
                        f"platform {platform_id!r} {direction}: unknown format token {token!r}")
            records[(platform_id, direction)] = CapabilityRecord(
                platform_id=platform_id,
                direction=direction,
                data=_check_level(section.get("data", "none"), f"{where}.data"),
                gui=_check_level(section.get("gui", "none"), f"{where}.gui"),
                behavior=_check_level(section.get("behavior", "none"), f"{where}.behavior"),
                third_party=typed_value(section.get("third_party", False), bool,
                                        f"{where}.third_party"),
                formats=formats,
            )
    return CapabilityMatrix(records=records, displays=displays)


@lru_cache(maxsize=1)
def default_matrix() -> CapabilityMatrix:
    return load_capabilities(_DEFAULT_PATH)


def query_capabilities(platform_id: str, direction: str,
                       matrix: CapabilityMatrix | None = None) -> CapabilityRecord:
    """Return the registry row for (platform, direction) verbatim."""
    return (matrix or default_matrix()).get(platform_id, direction)

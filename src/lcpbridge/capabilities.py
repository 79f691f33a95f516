"""Capability registry: what each platform can export and import.

The data ships as a human-readable TOML file so vendor updates do not need
a code change; ``--capabilities <file>`` swaps in a different registry.
``load_toml`` reads a file in plain TOML, as the shipped registry is,
itself (``_plain_toml``, with ``str`` methods only), and any other file with
``tomllib``, imported then. Its records are plain classes with ``__slots__``
(see ``loss``).
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .errors import ConfigError, UnknownPlatformError

LEVELS = ("none", "partial", "full")
FORMAT_TOKENS = ("JSON", "XLSX", "CSV", "XML", "DS", "SQL")
MODEL_KINDS = ("data", "gui", "behavior")
DIRECTIONS = ("export", "import")

_DEFAULT_PATH = Path(__file__).parent / "assets" / "capabilities.toml"


class CapabilityRecord:
    """What one platform supports in one direction: levels per model kind and formats."""

    __slots__ = ("platform_id", "direction", "data", "gui", "behavior", "third_party", "formats")

    def __init__(self, platform_id: str, direction: str, data: str, gui: str, behavior: str,
                 third_party: bool, formats: tuple[str, ...]):
        self.platform_id = platform_id
        self.direction = direction
        self.data = data
        self.gui = gui
        self.behavior = behavior
        self.third_party = third_party
        self.formats = formats

    def level(self, kind: str) -> str:
        return {"data": self.data, "gui": self.gui, "behavior": self.behavior}[kind]

    def describe(self) -> str:
        kinds = ", ".join(f"{k}={self.level(k)}" for k in MODEL_KINDS)
        star = " (3rd-party app required)" if self.third_party else ""
        formats = "+".join(self.formats) if self.formats else "-"
        return f"{self.direction}: {kinds}, format {formats}{star}"


class CapabilityMatrix:
    """The capability records of every platform, and each platform's display
    name: ``records`` maps (platform_id, direction) to a ``CapabilityRecord``,
    ``displays`` maps platform_id to its display name."""

    __slots__ = ("records", "displays")

    def __init__(self, records: dict[tuple[str, str], CapabilityRecord],
                 displays: dict[str, str]):
        self.records = records
        self.displays = displays

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


_BARE_KEY_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")


def _plain_toml(text: str) -> dict | None:
    """``text``'s tables as ``tomllib.loads`` reads them if it is plain TOML,
    else None. Plain: ASCII without a CR; each line blank, a header of dotted
    bare keys, or a bare key set to true, false, a string without a backslash
    or a control character, or a one-line array of such strings; then maybe a
    comment; no key or table defined twice, and no ``[a]`` after ``[a.b]``."""
    if not text.isascii() or "\r" in text:
        return None
    root = table = {}
    for line in text.split("\n"):
        rest = line.lstrip(" \t")
        if rest[:1] == "[":
            header, close, rest = rest[1:].partition("]")
            *parents, name = keys = header.split(".")
            if not close or not all(key and _BARE_KEY_CHARS.issuperset(key) for key in keys):
                return None
            table = root
            for part in parents:
                table = table.setdefault(part, {})
                if type(table) is not dict:
                    return None
            if name in table:
                return None
            table[name] = table = {}
        elif rest[:1] not in ("", "#"):
            key, equals, rest = rest.partition("=")
            key = key.rstrip(" \t")
            if not (equals and key and _BARE_KEY_CHARS.issuperset(key)) or key in table:
                return None
            rest = rest.lstrip(" \t")
            if rest.startswith(("true", "false")):
                value = rest[0] == "t"
                rest = rest[4:] if value else rest[5:]
            else:
                array = rest[:1] == "["
                rest = rest.removeprefix("[").lstrip(" \t")
                value = []
                while rest[:1] == '"':
                    string, quote, rest = rest[1:].partition('"')
                    if not quote or "\\" in string or not string.isprintable():
                        return None
                    value.append(string)
                    rest = rest.lstrip(" \t")
                    if not array or rest[:1] != ",":
                        break
                    rest = rest[1:].lstrip(" \t")
                if (rest[:1] == "]") != array or not (array or value):
                    return None
                value, rest = (value, rest[1:]) if array else (value[0], rest)
            table[key] = value
        rest = rest.lstrip(" \t")
        if rest and (rest[0] != "#" or not rest.replace("\t", "").isprintable()):
            return None
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

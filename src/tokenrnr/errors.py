"""Exception types shared across the package.

The CLI maps these to exit codes: ConfigError -> 2, InvariantError -> 3.
The field checks below turn a config value of the wrong type into a
ConfigError instead of a TypeError or ValueError from deep inside a run.
"""
import json
import math
import numbers

#: the one file-schema version the package writes and reads
SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration: bad file, inconsistent fields, unusable combination."""


class InvariantError(RuntimeError):
    """A runtime invariant was violated mid-run (non-finite state, checksum drift...)."""


def config_bool(name: str, value) -> bool:
    """`value` itself, or a ConfigError naming the field if it is not a bool
    (the string "no" and the number 3 are both rejected)."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def config_int(name: str, value) -> int:
    """`value` as an int, or a ConfigError naming the field if it is not a
    whole number (a string, a bool, None, 2.5 and inf are all rejected)."""
    try:
        whole = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return whole


def config_int_triple(name: str, value) -> tuple[int, int, int]:
    """`value` as three positive ints, or a ConfigError naming the field."""
    try:
        items = tuple(config_int(name, x) for x in value)
    except (TypeError, ConfigError):
        items = ()
    if len(items) != 3 or min(items) < 1:
        raise ConfigError(f"{name} must be three positive ints, got {value!r}")
    return items


def config_real(name: str, value) -> float:
    """`value` as a float, or a ConfigError naming the field if it is not a
    finite real number (a string, a bool, None, nan and inf are all rejected)."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def json_object(text: str, what: str) -> dict:
    """`schema_fields` of the JSON in `text`, the file that holds `what`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    return schema_fields(payload, what)


def schema_fields(payload, what: str) -> dict:
    """A copy of the JSON object `payload` without its schema_version, which
    must be SCHEMA_VERSION or absent; anything else is a ConfigError."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} JSON must be an object")
    fields = dict(payload)
    version = fields.pop("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"{what} schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return fields

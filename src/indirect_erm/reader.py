"""Typed, read-once access to one JSON object of a run config: each key is
read in one place, with its type, default and allowed values, and a key
that nothing reads is an error, not dropped."""

from __future__ import annotations

from .errors import ConfigurationError

_REQUIRED = object()


def _is(value, typ) -> bool:
    """``typ`` is a type, ``[t]`` for a list of t, or a tuple of alternatives."""
    if isinstance(typ, tuple):
        return any(_is(value, t) for t in typ)
    if isinstance(typ, list):
        return isinstance(value, list) and all(_is(v, typ[0]) for v in value)
    if isinstance(value, bool):  # JSON true/false is neither a number nor a count
        return False
    return isinstance(value, (int, float) if typ is float else typ)


def _as(value, typ):
    """The value with its numbers as floats where ``typ`` asks for floats."""
    if isinstance(typ, tuple):
        typ = next(t for t in typ if _is(value, t))
    if isinstance(typ, list):
        return [_as(v, typ[0]) for v in value]
    return float(value) if typ is float else value


class ConfigReader:
    """One JSON object of a config; ``name`` is its dotted path in messages."""

    def __init__(self, doc, name: str = ""):
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config {name or 'root'} must be a JSON object")
        self._doc, self._name, self._read = doc, name, set()

    def _path(self, key: str) -> str:
        return f"{self._name}.{key}" if self._name else key

    def get(self, key: str, typ, default=_REQUIRED, allowed=None):
        """The value of ``key``, checked against ``typ`` and ``allowed``, or
        ``default`` when it is absent (without a default the key is
        required). Either way the key counts as read."""
        self._read.add(key)
        if key not in self._doc:
            if default is _REQUIRED:
                raise ConfigurationError(f"missing required config key {self._path(key)!r}")
            return default
        value = self._doc[key]
        if not _is(value, typ):
            raise ConfigurationError(f"config key {self._path(key)!r} has wrong type: {value!r}")
        if allowed is not None and value not in allowed:
            raise ConfigurationError(
                f"config key {self._path(key)!r} is {value!r}, not one of {allowed}")
        return _as(value, typ)

    def done(self) -> None:
        """Reject every key that was never read."""
        unread = sorted(set(self._doc) - self._read)
        if unread:
            raise ConfigurationError(
                f"config keys not read by this run: {[self._path(k) for k in unread]}")

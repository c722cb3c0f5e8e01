"""One record codec and one atomic writer for everything a run persists.

A record's shape is its dataclass: :func:`to_record` emits the fields in
declaration order (enums by value, tuples as lists, numpy scalars as
Python scalars, nested records recursively), skipping fields declared
with ``metadata=NOT_RECORDED``.  :func:`from_record` rebuilds an object
from that data by its field annotations; :func:`assign_record` writes it
onto an existing object in place.  :func:`replaced_atomically` is the
one safe-write policy (:func:`write_json_atomic` writes through it): a
per-writer temp file in the target's directory, then ``os.replace``, so
a reader or a kill mid-write only ever sees a whole file (no ``fsync``:
it guards against a dying process, not power loss).
Standard library and numpy only, so every layer can import it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import os
import threading
import types
import typing
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "NOT_RECORDED",
    "assign_record",
    "from_record",
    "replaced_atomically",
    "to_record",
    "write_json_atomic",
]

#: Dataclass field metadata marking a field that is not part of the record.
NOT_RECORDED = {"record": False}

_SCALARS = (str, int, float, bool, type(None))


def _record_fields(cls) -> tuple[dataclasses.Field, ...]:
    return tuple(f for f in dataclasses.fields(cls) if f.metadata.get("record", True))


def to_record(obj):
    """*obj* as JSON-ready data; :class:`TypeError` for a value with no
    faithful JSON form (a stringified value could not be read back)."""
    if type(obj) in _SCALARS:  # exact types first: the bulk of any record
        return obj
    if isinstance(obj, dict):
        return {key: to_record(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_record(value) for value in obj]
    if isinstance(obj, np.generic):
        return to_record(obj.item())
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_record(getattr(obj, f.name)) for f in _record_fields(type(obj))}
    if isinstance(obj, _SCALARS):
        return obj
    raise TypeError(f"cannot record a {type(obj).__name__}: {obj!r}")


@functools.lru_cache(maxsize=None)
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _decode(hint, value):
    """*value* (record data) converted back to annotation *hint*."""
    if value is None:
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return _decode(next(a for a in args if a is not type(None)), value)
    if origin is list and args:
        return [_decode(args[0], item) for item in value]
    if origin is tuple and args[-1:] == (Ellipsis,):
        return tuple(_decode(args[0], item) for item in value)
    if origin is tuple and args:
        return tuple(_decode(a, item) for a, item in zip(args, value))
    if origin is dict and args:
        return {key: _decode(args[1], item) for key, item in value.items()}
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(value)
    if dataclasses.is_dataclass(hint):
        return from_record(hint, value)
    return value


def _decoded(cls, data: dict) -> dict:
    hints = _hints(cls)
    return {
        f.name: _decode(hints[f.name], data[f.name])
        for f in _record_fields(cls)
        if f.name in data
    }


def from_record(cls, data: dict):
    """A *cls* rebuilt from :func:`to_record` data; absent fields take
    their defaults (:class:`TypeError` if one has none)."""
    return cls(**_decoded(cls, data))


def assign_record(obj, data: dict) -> None:
    """Overwrite *obj*'s recorded fields present in *data*, in place
    (a stray key cannot replace, say, an attached budget)."""
    for name, value in _decoded(type(obj), data).items():
        setattr(obj, name, value)


def write_json_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace *path* with *text* atomically, creating parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with replaced_atomically(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


@contextmanager
def replaced_atomically(path: str | os.PathLike) -> Iterator[Path]:
    """A temporary path beside *path*, moved onto it when the block exits
    cleanly and removed when it raises: *path* is never seen half
    written, and an existing file stays as it was on failure."""
    path = Path(path)
    # Unique per writer: concurrent writes to one path never share a temp.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

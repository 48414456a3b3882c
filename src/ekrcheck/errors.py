"""What every module and the command line share: the exception types, the
default budgets, the input checks, the JSON file reader and writer, and
the immutable record base."""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Iterator, TextIO

# Largest graph the exhaustive graph searches take by default; the command
# line's --vertex-budget default, read without loading the graph module.
DEFAULT_SEARCH_VERTEX_BUDGET = 24
# Most sets an enumeration lists by default (placements, independent sets,
# cyclic orders); the command line's --budget-sets default.
DEFAULT_SET_BUDGET = 10**6
# Most clique-search nodes by default; the command line's --budget-nodes default.
DEFAULT_NODE_BUDGET = 10**8


class InputError(ValueError):
    """Malformed or out-of-range input."""


class ResourceLimitError(RuntimeError):
    """A configured budget (output size, search nodes, or wall clock) ran out.

    For searches interrupted mid-run, ``lower_bound`` and ``upper_bound``
    carry the best exact bounds established before the budget expired.
    """

    def __init__(
        self,
        message: str,
        *,
        lower_bound: int | None = None,
        upper_bound: int | None = None,
    ) -> None:
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound


@contextmanager
def bounds_of(part: str) -> Iterator[None]:
    """Prefix ``part``, whose bounds it carries, to a budget exit's reason."""
    try:
        yield
    except ResourceLimitError as exc:
        exc.args = (f"{part}: {exc}",)
        raise


def is_integer(value: object) -> bool:
    """True for an int that is not a bool, so JSON true/false never pass as 1/0."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_object(value: object, what: str) -> dict:
    """``value``, or an input error unless it is a JSON object."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def require_field(obj: dict, name: str, where: str) -> object:
    """``obj[name]``, or an input error that names the missing field."""
    if name not in obj:
        raise InputError(f'{where} is missing the "{name}" field')
    return obj[name]


def require_integer(obj: dict, name: str, where: str) -> int:
    value = require_field(obj, name, where)
    if not is_integer(value):
        raise InputError(f'{where} "{name}" must be an integer, got {value!r}')
    return value


def require_list(obj: dict, name: str, where: str, default: list | None = None) -> list | tuple:
    """``obj[name]`` if it is a list, or a tuple as in the documents that
    this package builds before writing them."""
    value = obj.get(name, default) if default is not None else require_field(obj, name, where)
    if not isinstance(value, (list, tuple)):
        raise InputError(f'{where} "{name}" must be a list, got {value!r}')
    return value


def require_integers(values: object, what: str) -> list[int]:
    """``values`` as a list, if it is a list or tuple of integers."""
    if not isinstance(values, (list, tuple)) or not all(map(is_integer, values)):
        raise InputError(f"{what} must be a sequence of integers, got {values!r}")
    return list(values)


def load_json(path: str, parse: Callable[[object], object]) -> object:
    """``parse`` of the JSON document in the file at ``path``.  Malformed
    JSON is an InputError that names the file, line and column; so are
    text that is not UTF-8, nesting too deep for the parser (which would
    otherwise end the run with a traceback and exit 1) and every InputError
    of ``parse``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text at byte {exc.start}") from None
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply to read") from None
    try:
        return parse(document)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_json(document: object, stream: TextIO) -> None:
    """Write ``document`` to ``stream`` as indented JSON ending in a newline,
    the one writer of reports and files: in batches of the encoder's pieces,
    neither the whole text at once nor one unbuffered write per piece."""
    pieces = json.JSONEncoder(indent=2).iterencode(document)
    while batch := "".join(islice(pieces, 8192)):
        stream.write(batch)
    stream.write("\n")


def save_json(document: object, path: str) -> None:
    """Write ``document`` to ``path`` with ``write_json``; a failed write
    raises an OSError that names the file, as a failed open does."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write_json(document, fh)
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc


class Record:
    """Base of the immutable records, whose fields are their ``__slots__``.

    The constructor stores one value per field, in ``__slots__`` order;
    after that, assignment raises AttributeError.  Records compare and
    hash by ``_key()``, every field unless a subclass narrows it, and copy
    and pickle through their constructor.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        return self._fields()

    def __reduce__(self) -> tuple:
        return (self.__class__, self._fields())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

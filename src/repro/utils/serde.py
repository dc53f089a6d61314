"""Generic dataclass (de)serialisation.

The scenario specs of :mod:`repro.api` and the experiment result dataclasses
both need to round-trip through plain dictionaries and JSON so that sweeps can
be persisted, diffed, and re-loaded.  Rather than hand-writing a ``to_dict``
per class, this module walks dataclasses generically:

* ``to_jsonable`` lowers a value to JSON-compatible primitives (dataclasses
  become dicts, numpy arrays become lists, enums become their values);
* ``from_jsonable`` rebuilds a value from primitives, driven entirely by the
  target dataclass's type hints — nested dataclasses, ``Optional``, tuples,
  numpy arrays, enums, and integer/float dictionary keys (which JSON forces
  into strings) are all reconstructed.

``JsonSerializable`` packages the two directions as a mixin so any dataclass
gains ``to_dict``/``from_dict``/``to_json``/``from_json``/``save_json``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import typing
from pathlib import Path
from typing import Any, Dict, Tuple, Type, TypeVar, Union

import numpy as np

T = TypeVar("T")


def to_jsonable(value: Any) -> Any:
    """Lower ``value`` to JSON-compatible primitives (recursively)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.init
        }
    if isinstance(value, dict):
        return {key: to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(item) for item in value]
    # Last resort: classes with a canonical string form (e.g. MacAddress).
    return str(value)


def _coerce_key(hint: Any, key: Any) -> Any:
    """JSON turns all mapping keys into strings; undo that using the hint."""
    if hint is int:
        return int(key)
    if hint is float:
        return float(key)
    if hint is bool and isinstance(key, str):
        return key == "true"
    return key


#: The values each scalar hint accepts: no lenient coercion, since
#: ``bool("false")`` is True and ``int(2.9)`` is 2.  ``bool`` subclasses
#: ``int``, so the numeric hints refuse booleans explicitly.
_SCALARS: Dict[type, Tuple[type, ...]] = {
    bool: (bool, np.bool_), int: (int, np.integer),
    float: (int, float, np.integer, np.floating), str: (str,)}


def from_jsonable(hint: Any, data: Any) -> Any:
    """Rebuild a value of declared type ``hint`` from JSON primitives."""
    if hint is Any or hint is object or hint is None or hint is type(None):
        # ``object`` is the "anything JSON-shaped" hint (free-form metadata
        # mappings); like ``Any`` it passes primitives through untouched.
        return data
    origin = typing.get_origin(hint)
    if origin is Union:
        branches = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if data is None:
            return None
        if len(branches) == 1:
            return from_jsonable(branches[0], data)
        for branch in branches:
            try:
                return from_jsonable(branch, data)
            except (TypeError, ValueError, KeyError):
                continue
        raise ValueError(f"cannot decode {data!r} as any of {branches}")
    if data is None:
        return None
    if origin in (list, typing.Sequence) or (origin is not None and origin.__name__ == "Sequence"):
        args = typing.get_args(hint)
        item_hint = args[0] if args else Any
        return [from_jsonable(item_hint, item) for item in data]
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(from_jsonable(args[0], item) for item in data)
        if args:
            return tuple(from_jsonable(arg, item) for arg, item in zip(args, data))
        return tuple(data)
    if origin is dict or (origin is not None and origin.__name__ == "Mapping"):
        args = typing.get_args(hint)
        key_hint, value_hint = args if args else (Any, Any)
        return {
            _coerce_key(key_hint, key): from_jsonable(value_hint, item)
            for key, item in data.items()
        }
    if isinstance(hint, type):
        if issubclass(hint, enum.Enum):
            return hint(data)
        if hint is np.ndarray:
            return np.asarray(data)
        if dataclasses.is_dataclass(hint):
            field_names = {field.name for field in dataclasses.fields(hint)
                           if field.init}
            unknown = sorted(set(data) - field_names)
            if unknown:
                # A misspelled key silently falling back to the default would
                # run the wrong scenario; fail with the same did-you-mean
                # treatment the registries give unknown component names.
                import difflib

                hints_text = []
                for key in unknown:
                    close = difflib.get_close_matches(key, sorted(field_names),
                                                      n=1, cutoff=0.6)
                    hints_text.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)"
                                                    if close else ""))
                raise ValueError(
                    f"unknown field(s) for {hint.__name__}: " + ", ".join(hints_text))
            hints = typing.get_type_hints(hint)
            kwargs = {
                field.name: from_jsonable(hints[field.name], data[field.name])
                for field in dataclasses.fields(hint)
                if field.init and field.name in data
            }
            return hint(**kwargs)
        if hint in _SCALARS:
            if (not isinstance(data, _SCALARS[hint])
                    or (hint is not bool and isinstance(data, (bool, np.bool_)))):
                raise TypeError(f"expected {hint.__name__}, got {data!r}")
            return hint(data)
        # Classes constructible from their canonical string form.
        return hint(data)
    return data


class JsonSerializable:
    """Mixin adding dict/JSON round-trip helpers to a dataclass."""

    def to_dict(self) -> Dict[str, Any]:
        """The dataclass as a plain (JSON-compatible) dictionary."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
        """Rebuild an instance from :meth:`to_dict` output."""
        return from_jsonable(cls, data)

    def to_json(self, indent: int = 2) -> str:
        """The dataclass as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls: Type[T], text: str) -> T:
        """Rebuild an instance from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def save_json(self, path: Union[str, Path]) -> Path:
        """Write the JSON form to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load_json(cls: Type[T], path: Union[str, Path]) -> T:
        """Load an instance previously written by :meth:`save_json`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

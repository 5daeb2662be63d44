"""One shape language for every trust boundary.

Run specs, the service's request bodies, job files, checkpoint lines,
wire frames and worker state come from outside the program; each is
checked against a *shape* before anything is built from it:

- a type: ``int``, ``float`` (any number), ``str``, ``bool``, ``dict``
  (any object).  JSON's types match exactly: a ``bool`` is no ``int``;
- ``None`` (null), and a tuple of alternatives, e.g. ``(None, str)``;
- :class:`OneOf` — a string from a fixed list;
- :class:`Range` — an ``int`` or ``float`` within bounds;
- ``{key: shape}`` — an object with exactly those keys (a key whose
  shape is :class:`Omittable` may be absent);
- ``{str: shape}`` — a string-keyed table;
- ``[shape]`` — a list (or tuple) of it; ``[shape, shape, …]`` —
  exactly those items.

:func:`compile` turns a shape into a checker once.  A value that does
not fit raises the boundary's own error class naming the path: a wrong
type reads ``engine.workers: expected int, got '2'``, a value outside
its bounds or choices ``engine.workers must be >= 1, got 0``.  A
dataclass's shape can be read off its annotations (:func:`fields_shape`).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import typing
from typing import Callable, Dict, Optional, Tuple

#: Shape type -> the exact value types that fill it.
_TYPES = {
    int: (int,), float: (int, float), bool: (bool,), str: (str,), dict: (dict,),
    type(None): (type(None),),
}
_NAMES = {dict: "an object", type(None): "null"}
_LISTS = (list, tuple)
_ABSENT = object()


@dataclasses.dataclass(frozen=True)
class Range:
    """An ``int`` or ``float`` within ``min <= v``, ``above < v``, ``v <= max``."""

    kind: type
    min: Optional[float] = None
    max: Optional[float] = None
    above: Optional[float] = None

    def rule(self) -> str:
        low, bracket = (self.min, "[") if self.above is None else (self.above, "(")
        if low is None:
            return f"<= {self.max:g}"
        if self.max is None:
            return f"{'>=' if bracket == '[' else '>'} {low:g}"
        return f"in {bracket}{low:g}, {self.max:g}]"


@dataclasses.dataclass(frozen=True)
class OneOf:
    """A string from *choices* (messages list them in this order)."""

    choices: Tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class Omittable:
    """An object key that may be absent; present, it has *shape*."""

    shape: object


class _Mismatch(Exception):
    """A failed check on its way to the boundary's error: *kind* ``"type"``
    (*detail*: what was expected), ``"rule"`` (a bound or choice) or ``"keys"``."""

    def __init__(self, kind: str, detail: str, shown: str = "") -> None:
        self.kind, self.detail, self.shown = kind, detail, shown
        self.path = []  # segments, innermost first

    def message(self, root: str) -> str:
        path = (root + "".join(reversed(self.path))).lstrip(".")
        if self.kind == "rule":
            return f"{path} must be {self.detail}, got {self.shown}".lstrip()
        text = f"expected {self.detail}, got {self.shown}" if self.kind == "type" else self.detail
        return f"{path}: {text}" if path else text


def _shown(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _compile(shape, suffix: str = "") -> Tuple[Callable, str, bool]:
    """``(check, what, leaf)``: *check* raises :class:`_Mismatch`, *what*
    describes *shape*, *leaf* says it has no parts.  *suffix* extends
    what a wrong type reports (``" or null"`` inside a nullable)."""
    options = [
        type(None) if option is None else option
        for option in (shape if isinstance(shape, tuple) else (shape,))
    ]
    if all(isinstance(option, type) and option in _TYPES for option in options):
        # Plain types, null included, check as one union of types.
        types = tuple(kind for option in options for kind in _TYPES[option])
        what = " or ".join(sorted(
            (_NAMES.get(option, option.__name__) for option in options),
            key=lambda name: name == "null",
        ))

        def typed(value):
            if type(value) not in types:
                raise _Mismatch("type", what + suffix, _shown(value))
        return typed, what, True
    if isinstance(shape, tuple):
        options = tuple(option for option in shape if option is not None)
        if len(options) < len(shape):
            check, what, leaf = _compile(
                options[0] if len(options) == 1 else options, " or null"
            )
            return (lambda value: value is None or check(value)), what + " or null", leaf
        compiled = [_compile(option) for option in options]
        what = " or ".join(part[1] for part in compiled)

        def either(value):
            for check, _, _ in compiled:
                try:
                    return check(value)
                except _Mismatch:
                    pass
            raise _Mismatch("type", what + suffix, _shown(value))
        return either, what, False
    if isinstance(shape, Range):
        types, what, rule = _TYPES[shape.kind], shape.kind.__name__, shape.rule()
        low, high, above = shape.min, shape.max, shape.above

        def ranged(value):
            if type(value) not in types:
                raise _Mismatch("type", what + suffix, _shown(value))
            if (
                (low is not None and not value >= low)
                or (above is not None and not value > above)
                or (high is not None and not value <= high)
            ):
                raise _Mismatch("rule", rule, _shown(value))
        return ranged, what, True
    if isinstance(shape, OneOf):
        choices, what = frozenset(shape.choices), "one of " + ", ".join(shape.choices)

        def one_of(value):
            if type(value) is not str:
                raise _Mismatch("type", what + suffix, _shown(value))
            if value not in choices:
                raise _Mismatch("rule", what, _shown(value))
        return one_of, what, True
    if isinstance(shape, dict):
        return (_table if list(shape) == [str] else _object)(shape, suffix)
    return _list(shape, suffix)


def _object(shape: Dict, suffix: str):
    keys = frozenset(shape)
    required = {key for key, sub in shape.items() if not isinstance(sub, Omittable)}
    items = [
        (key, _compile(sub.shape if isinstance(sub, Omittable) else sub)[0])
        for key, sub in shape.items()
    ]
    what = "an object with keys " + ", ".join(shape)

    def obj(value):
        if not isinstance(value, dict):
            raise _Mismatch("type", what + suffix, _shown(value))
        if value.keys() != keys and not required <= value.keys() <= keys:
            unknown = sorted(map(str, value.keys() - keys))
            raise _Mismatch("keys", (
                f"unknown key(s) {', '.join(unknown)} (known: {', '.join(shape)})"
                if unknown else
                f"missing key(s) {', '.join(sorted(required - value.keys()))}"
            ))
        for key, check in items:
            item = value.get(key, _ABSENT)
            if item is not _ABSENT:
                try:
                    check(item)
                except _Mismatch as error:
                    error.path.append(f".{key}")
                    raise
    return obj, what, False


def _table(shape: Dict, suffix: str):
    check, item_what, leaf = _compile(shape[str])
    what = f"a table of str -> {item_what}"

    def table(value):
        if not isinstance(value, dict):
            raise _Mismatch("type", what + suffix, _shown(value))
        for key, item in value.items():
            if type(key) is not str:
                raise _Mismatch("rule", what, f"the key {_shown(key)}")
            try:
                check(item)
            except _Mismatch as error:
                if leaf:  # a table of plain values reports at the table
                    raise _Mismatch("rule", what, f"the entry {key!r}: {_shown(item)}") from None
                error.path.append(f"[{key!r}]")
                raise
    return table, what, False


def _list(shape: list, suffix: str):
    compiled = [_compile(sub) for sub in shape]
    (check, item_what, leaf), fixed = compiled[0], len(compiled) > 1
    what = (
        "[" + ", ".join(part[1] for part in compiled) + "]" if fixed
        else f"a list of {item_what}"
    )

    def listed(value):
        if type(value) not in _LISTS or fixed and len(value) != len(compiled):
            hint = " (write it as a one-element list)" if type(value) is str else ""
            raise _Mismatch("type", what + suffix, f"{_shown(value)}{hint}")
        for index, item in enumerate(value):
            try:
                (compiled[index][0] if fixed else check)(item)
            except _Mismatch as error:
                if fixed or not leaf:
                    error.path.append(f"[{index}]")
                    raise
                # A list of plain values reports at the list.
                detail = what if error.kind == "type" else f"a list of items {error.detail}"
                raise _Mismatch(error.kind, detail, f"the item {_shown(item)}") from None
    return listed, what, False


def compile(
    shape, error: Callable[[str], Exception] = ValueError, root: str = ""
) -> Callable:
    """*shape*'s checker: it returns a value that fits, else raises
    ``error(message)`` naming the path below *root*; ``.shape`` keeps *shape*."""
    check = _compile(shape)[0]

    def checked(value):
        try:
            check(value)
        except _Mismatch as mismatch:
            raise error(mismatch.message(root)) from None
        return value
    checked.shape = shape
    return checked


def field(default, **rule):
    """A dataclass field with its rule beside it: ``min``/``max``/``above``
    bounds or ``one_of`` choices (a sequence's rule is its items')."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def fields_shape(cls) -> Dict[str, object]:
    """Dataclass *cls*'s object shape, from its annotations and
    :func:`field` rules; a key with a default may be absent (the default
    fills in), one without must be present."""
    hints = typing.get_type_hints(cls)
    shape = {}
    for f in dataclasses.fields(cls):
        sub = _annotated(hints[f.name], f.metadata.get("rule", {}))
        has_default = (
            f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        )
        shape[f.name] = Omittable(sub) if has_default else sub
    return shape


def _annotated(hint, rule: Dict):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        (inner,) = (arg for arg in args if arg is not type(None))
        return (None, _annotated(inner, rule))
    if origin in (tuple, list):
        return [_annotated(args[0], rule)]
    if origin in (dict, collections.abc.Mapping):
        # ``Dict[str, object]`` holds any JSON values.
        return dict if args[1] is object else {str: _annotated(args[1], rule)}
    if "one_of" in rule:
        return OneOf(tuple(rule["one_of"]))
    return Range(hint, **rule) if rule else hint

"""The wire schema: a dataclass's type annotations are its wire format.

One compiler serves the envelopes (:mod:`repro.gateway.envelopes`, plain
JSON) and the value objects (:mod:`repro.gateway.codec`, ``"type"``-tagged,
with tuples, frozensets and mappings tagged by :func:`encode_value`). On
first use per class it compiles an encoder and an exact coercer per field
from ``typing.get_type_hints``; a mismatch is a
:class:`~repro.errors.ProtocolError` naming the class and the field.
DESIGN.md ("One wire schema") states the rules.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import operator
import types
import typing
from collections.abc import Hashable, Mapping

from repro.errors import ProtocolError

__all__ = [
    "Pairs",
    "Schema",
    "build",
    "register",
    "encode",
    "decode",
    "encode_value",
    "decode_value",
    "as_int",
    "as_float",
    "as_bool",
    "as_str",
    "as_array",
]


class Pairs(tuple):
    """``Pairs[K, V]``: a ``tuple[tuple[K, V], ...]`` field that also
    accepts a mapping (its items, in order)."""


# ---------------------------------------------------------------- scalars --


def _expected(what: str, value) -> TypeError:
    return TypeError(f"expected {what}, got {type(value).__name__} {value!r}")


def as_int(value) -> int:
    """An integer; never a bool, a str or a float."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise _expected("an integer", value)


def as_float(value) -> float:
    """A real number as a float; never a bool or a str."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise _expected("a number", value)


def as_bool(value) -> bool:
    """A bool, nothing else."""
    if value is True or value is False:
        return value
    raise _expected("a bool", value)


def as_str(value) -> str:
    """A str, nothing else."""
    if isinstance(value, str):
        return value
    raise _expected("a string", value)


def as_array(value):
    """A list or a tuple (a JSON array), nothing else."""
    if isinstance(value, (list, tuple)):
        return value
    raise _expected("an array", value)


_EXACT = {int: as_int, float: as_float, bool: as_bool, str: as_str}


# ------------------------------------------------- tagged value encoding --

_SCALARS = (str, int, float, bool, type(None))


def encode_value(value):
    """One Python value -> its JSON-able form (tagged where needed)."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return {"tuple": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        return {"frozenset": [encode_value(v) for v in sorted(value, key=_set_order)]}
    if isinstance(value, (dict, Mapping)):
        return {"map": [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    if isinstance(value, list):
        return {"tuple": [encode_value(v) for v in value]}
    raise ProtocolError(f"value of type {type(value).__name__} has no wire encoding")


def decode_value(value):
    """Inverse of :func:`encode_value` (lists decode to tuples)."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, list):
        return tuple(decode_value(v) for v in value)
    if isinstance(value, dict):
        if len(value) == 1:
            ((tag, payload),) = value.items()
            if tag == "tuple" and isinstance(payload, list):
                return tuple(decode_value(v) for v in payload)
            if tag == "frozenset" and isinstance(payload, list):
                return frozenset(decode_value(v) for v in payload)
            if tag == "map" and isinstance(payload, list):
                return _map(payload, decode_value, decode_value)
        raise ProtocolError(f"unknown tagged value {sorted(value)!r}")
    raise ProtocolError(f"value of type {type(value).__name__} has no wire decoding")


def _set_order(value):
    return (str(type(value).__name__), str(value))


def _map(pairs, key, value) -> dict:
    out = {}
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ProtocolError(f"malformed map pair {pair!r}")
        out[key(pair[0])] = value(pair[1])
    return out


def _untag(tag: str):
    def untag(value) -> list:
        if type(value) is dict and len(value) == 1 and type(value.get(tag)) is list:
            return value[tag]
        raise _expected(f"a {{{tag!r}: [...]}} value", value)

    return untag


# ------------------------------------------------ plain (envelope) values --


def _plain(value):
    """Opaque value -> JSON-able (tuples nest as arrays)."""
    if isinstance(value, tuple):
        return [_plain(v) if isinstance(v, tuple) else v for v in value]
    return value


def _tupled(value):
    """Opaque value -> normal form (arrays nest as tuples)."""
    if isinstance(value, (list, tuple)):
        return tuple([_tupled(v) if isinstance(v, (list, tuple)) else v for v in value])
    return value


def _same(value):
    return value


def _hashable(value):
    hash(value)  # ids key dicts all the way down: fail here, as data
    return value


# --------------------------------------------------------------- compiler --


def _compile(tp, mode: str):
    """``(encode, coerce)`` for one annotation; ``encode`` None is identity.

    ``mode``: ``"tagged"`` reads value objects from JSON; ``"wire"`` reads
    envelopes from JSON, where an array at an opaque position is a tuple;
    ``"local"`` coerces envelopes built in-process.
    """
    tagged = mode == "tagged"
    if tp in _EXACT:
        return None, _EXACT[tp]
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (object, Hashable):
        # In-process an opaque value is taken as it is; read from JSON, an
        # array at an opaque position is a tuple.
        enc, coerce = {
            "tagged": (encode_value, decode_value),
            "wire": (_plain, _tupled),
            "local": (_plain, _same),
        }[mode]
        if origin is not Hashable:
            return enc, coerce
        if coerce is _same:
            return enc, _hashable
        return enc, lambda v: _hashable(coerce(v))
    if origin in (typing.Union, types.UnionType):
        (inner,) = set(args) - {type(None)}
        enc, coerce = _compile(inner, mode)
        return (
            enc and (lambda v: None if v is None else enc(v)),
            lambda v: None if v is None else coerce(v),
        )
    if origin is Pairs:
        enc, coerce = _compile(tuple[tuple[args], ...], mode)
        return enc, lambda v: coerce(tuple(v.items()) if isinstance(v, Mapping) else v)
    if origin in (dict, Mapping) and tagged:
        (kenc, key), (venc, value) = (_compile(a, mode) for a in args or (object,) * 2)
        kenc, venc, untag = kenc or _same, venc or _same, _untag("map")
        return (
            lambda m: {"map": [[kenc(k), venc(v)] for k, v in m.items()]},
            lambda m: _map(untag(m), key, value),
        )
    if origin in (tuple, list, frozenset):
        tag = origin.__name__ if tagged and origin is not list else None
        if origin is tuple and args and args[-1] is not Ellipsis:
            return _fixed([_compile(a, mode) for a in args], tag)
        if origin is tuple and not args and not tagged:  # opaque rows: one call each
            return _plain, tuple if mode == "local" else lambda v: _tupled(as_array(v))
        enc, coerce = _compile(args[0] if args else object, mode)
        encoded = listing = list if enc is None else lambda v: [enc(x) for x in v]
        if origin is frozenset:
            encoded = lambda v: listing(sorted(v, key=_set_order))  # noqa: E731
        items = _untag(tag) if tag else as_array
        return (
            encoded if tag is None else lambda v: {tag: encoded(v)},
            lambda v: origin(map(coerce, items(v))),
        )
    if tagged and tp in _BY_CLASS:
        return encode, lambda v: _instance(decode(v), tp)
    raise TypeError(f"no wire schema for the annotation {tp!r}")


def _fixed(compiled, tag):
    encs, coerces = zip(*compiled)
    items = _untag(tag) if tag else as_array

    def encoded(value):
        return [v if enc is None else enc(v) for enc, v in zip(encs, value)]

    def coerce(value):
        value = items(value)
        if len(value) != len(coerces):
            raise ValueError(f"expected {len(coerces)} items, got {len(value)}")
        return tuple([fn(v) for fn, v in zip(coerces, value)])

    return (encoded if tag is None else lambda v: {tag: encoded(v)}), coerce


def _instance(obj, cls):
    if not isinstance(obj, cls):
        raise _expected(f"an encoded {cls.__name__}", obj)
    return obj


class Schema:
    """One dataclass's compiled wire schema. ``tags`` are the keys its wire
    dicts carry beside the fields; decode rejects any other unknown key."""

    def __init__(self, cls, tagged: bool, tags) -> None:
        self.cls, self.tagged, self.tags = cls, tagged, frozenset(tags)

    @functools.cached_property
    def fields(self) -> tuple:
        """``(name, encode, coerce, decode, default)`` per field, compiled
        on first use: annotations may name classes defined later."""
        hints = typing.get_type_hints(self.cls)
        compiled = []
        for field in dataclasses.fields(self.cls):
            tp = hints[field.name]
            if self.tagged:
                enc, coerce = _compile(tp, "tagged")
                decode = coerce
            else:
                enc, coerce = _compile(tp, "local")
                decode = _compile(tp, "wire")[1]
            default = field.default_factory
            if field.default is not dataclasses.MISSING:
                default = (lambda value: lambda: value)(field.default)
            compiled.append((field.name, enc, coerce, decode, default))
        return tuple(compiled)

    @functools.cached_property
    def names(self) -> frozenset:
        return frozenset(name for name, *_ in self.fields)

    def _malformed(self, name, exc) -> ProtocolError:
        return ProtocolError(f"malformed {self.cls.__name__}: field {name!r}: {exc}")

    def encode(self, obj, out: dict) -> dict:
        """Add ``obj``'s encoded fields to ``out``, in field order."""
        for name, enc, _, _, _ in self.fields:
            value = getattr(obj, name)
            out[name] = value if enc is None else enc(value)
        return out

    def coerce(self, obj) -> None:
        """Normalize the fields of a just-constructed frozen ``obj`` in place."""
        fields = self.fields  # compiled outside the try: a bad annotation is a bug
        try:
            for name, _, coerce, _, _ in fields:
                object.__setattr__(obj, name, coerce(getattr(obj, name)))
        except (TypeError, ValueError) as exc:
            raise self._malformed(name, exc) from None

    def decode(self, d) -> dict:
        """One wire dict -> its normal field values, defaults filled."""
        if not self.names.issuperset(d.keys() - self.tags):
            extra = sorted(d.keys() - self.tags - self.names, key=repr)
            raise ProtocolError(f"{self.cls.__name__} carries unknown fields {extra}")
        values = {}
        for name, _, _, decode, default in self.fields:
            try:
                if name in d:
                    values[name] = decode(d[name])
                elif default is dataclasses.MISSING:
                    raise ValueError("missing")
                else:
                    values[name] = default()
            except (TypeError, ValueError) as exc:
                raise self._malformed(name, exc) from None
        return values


def build(cls, values: dict):
    """A frozen dataclass from field values that are already normal: the
    one place that knows how to skip ``__init__`` and its coercion."""
    obj = object.__new__(cls)
    for name, value in values.items():  # not via __dict__: it would materialize
        object.__setattr__(obj, name, value)
    return obj


# --------------------------------------------------------------- registry --

_BY_CLASS: dict = {}  # value-object class -> (type tag, fields encoder)
_BY_TAG: dict = {}  # type tag -> decoder


def register(cls, encode_fields=None, decode_fields=None) -> None:
    """Make ``cls`` a ``"type"``-tagged value object: a dataclass compiles
    from its annotations, any other class passes its own codec pair."""
    if encode_fields is None:
        schema = Schema(cls, tagged=True, tags=("type",))
        encode_fields = lambda obj: schema.encode(obj, {})  # noqa: E731
        decode_fields = lambda d: cls(**schema.decode(d))  # noqa: E731

    _BY_CLASS[cls] = (cls.__name__, encode_fields)
    _BY_TAG[cls.__name__] = decode_fields


def encode(obj) -> dict:
    """One public value object -> its tagged JSON-able dictionary."""
    entry = _BY_CLASS.get(type(obj))
    if entry is None:
        raise ProtocolError(f"no wire codec for objects of type {type(obj).__name__}")
    tag, encode_fields = entry
    return {"type": tag, **encode_fields(obj)}


def decode(d: dict):
    """Inverse of :func:`encode`; raises :class:`ProtocolError` on junk."""
    if not isinstance(d, dict):
        raise ProtocolError(f"expected an encoded object, got {type(d).__name__}")
    tag = d.get("type")
    dec = _BY_TAG.get(tag) if isinstance(tag, str) else None
    if dec is None:
        raise ProtocolError(f"unknown value-object type {tag!r}")
    try:
        return dec(d)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ProtocolError(f"malformed {tag} payload: {exc}") from exc

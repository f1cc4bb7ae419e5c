"""The one reader of JSON configs.

A schema maps each key of a config section to its type, when the key is
required, or to a `(type, default)` pair. A type is `int`, `Min(n)` (an
int of at least n), `float`, `bool`, `str`, a `frozenset` (a str in it),
`Path` (a non-empty string), a schema or a config dataclass (an object,
read as a section of its own), `Kinds` (a section read by the schema of
its `kind`), `[t]` (a list of `t`), `[t1, t2]` (a pair) or `{str: t}`
(an object of `t` values). A null is the key's absence, and a non-null
default is read as if it were given. An unknown or missing key, an empty
path, a value of another JSON type (`bool` is not an `int`; an `int` is
taken where a `float` is due) or out of its bound (`must be positive`,
`nonnegative`, `at least n`, `unknown <key> 'v'`), or a config dataclass
rejecting its fields is a ConfigError that names the key's full path.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from pathlib import Path
from types import SimpleNamespace

from .errors import ConfigError

RUN = {"seed": (int, 0), "out_dir": (Path, ".")}  # what --seed and --out-dir override
_type_hints = functools.cache(typing.get_type_hints)  # of a config dataclass's fields


class Kinds(dict):
    """Schemas by the section's `kind` key, which is the first kind when absent."""


class Min(int):
    """An int of at least this value."""


_WANT = {Min: int, frozenset: str}  # the type of a value of a spec of this type
_SCALARS = (int, float, bool, str)  # the types a scalar spec wants


def read(section: str, d, schema):
    """The section `d` as a namespace of every key of `schema`, or as an
    instance of `schema` if it is a config dataclass, whose fields are the keys."""
    cls = SimpleNamespace
    if not isinstance(schema, dict):  # a config dataclass
        hints = _type_hints(schema)
        cls, schema = schema, {f.name: hints[f.name] if f.default is dataclasses.MISSING
                               else (hints[f.name], f.default) for f in dataclasses.fields(schema)}
    if type(d) is not dict:
        raise ConfigError(f"{section} must be dict, not {type(d).__name__}")
    if not d.keys() <= schema.keys():
        raise ConfigError(f"{section}: unknown key {min(d.keys() - schema.keys())!r}")
    values = {}
    for key, spec in schema.items():
        value, optional = d.get(key), isinstance(spec, tuple)
        if optional:
            spec, value = spec[0], spec[1] if value is None else value
        values[key] = None if optional and value is None else check(f"{section}.{key}", value, spec)
    return at(section, cls, **values)


def check(where: str, value, spec):
    """`value` if it is present, of type `spec` and within its bound (an int
    made a float if a float is due, a section read by its schema)."""
    if value is None:
        raise ConfigError(f"{where} is missing")
    want = _WANT.get(type(spec), str if spec is Path else spec)
    if want in _SCALARS:
        if spec is Path and value == "":
            raise ConfigError(f"{where} is an empty path")
        if type(value) is want or want is float and type(value) is int:
            if isinstance(spec, Min) and value < spec:
                bound = {0: "nonnegative", 1: "positive"}.get(spec, f"at least {spec}")
                raise ConfigError(f"{where} must be {bound}")
            if isinstance(spec, frozenset) and value not in spec:
                key = where.split(".")[-1].split("[")[0]
                raise ConfigError(f"{where}: unknown {key} {value!r}")
            return float(value) if want is float else value
    elif isinstance(spec, list) and type(value) is list and len(spec) in (1, len(value)):
        return [check(f"{where}[{i}]", v, spec[i % len(spec)]) for i, v in enumerate(value)]
    elif isinstance(spec, dict) and str in spec and type(value) is dict:
        return {k: check(f"{where}.{k}", v, spec[str]) for k, v in value.items()}
    elif isinstance(spec, Kinds) and type(value) is dict:
        kind = next(iter(spec)) if value.get("kind") is None else value["kind"]
        kind = check(f"{where}.kind", kind, frozenset(spec))
        return read(where, dict(value, kind=kind), spec[kind])
    elif not isinstance(spec, list):  # a schema, an object of values, Kinds or a dataclass
        return read(where, value, spec)
    want = (f"list of {len(spec)}" if isinstance(spec, list) and len(spec) > 1
            else "path" if spec is Path else getattr(want, "__name__", type(want).__name__))
    raise ConfigError(f"{where} must be {want}, not {type(value).__name__}")


def at(where: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with the config path `where` before a ConfigError it raises."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load(config: dict | str | Path, schema: dict, out_dir: str | Path | None = None,
         seed: int | None = None) -> tuple[dict, SimpleNamespace, Path]:
    """A whole config as given (what `manifest.json` records), as read by
    `schema` with `seed` and `out_dir` overriding its keys of those names,
    and the directory its paths resolve against (the file's, or the cwd)."""
    if isinstance(config, (str, Path)):
        with open(config, "r", encoding="utf-8") as f:
            given, base_dir = json.load(f), Path(config).parent
    else:
        given, base_dir = dict(config), Path.cwd()
    cfg = read("config", given, schema)
    cfg.seed, cfg.out_dir = cfg.seed if seed is None else seed, Path(out_dir or cfg.out_dir)
    return given, cfg, base_dir

"""The one reader of JSON configs.

A schema maps each key of a config section to its type, when the key is
required, or to a `(type, default)` pair. A type is `int`, `float`,
`bool`, `str`, `dict` (an object, read as a section of its own), `[t]`
(a list of `t`), `[t1, t2]` (a pair) or `{str: t}` (an object of `t`
values). A null is the key's absence. An unknown or missing key, or a
value of another JSON type, is a ConfigError that names the section and
the key; `bool` is not an `int`, and an `int` is taken where a `float`
is due.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from pathlib import Path
from types import SimpleNamespace

from .errors import ConfigError

RUN = {"seed": (int, 0), "out_dir": (str, ".")}  # what --seed and --out-dir override
_type_hints = functools.cache(typing.get_type_hints)  # of a config dataclass's fields


def read(section: str, d, schema):
    """The section `d` as a namespace of every key of `schema`, or as an
    instance of `schema` if it is a config dataclass, whose fields are the keys."""
    cls = SimpleNamespace
    if dataclasses.is_dataclass(schema):
        hints = _type_hints(schema)
        cls, schema = schema, {f.name: hints[f.name] if f.default is dataclasses.MISSING
                               else (hints[f.name], f.default) for f in dataclasses.fields(schema)}
    d = check(section, d, dict)
    unknown = sorted(set(d) - set(schema))
    if unknown:
        raise ConfigError(f"{section}: unknown key {unknown[0]!r}")
    values = {}
    for key, spec in schema.items():
        if isinstance(spec, tuple) and d.get(key) is None:
            values[key] = spec[1]
        else:
            values[key] = check(f"{section}.{key}", d.get(key),
                                spec[0] if isinstance(spec, tuple) else spec)
    return cls(**values)


def check(where: str, value, spec):
    """`value` if it is present and of type `spec` (an int made a float if a float is due)."""
    if value is None:
        raise ConfigError(f"{where} is missing")
    if isinstance(spec, list) and type(value) is list and len(spec) in (1, len(value)):
        return [check(f"{where}[{i}]", v, spec[i % len(spec)]) for i, v in enumerate(value)]
    if isinstance(spec, dict) and type(value) is dict:
        return {k: check(f"{where}.{k}", v, spec[str]) for k, v in value.items()}
    if type(value) is spec or spec is float and type(value) is int:
        return float(value) if spec is float else value
    want = (f"list of {len(spec)}" if isinstance(spec, list) and len(spec) > 1
            else getattr(spec, "__name__", type(spec).__name__))
    raise ConfigError(f"{where} must be {want}, not {type(value).__name__}")


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

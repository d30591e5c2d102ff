"""Scenario files: YAML schema, defaults, overrides and sweep expansion.

A scenario file is a nested mapping of sections whose keys are those of
the key table ``_DOMAINS``, with their defaults in ``_DEFAULTS`` (the
README lists them); every key is optional. Each section but the file's
``scenario_id`` string and the ``sweep`` section is built by a config
dataclass, whose declared fields (`errors.declare`) are its keys, with
their defaults and their domains. File keys, ``--set section.key=value``
overrides and the keys of the ``sweep`` section all name that table's
dotted keys: an unknown key is rejected with its dotted path, and each
value is checked by its key's domain (`errors.Domain.check`) before any
scenario is built, so every refused value reads ``{source}: {key}={value!r}:
must be {rule}``. The dataclasses built from the checked values then check
each declared field again, as they do for a Python caller, and what ties
values together.

The ``sweep`` section maps dotted keys to value lists and expands to the
Cartesian product of scenarios, at most ``_MAX_SCENARIOS`` of them;
each variant's id gets a deterministic suffix. The campaign block
applies to the whole file, so its keys cannot be swept.

A file's text and each ``--set`` value are read as YAML (`_load_yaml`)
after one pass over their parser events has checked both the nesting
depth and that no mapping repeats a key. The pass runs before any node
is built: libyaml builds nodes by recursion on the C stack, and the
loader would keep a repeated key's last value without a word.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Collection, Mapping, Optional, Sequence

import yaml

from .codebook import ArrayConfig, PowerModel
from .errors import ConfigurationError, Domain, declared_domains
from .evaluation import CampaignSettings
from .frame import CsiRsConfig, Numerology, SsBurstConfig
from .link import ChannelParams
from .procedures import SCENARIO_ID, Scenario

# libyaml's C parser reads a scenario file several times faster than
# PyYAML's Python one, to the same values; a PyYAML built without libyaml
# has only the Python one.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# the most scenarios a sweep may expand to: the product of its lists'
# lengths, checked before any is built; the paper's grid is 10,368
_MAX_SCENARIOS = 16_384

# a scenario file nests collections three deep (the file, a section, a
# key's list of values), and a --set value is one of those values
_MAX_DEPTH = 3


def _load_yaml(text: str) -> Any:
    """The value of YAML ``text`` read by ``_LOADER``, in which no mapping
    repeats a key.

    One pass over the text's events, before any node is built, raises
    `yaml.YAMLError` where collections nest deeper than ``_MAX_DEPTH`` and
    its subclass `ConstructorError` at the second of two equal scalar keys
    of one mapping. Nodes are built only after it because libyaml composes them
    by recursion on the C stack (an 8 MB stack overflows near 30,000
    levels), and the constructor keeps a repeated key's last value. Keys
    compare by their text, an alias key by that of the scalar it names; a
    ``<<`` merge key may repeat, and the keys that a merge brings in are
    no events of the mapping. The loaded value is checked too, because an
    alias nests a value deeper than the text that names it. So the checks
    after loading, whose messages show the value, never recurse far, nor
    meet an int too long to print.
    """
    # each anchor's key: its scalar's text, or None for << and a collection
    anchors: dict[str, Optional[str]] = {}
    # each open collection: for a mapping its start mark, its keys so far
    # and whether a key comes next, for a sequence None
    stack: list[Optional[list]] = []
    for event in yaml.parse(text, Loader=_LOADER):
        if isinstance(event, yaml.CollectionEndEvent):
            stack.pop()
        if not isinstance(event, yaml.NodeEvent):
            continue
        if isinstance(event, yaml.AliasEvent):
            key = anchors.get(event.anchor)
        else:
            key = event.value if isinstance(event, yaml.ScalarEvent) else None
            # a key merges where its tag is merge, given or resolved from <<
            if (key == "<<" and event.implicit[0]) or event.tag == "tag:yaml.org,2002:merge":
                key = None
            if event.anchor is not None:
                anchors[event.anchor] = key
        mapping = stack[-1] if stack else None
        if mapping is not None:
            mark, keys, at_key = mapping
            mapping[2] = not at_key
            if at_key and key is not None:
                if key in keys:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping",
                        mark,
                        f"found duplicate key {key!r}",
                        event.start_mark,
                    )
                keys.add(key)
        if isinstance(event, yaml.CollectionStartEvent):
            if len(stack) == _MAX_DEPTH:
                raise yaml.YAMLError("nested too deeply")
            is_mapping = isinstance(event, yaml.MappingStartEvent)
            stack.append([event.start_mark, set(), True] if is_mapping else None)
    try:
        value = yaml.load(text, Loader=_LOADER)
        # the keys and values inside _MAX_DEPTH collections must be scalars,
        # and each int must print: a 0x literal loads past the digit limit,
        # where a decimal one, like a date that does not exist, fails to load
        inside = level = [value]
        for _ in range(_MAX_DEPTH):
            level = [
                v
                for c in level
                if isinstance(c, (dict, list))
                for v in ((*c, *c.values()) if isinstance(c, dict) else c)
            ]
            inside += level
        for v in inside:
            if type(v) is int:
                repr(v)
    except ValueError as exc:
        # a file cannot take the advice to raise the digit limit
        raise yaml.YAMLError(str(exc).partition("; use")[0]) from None
    if any(isinstance(v, (dict, list)) for v in level):
        raise yaml.YAMLError("nested too deeply")
    return value


def _at(text: str, index: int) -> str:
    """The line and column of character ``index`` of ``text``. YAML breaks
    lines where `str.splitlines` does, in the characters YAML takes."""
    lines = (text[:index] + "^").splitlines()
    return f"line {len(lines)}, column {len(lines[-1])}"


def _yaml_error(path: str | Path, exc: yaml.YAMLError, text: str) -> ConfigurationError:
    """One line naming the file (or the file and ``--set`` key) of YAML
    ``text``, where in ``text`` the parser stopped and why. The loader's
    own text spans several lines and names "<unicode string>", and libyaml
    puts the end of a last line without a line break on the next line."""
    if isinstance(exc, yaml.reader.ReaderError):
        # PyYAML counts the characters before the refused one, libyaml their bytes
        index = exc.position
        if exc.encoding != "unicode":
            index = len(text.encode("utf-8")[:index].decode("utf-8"))
        problem = str(exc).partition("\n")[0]
    elif isinstance(exc, yaml.MarkedYAMLError) and None not in (exc.problem, exc.problem_mark):
        index, problem = exc.problem_mark.index, exc.problem
        if exc.context is not None:
            start = "" if exc.context_mark is None else f" at {_at(text, exc.context_mark.index)}"
            problem += f" ({exc.context}{start})"
    else:
        return ConfigurationError(f"{path}: not valid YAML: {exc}")
    return ConfigurationError(f"{path}, {_at(text, index)}: not valid YAML: {problem}")


# the config dataclass that builds each section
_BUILDERS: dict[str, type] = {
    "numerology": Numerology,
    "ss": SsBurstConfig,
    "csi": CsiRsConfig,
    "gnb": ArrayConfig,
    "ue": ArrayConfig,
    "channel": ChannelParams,
    "power": PowerModel,
    "deployment": Scenario,
    "campaign": CampaignSettings,
}

# the key table: every dotted key with the domain that checks its value,
# the declared one of the field that takes it, and its default (an enum's
# as its value); an array's size has no field default, and the ends differ
_DOMAINS: dict[str, Domain] = {"scenario_id": SCENARIO_ID} | {
    f"{section}.{name}": domain
    for section, cls in _BUILDERS.items()
    for name, domain in declared_domains(cls)
}
_DEFAULTS: dict[str, Any] = {
    key: getattr(d.default, "value", d.default) for key, d in _DOMAINS.items()
} | {"gnb.elements": 64, "ue.elements": 4}

# keys a sweep cannot vary: the id, and the campaign block, which applies
# to the whole file; a sweep may vary every other key
_UNSWEPT = ("scenario_id", "campaign")
_SWEPT_KEYS = {key for key in _DEFAULTS if key.partition(".")[0] not in _UNSWEPT}


@dataclass(frozen=True)
class ScenarioFile:
    """One parsed scenario file: expanded scenarios plus campaign knobs.

    ``effective`` is the file after defaults and overrides, itself a
    scenario file that builds the same scenarios and campaign: each
    unswept key in its section as the model reads it, ``campaign`` as
    resolved, the ``scenario_id`` given (or ``None``) and, when the file
    sweeps, a ``sweep`` section of each swept key's values as written
    (one that is no YAML scalar as stored), which the scenario ids carry.
    """

    scenarios: tuple[Scenario, ...]
    campaign: CampaignSettings
    effective: dict[str, Any]


def _err(source: str, path: str, msg: str) -> ConfigurationError:
    return ConfigurationError(f"{source}: {path}: {msg}")


def _flatten(data: Mapping[Any, Any], source: str) -> dict[str, Any]:
    """Dotted ``section.key`` paths of a nested mapping; a ``null`` section
    adds none."""
    flat: dict[str, Any] = {}
    sections = ("scenario_id", *_BUILDERS, "sweep")
    for name, value in data.items():
        name = str(name)
        if name not in sections:
            raise _err(source, name, f"unknown section (known: {sorted(sections)})")
        if name == "scenario_id":
            flat[name] = value
        elif isinstance(value, Mapping):
            flat.update((f"{name}.{key}", v) for key, v in value.items())
        elif value is not None:
            raise _err(source, name, "must be a mapping")
    return flat


def _check_path(source: str, path: str, shown: str, keys: Collection[str] = _DEFAULTS) -> None:
    """Reject a dotted path that is not one of ``keys``, by default the key
    table; ``shown`` is the name the error gives it."""
    if path not in keys:
        section = path.partition(".")[0] + "."
        known = [k.removeprefix(section) for k in keys if k.startswith(section)]
        raise _err(source, shown, f"unknown key (known: {sorted(known or keys)})")


def _coerce(source: str, path: str, shown: str, value: Any) -> Any:
    """``value`` as the scenario takes it, checked by the domain of key
    ``path``, whose refusal names ``shown``. An int key takes a whole float,
    and a float key a numeric string (YAML 1.1 reads 4.0e8 as one) and
    stores a float; an enum key stores its member's value."""
    domain = _DOMAINS[path]
    if domain.kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    elif domain.kind is float and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass  # the domain refuses it
    stored = domain.check(f"{source}: {shown}", value)
    return stored.value if isinstance(stored, Enum) else stored


def _overrides(overrides: Sequence[str], source: str) -> dict[str, Any]:
    """Values of ``section.key=value`` items by dotted path, each value read
    as YAML."""
    flat: dict[str, Any] = {}
    for item in overrides:
        path, eq, raw = item.partition("=")
        if not eq:
            raise _err(source, item, "override must look like section.key=value")
        path, raw = path.strip(), raw.strip()
        try:
            flat[path] = _load_yaml(raw)
        except (yaml.reader.ReaderError, UnicodeEncodeError):
            # a character YAML does not take, shown in the value itself;
            # libyaml takes UTF-8 only, and an argument that is not UTF-8
            # reaches Python as lone surrogates
            raise _err(source, path, f"not a valid YAML value: {raw!r}") from None
        except yaml.YAMLError as exc:
            raise _yaml_error(f"{source}: {path}", exc, raw) from None
    return flat


def _nested(flat: Mapping[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for path, value in flat.items():
        section, _, key = path.partition(".")
        if key:
            out.setdefault(section, {})[key] = value
        else:
            out[section] = value
    return out


# what builds each section that a scenario holds as an object, in the
# order a scenario is checked
_PARTS = {name: cls for name, cls in _BUILDERS.items() if name not in ("deployment", "campaign")}


def _build_scenario(
    cfg: Mapping[str, Any], label: Optional[str], suffix: str, source: str, parts: dict
) -> Scenario:
    """The scenario of the sections ``cfg``, whose id is ``label`` (or the
    one its geometry gives) followed by ``suffix``. ``parts`` holds each
    section's object by the section's name and values, so the scenarios of
    one file build each distinct section once."""

    def part(name: str) -> Any:
        key = (name, *cfg[name].items())
        if key not in parts:
            try:
                parts[key] = _PARTS[name](**cfg[name])
            except ConfigurationError as exc:
                if name not in ("gnb", "ue"):
                    raise
                # an array's errors name the bare key
                raise ConfigurationError(f"{name}.{exc}") from None
        return parts[key]

    try:
        return Scenario(
            **{name: part(name) for name in _PARTS},
            **cfg["deployment"],
            label=label,
            id_suffix=suffix,
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from None


def scenario_file_from_dict(
    data: Optional[Mapping[str, Any]],
    source: str = "<dict>",
    overrides: Sequence[str] = (),
) -> ScenarioFile:
    """Scenarios and campaign settings of one scenario file's data.

    ``overrides`` are ``section.key=value`` items that win over the file.
    One that sets a key the sweep also sets would be replaced by every
    variant's swept value, so it is rejected.
    """
    forced = _overrides(overrides, source)
    raw = dict(_DEFAULTS)
    swept: dict[str, Any] = {}
    for path, value in {**_flatten(data or {}, source), **forced}.items():
        section, _, key = path.partition(".")
        if section == "sweep":
            swept[key] = value
        else:
            _check_path(source, path, path)
            raw[path] = value
    for path in forced:
        if path in swept:
            raise _err(
                source,
                path,
                f"set by --set but swept by sweep.{path}, whose values "
                f"replace it; use --set sweep.{path}=[...] instead",
            )

    # each swept key's (value as shown, value as its type) pairs; a value is
    # shown as given when it is a scalar that YAML gives, else as stored
    axes: dict[str, list[tuple[Any, Any]]] = {}
    for key in sorted(swept):
        shown = f"sweep.{key}"
        if key.partition(".")[0] in _UNSWEPT:
            raise _err(source, shown, "cannot sweep this section")
        _check_path(source, key, shown, _SWEPT_KEYS)
        values = swept[key]
        if not isinstance(values, (list, tuple)) or not values:
            raise _err(source, shown, "must map to a non-empty list")
        stored = [_coerce(source, key, shown, v) for v in values]
        if len(set(stored)) < len(stored):
            raise _err(source, shown, f"repeats a value in {values!r}")
        axes[key] = [(v if type(v) in (str, int, float) else t, t) for v, t in zip(values, stored)]
    count = math.prod(map(len, axes.values()))
    if count > _MAX_SCENARIOS:
        raise _err(
            source, "sweep", f"expands to {count} scenarios; at most {_MAX_SCENARIOS} are supported"
        )

    unswept = _nested({p: _coerce(source, p, p, v) for p, v in raw.items() if p not in swept})
    campaign = CampaignSettings(**unswept["campaign"])

    # each distinct section's object, built once for the whole file
    parts: dict[tuple, Any] = {}
    scenarios = []
    for combo in itertools.product(*axes.values()):
        suffix = "__".join(f"{key}={v}" for key, (v, _) in zip(axes, combo))
        cfg = dict(unswept)
        for key, (_, t) in zip(axes, combo):
            name, _, field = key.partition(".")
            cfg[name] = {**cfg.get(name, {}), field: t}
        scenarios.append(_build_scenario(cfg, unswept["scenario_id"], suffix, source, parts))
    effective = {**unswept, "campaign": dict(vars(campaign))}
    if swept:
        effective["sweep"] = {key: [v for v, _ in axis] for key, axis in axes.items()}
    return ScenarioFile(scenarios=tuple(scenarios), campaign=campaign, effective=effective)


def parse_scenario(
    path: str | Path, overrides: Sequence[str] = ()
) -> ScenarioFile:
    """Parse and validate one scenario file.

    Raises:
        ConfigurationError: text that is not UTF-8, invalid YAML, unknown
            keys, or any constraint violation; the message carries the
            file and dotted key path.
        OSError: unreadable path (the CLI maps this to its IO exit code).
    """
    p = Path(path)
    try:
        # a BOM is dropped: libyaml counts no character for it, PyYAML one
        text = p.read_text(encoding="utf-8-sig")
        data = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise _yaml_error(p, exc, text) from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{p}: {exc}") from None
    if data is not None and not isinstance(data, dict):
        raise ConfigurationError(f"{p}: scenario file must be a mapping")
    return scenario_file_from_dict(data, source=str(p), overrides=overrides)

"""Scenario files: YAML schema, defaults, overrides and sweep expansion.

A scenario file is a nested mapping of the sections in ``_SCHEMA``,
which holds every key's default (the README lists them), read off the
config dataclass that builds the section where there is one; every key
is optional. File keys, ``--set section.key=value`` overrides and the keys
of the ``sweep`` section all name one flat table of dotted keys and pass
one check: an unknown key is rejected with its dotted path, and so is a
value of the wrong type, including ``null`` for a key whose default is
not ``null``.

The ``sweep`` section maps dotted keys to value lists and expands to the
Cartesian product of scenarios; each variant's id gets a deterministic
suffix. The campaign block applies to the whole file, so its keys
cannot be swept.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import yaml

from .codebook import Architecture, ArrayConfig, PowerModel
from .errors import ConfigurationError, DomainError
from .evaluation import MAX_RUNS
from .frame import CsiRsConfig, SsBurstConfig, make_numerology
from .link import ChannelParams
from .procedures import DeploymentMode, Scenario

# libyaml's C parser reads a scenario file several times faster than
# PyYAML's Python one, to the same values; a PyYAML built without libyaml
# has only the Python one.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# a scenario file nests collections three deep (the file, a section, a
# key's list of values), and a --set value is one of those values
_MAX_DEPTH = 3


class _TooDeep(yaml.YAMLError):
    def __str__(self) -> str:
        return "nested too deeply"


def _load_yaml(text: str) -> Any:
    """The value of YAML ``text`` read by ``_LOADER``.

    Text that nests collections deeper than ``_MAX_DEPTH`` raises
    `_TooDeep`, a `yaml.YAMLError`. Its events are counted before any
    node is built, because libyaml composes nodes by recursion on the C
    stack (an 8 MB stack overflows near 30,000 levels). The loaded value
    is checked too, because an alias nests a value deeper than the text
    that names it. So the checks after loading, whose messages show the
    value, never recurse far.
    """
    depth = 0
    for event in yaml.parse(text, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                raise _TooDeep()
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    value = yaml.load(text, Loader=_LOADER)
    # the values inside _MAX_DEPTH collections must all be scalars
    inside = [value]
    for _ in range(_MAX_DEPTH):
        inside = [
            v
            for c in inside
            if isinstance(c, (dict, list))
            for v in (c.values() if isinstance(c, dict) else c)
        ]
    if any(isinstance(v, (dict, list)) for v in inside):
        raise _TooDeep()
    return value


def _at(mark: yaml.Mark) -> str:
    return f"line {mark.line + 1}, column {mark.column + 1}"


def _yaml_error(path: Path, exc: yaml.YAMLError) -> ConfigurationError:
    """One line naming the file, where the parser stopped and why. The
    loader's own text spans several lines and names "<unicode string>",
    because it reads the decoded text, not the file."""
    marked = isinstance(exc, yaml.MarkedYAMLError)
    if not marked or exc.problem is None or exc.problem_mark is None:
        return ConfigurationError(f"{path}: not valid YAML: {exc}")
    problem = exc.problem
    if exc.context is not None:
        start = "" if exc.context_mark is None else f" at {_at(exc.context_mark)}"
        problem += f" ({exc.context}{start})"
    return ConfigurationError(
        f"{path}, {_at(exc.problem_mark)}: not valid YAML: {problem}"
    )


def _defaults(cls: type, *names: str) -> dict[str, Any]:
    """The field defaults of config dataclass ``cls``, or of its fields
    ``names``; an enum's default as its value."""
    fields = [f for f in dataclasses.fields(cls) if f.name in names or not names]
    return {f.name: getattr(f.default, "value", f.default) for f in fields}


# the sections and their keys with their defaults: a section that a config
# dataclass builds takes that dataclass's defaults
_SCHEMA: dict[str, Optional[dict[str, Any]]] = {
    "scenario_id": None,
    "numerology": {"n": 3},
    "ss": _defaults(SsBurstConfig),
    "csi": _defaults(CsiRsConfig),
    "gnb": {"elements": 64, "arch": "analog", "k_bf": None},
    "ue": {"elements": 4, "arch": "analog", "k_bf": None},
    "channel": _defaults(ChannelParams),
    "power": _defaults(PowerModel),
    "deployment": _defaults(
        Scenario, "mode", "lte_latency_ms", "carrier_ghz", "omega_br_window_ms"
    ),
    "campaign": {"n_runs": 10_000, "seed": 42, "horizon_ms": 500.0},
    "sweep": {},
}

# keys a sweep cannot vary: the id, and the campaign block, which applies
# to the whole file
_UNSWEPT = ("scenario_id", "campaign")


@dataclass(frozen=True)
class CampaignSettings:
    n_runs: int
    seed: int
    horizon_ms: float


@dataclass(frozen=True)
class ScenarioFile:
    """One parsed scenario file: expanded scenarios plus campaign knobs."""

    scenarios: tuple[Scenario, ...]
    campaign: CampaignSettings
    source: str
    # per scenario, the sections it was built from and its id; the campaign
    # applies to the whole file and is not repeated here
    effective: tuple[dict[str, Any], ...]


def _err(source: str, path: str, msg: str) -> ConfigurationError:
    return ConfigurationError(f"{source}: {path}: {msg}")


def _flatten(data: Mapping[Any, Any], source: str) -> dict[str, Any]:
    """Dotted ``section.key`` paths of a nested mapping; a ``null`` section
    adds none."""
    flat: dict[str, Any] = {}
    for name, value in data.items():
        name = str(name)
        if name not in _SCHEMA:
            raise _err(source, name, f"unknown section (known: {sorted(_SCHEMA)})")
        if _SCHEMA[name] is None:
            flat[name] = value
        elif isinstance(value, Mapping):
            flat.update((f"{name}.{key}", v) for key, v in value.items())
        elif value is not None:
            raise _err(source, name, "must be a mapping")
    return flat


# the flat key table: every dotted key with its default and type; the
# type is the default's, except for the keys that default to null
_DEFAULTS: dict[str, Any] = _flatten(_SCHEMA, "<schema>")
_TYPES: dict[str, type] = {
    path: type(value) for path, value in _DEFAULTS.items() if value is not None
} | {
    "scenario_id": str,
    "gnb.k_bf": int,
    "ue.k_bf": int,
    "deployment.lte_latency_ms": float,
}


def _check_path(source: str, path: str, shown: str) -> None:
    """Reject a dotted path that is not in the key table; ``shown`` is the
    name the error gives it."""
    if path not in _DEFAULTS:
        known = _SCHEMA.get(path.partition(".")[0]) or _DEFAULTS
        raise _err(source, shown, f"unknown key (known: {sorted(known)})")


def _coerce(source: str, path: str, shown: str, value: Any) -> Any:
    """``value`` as the type of key ``path``, or an error naming ``shown``."""
    if value is None:
        if _DEFAULTS[path] is not None:
            raise _err(source, shown, "must not be null")
        return None
    kind = _TYPES[path]
    if kind is int:
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())
        ):
            raise _err(source, shown, f"expected an integer, got {value!r}")
        return int(value)
    if kind is float:
        # YAML 1.1 reads 4.0e8 as a string; float() takes it
        try:
            number = None if isinstance(value, bool) else float(value)
        except (TypeError, ValueError):
            number = None
        except OverflowError:
            number = math.inf
        if number is None:
            raise _err(source, shown, f"expected a number, got {value!r}")
        if not math.isfinite(number):
            raise _err(source, shown, f"must be finite, got {value!r}")
        return number
    if not isinstance(value, str):
        raise _err(source, shown, f"expected a string, got {value!r}")
    return value


def _overrides(overrides: Sequence[str], source: str) -> dict[str, Any]:
    """Values of ``section.key=value`` items by dotted path, each value read
    as YAML."""
    flat: dict[str, Any] = {}
    for item in overrides:
        path, eq, raw = item.partition("=")
        if not eq:
            raise _err(source, item, "override must look like section.key=value")
        path = path.strip()
        try:
            flat[path] = _load_yaml(raw.strip())
        except _TooDeep:
            raise _err(source, path, "YAML value nested too deeply") from None
        except (yaml.YAMLError, UnicodeEncodeError):
            # libyaml takes UTF-8 only, and an argument that is not UTF-8
            # reaches Python as lone surrogates
            raise _err(source, path, f"not a valid YAML value: {raw.strip()!r}") from None
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


def _member(enum: Any, value: str, path: str) -> Any:
    try:
        return enum(value)
    except ValueError:
        raise ConfigurationError(
            f"{path}={value!r}: must be one of {[m.value for m in enum]}"
        ) from None


def _build_scenario(cfg: Mapping[str, Any], label: Optional[str], source: str) -> Scenario:
    def array_of(name: str) -> ArrayConfig:
        sec = cfg[name]
        arch = _member(Architecture, sec["arch"], f"{name}.arch")
        try:
            return ArrayConfig(elements=sec["elements"], arch=arch, k_bf=sec["k_bf"])
        except ConfigurationError as exc:
            raise ConfigurationError(f"{name}.{exc}") from None

    dep = cfg["deployment"]
    try:
        mode = _member(DeploymentMode, dep["mode"], "deployment.mode")
        return Scenario(
            numerology=make_numerology(cfg["numerology"]["n"]),
            ss=SsBurstConfig(**cfg["ss"]),
            csi=CsiRsConfig(**cfg["csi"]),
            gnb=array_of("gnb"),
            ue=array_of("ue"),
            channel=ChannelParams(**cfg["channel"]),
            power=PowerModel(**cfg["power"]),
            **{**dep, "mode": mode},
            label=label,
        )
    except (ConfigurationError, DomainError) as exc:
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

    # each axis lists (key, value as given, value as its type)
    axes = []
    for key in sorted(swept):
        shown = f"sweep.{key}"
        if key.partition(".")[0] in _UNSWEPT:
            raise _err(source, shown, "cannot sweep this section")
        _check_path(source, key, shown)
        values = swept[key]
        if not isinstance(values, (list, tuple)) or not values:
            raise _err(source, shown, "must map to a non-empty list")
        axis = [(key, v, _coerce(source, key, shown, v)) for v in values]
        if len({t for _, _, t in axis}) < len(axis):
            raise _err(source, shown, f"repeats a value in {values!r}")
        axes.append(axis)

    typed = {p: _coerce(source, p, p, v) for p, v in raw.items() if p not in swept}
    keys = ("n_runs", "seed", "horizon_ms")
    campaign = CampaignSettings(**{k: typed.pop(f"campaign.{k}") for k in keys})
    if not 1 <= campaign.n_runs <= MAX_RUNS:
        cap = f"must be in 1..{MAX_RUNS} (evaluation.MAX_RUNS)"
        raise _err(source, "campaign.n_runs", cap)
    if campaign.seed < 0:
        raise _err(source, "campaign.seed", "must be non-negative")
    if campaign.horizon_ms <= 0:
        raise _err(source, "campaign.horizon_ms", "must be positive")

    given_id = typed["scenario_id"]
    scenarios = []
    effectives = []
    for combo in itertools.product(*axes):
        suffix = "__".join(f"{key.partition('.')[2]}={v}" for key, v, _ in combo)
        label = f"{given_id}__{suffix}" if suffix and given_id else given_id
        cfg = _nested({**typed, **{key: t for key, _, t in combo}})
        sc = _build_scenario(cfg, label, source)
        if suffix and not given_id:
            sc = dataclasses.replace(sc, label=f"{sc.scenario_id}__{suffix}")
        scenarios.append(sc)
        cfg["scenario_id"] = sc.scenario_id
        effectives.append(cfg)
    return ScenarioFile(
        scenarios=tuple(scenarios),
        campaign=campaign,
        source=source,
        effective=tuple(effectives),
    )


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
        data = _load_yaml(p.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise _yaml_error(p, exc) from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{p}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{p}: scenario file must be a mapping")
    return scenario_file_from_dict(data, source=str(p), overrides=overrides)

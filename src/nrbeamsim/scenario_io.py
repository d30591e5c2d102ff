"""Scenario files: YAML schema, defaults, overrides and sweep expansion.

A scenario file is a nested mapping with the sections below; every key
is optional and falls back to its default. Unknown keys are rejected
with their dotted path so typos do not silently become defaults, and so
is ``null`` for a key whose default is not ``null``.

Sections and defaults::

    scenario_id: <derived>
    numerology: {n: 3}
    ss:         {n_ss: 64, t_ss_ms: 20}
    csi:        {t_csi_slots: 5, n_symbols: 1, bandwidth_rb: 50,
                 delta_t_symbols: 0, delta_f_rb: 0}
    gnb:        {elements: 64, arch: analog, k_bf: null}
    ue:         {elements: 4, arch: analog, k_bf: null}
    channel:    {pl_intercept_db: 72, pl_exponent: 2.92,
                 shadowing_sigma_db: 8.7, tx_power_dbm: 30,
                 noise_figure_db: 5, bandwidth_hz: 4.0e8,
                 detection_threshold_db: -5, cell_radius_m: 150,
                 side_lobe_floor_db: -10}
    power:      {c_chain_w: 16.0896, p0_w: 16.0507, c_ps_w: 0.0585}
    deployment: {mode: SA, lte_latency_ms: null, carrier_ghz: 28,
                 omega_br_window_ms: 200}
    campaign:   {n_runs: 10000, seed: 42, horizon_ms: 500}
    sweep:      {<dotted.key>: [values, ...], ...}

The ``sweep`` section maps dotted keys to value lists and expands to the
Cartesian product of scenarios; each variant's id gets a deterministic
suffix. The campaign block applies to the whole file, so its keys
cannot be swept. ``--set key=value`` overrides use the same dotted paths.
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
from .frame import CsiRsConfig, SsBurstConfig, make_numerology
from .link import ChannelParams
from .procedures import DeploymentMode, Scenario

_SCHEMA: dict[str, Optional[dict[str, Any]]] = {
    "scenario_id": None,
    "numerology": {"n": 3},
    "ss": {"n_ss": 64, "t_ss_ms": 20.0},
    "csi": {
        "t_csi_slots": 5,
        "n_symbols": 1,
        "bandwidth_rb": 50,
        "delta_t_symbols": 0,
        "delta_f_rb": 0,
    },
    "gnb": {"elements": 64, "arch": "analog", "k_bf": None},
    "ue": {"elements": 4, "arch": "analog", "k_bf": None},
    "channel": {
        "pl_intercept_db": 72.0,
        "pl_exponent": 2.92,
        "shadowing_sigma_db": 8.7,
        "tx_power_dbm": 30.0,
        "noise_figure_db": 5.0,
        "bandwidth_hz": 400e6,
        "detection_threshold_db": -5.0,
        "cell_radius_m": 150.0,
        "side_lobe_floor_db": -10.0,
    },
    "power": {
        "c_chain_w": 16.0896,
        "p0_w": 16.0507,
        "c_ps_w": 0.0585,
    },
    "deployment": {
        "mode": "SA",
        "lte_latency_ms": None,
        "carrier_ghz": 28.0,
        "omega_br_window_ms": 200.0,
    },
    "campaign": {"n_runs": 10_000, "seed": 42, "horizon_ms": 500.0},
    "sweep": {},
}

_INT_KEYS = {
    ("numerology", "n"),
    ("ss", "n_ss"),
    ("csi", "t_csi_slots"),
    ("csi", "n_symbols"),
    ("csi", "bandwidth_rb"),
    ("csi", "delta_t_symbols"),
    ("csi", "delta_f_rb"),
    ("gnb", "elements"),
    ("gnb", "k_bf"),
    ("ue", "elements"),
    ("ue", "k_bf"),
    ("campaign", "n_runs"),
    ("campaign", "seed"),
}

_FLOAT_KEYS = {
    (section, key)
    for section, defaults in _SCHEMA.items()
    if defaults
    for key, value in defaults.items()
    if isinstance(value, float)
} | {("deployment", "lte_latency_ms")}


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
    effective: tuple[dict[str, Any], ...]


def _err(source: str, path: str, msg: str) -> ConfigurationError:
    return ConfigurationError(f"{source}: {path}: {msg}")


def _check_keys(data: Mapping[str, Any], source: str) -> None:
    for section, value in data.items():
        if section not in _SCHEMA:
            raise _err(source, section, f"unknown section (known: {sorted(_SCHEMA)})")
        if section in ("scenario_id", "sweep"):
            continue
        if value is None:
            continue
        if not isinstance(value, Mapping):
            raise _err(source, section, "must be a mapping")
        known = _SCHEMA[section]
        assert known is not None
        for key in value:
            if key not in known:
                raise _err(
                    source, f"{section}.{key}", f"unknown key (known: {sorted(known)})"
                )


def _merged(data: Mapping[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for section, defaults in _SCHEMA.items():
        if section == "scenario_id":
            out[section] = data.get(section)
            continue
        if section == "sweep":
            out[section] = dict(data.get(section) or {})
            continue
        assert defaults is not None
        merged = dict(defaults)
        given = data.get(section) or {}
        merged.update(given)
        out[section] = merged
    return out


def _coerce(source: str, section: str, key: str, value: Any) -> Any:
    if value is None:
        if _SCHEMA[section][key] is not None:
            raise _err(source, f"{section}.{key}", "must not be null")
        return None
    if (section, key) in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _err(source, f"{section}.{key}", f"expected an integer, got {value!r}")
        if isinstance(value, float):
            if not value.is_integer():
                raise _err(
                    source, f"{section}.{key}", f"expected an integer, got {value!r}"
                )
            value = int(value)
        return value
    if (section, key) in _FLOAT_KEYS:
        # YAML 1.1 reads 4.0e8 as a string; float() takes it, as it did before
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = None
        if number is None or isinstance(value, bool):
            raise _err(source, f"{section}.{key}", f"expected a number, got {value!r}")
        if not math.isfinite(number):
            raise _err(source, f"{section}.{key}", f"must be finite, got {value!r}")
    return value


def _parse_scalar(text: str) -> Any:
    return yaml.safe_load(text)


def apply_overrides(
    data: dict[str, Any], overrides: Sequence[str], source: str = "<override>"
) -> dict[str, Any]:
    """Apply ``section.key=value`` overrides onto raw scenario data.

    An override of a key the sweep also sets would be replaced by every
    variant's swept value, so it is rejected.
    """
    out = {k: (dict(v) if isinstance(v, Mapping) else v) for k, v in data.items()}
    set_paths = []
    for item in overrides:
        if "=" not in item:
            raise _err(source, item, "override must look like section.key=value")
        path, _, raw = item.partition("=")
        parts = path.strip().split(".", 1)
        value = _parse_scalar(raw.strip())
        if len(parts) == 1 and parts[0] == "scenario_id":
            out["scenario_id"] = value
            continue
        if len(parts) != 2:
            raise _err(source, path, "override path must be section.key")
        section, key = parts
        if section not in _SCHEMA or section in ("scenario_id",):
            raise _err(source, path, f"unknown section (known: {sorted(_SCHEMA)})")
        if section == "sweep":
            # sweep keys are themselves dotted (sweep.ss.n_ss=[8, 64])
            out.setdefault("sweep", {})[key] = value
            continue
        if "." in key:
            raise _err(source, path, "override path must be section.key")
        known = _SCHEMA[section]
        assert known is not None
        if key not in known:
            raise _err(source, path, f"unknown key (known: {sorted(known)})")
        out.setdefault(section, {})
        if out[section] is None:
            out[section] = {}
        out[section][key] = value
        set_paths.append(f"{section}.{key}")
    swept = out.get("sweep")
    if isinstance(swept, Mapping):
        for path in set_paths:
            if path in swept:
                raise _err(
                    source,
                    path,
                    f"set by --set but swept by sweep.{path}, whose values "
                    f"replace it; use --set sweep.{path}=[...] instead",
                )
    return out


def _build_scenario(cfg: Mapping[str, Any], source: str) -> Scenario:
    def section(name: str) -> dict[str, Any]:
        sec = dict(cfg[name])
        return {
            k: _coerce(source, name, k, v) for k, v in sec.items()
        }

    num_cfg = section("numerology")
    ss_cfg = section("ss")
    csi_cfg = section("csi")
    gnb_cfg = section("gnb")
    ue_cfg = section("ue")
    ch_cfg = section("channel")
    pw_cfg = section("power")
    dep_cfg = section("deployment")

    try:
        num = make_numerology(num_cfg["n"])
        ss = SsBurstConfig(n_ss=ss_cfg["n_ss"], t_ss_ms=float(ss_cfg["t_ss_ms"]))
        csi = CsiRsConfig(**csi_cfg)

        def array_of(sec: dict[str, Any], name: str) -> ArrayConfig:
            try:
                arch = Architecture(sec["arch"])
            except ValueError:
                raise ConfigurationError(
                    f"{name}.arch={sec['arch']!r}: must be one of "
                    f"{[a.value for a in Architecture]}"
                )
            try:
                return ArrayConfig(
                    elements=sec["elements"], arch=arch, k_bf=sec["k_bf"]
                )
            except ConfigurationError as exc:
                raise ConfigurationError(f"{name}.{exc}") from None

        gnb = array_of(gnb_cfg, "gnb")
        ue = array_of(ue_cfg, "ue")
        channel = ChannelParams(**{k: float(v) for k, v in ch_cfg.items()})
        power = PowerModel(**{k: float(v) for k, v in pw_cfg.items()})
        try:
            mode = DeploymentMode(dep_cfg["mode"])
        except ValueError:
            raise ConfigurationError(
                f"deployment.mode={dep_cfg['mode']!r}: must be one of "
                f"{[m.value for m in DeploymentMode]}"
            )
        lte = dep_cfg["lte_latency_ms"]
        return Scenario(
            gnb=gnb,
            ue=ue,
            numerology=num,
            ss=ss,
            csi=csi,
            channel=channel,
            power=power,
            mode=mode,
            lte_latency_ms=float(lte) if lte is not None else None,
            carrier_ghz=float(dep_cfg["carrier_ghz"]),
            omega_br_window_ms=float(dep_cfg["omega_br_window_ms"]),
            label=cfg.get("scenario_id"),
        )
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"{source}: {exc}") from None


def _expand_sweep(
    merged: dict[str, Any], source: str
) -> list[tuple[dict[str, Any], str]]:
    sweep: Mapping[str, Any] = merged.get("sweep") or {}
    if not sweep:
        return [(merged, "")]
    keys = sorted(sweep)
    value_lists = []
    for k in keys:
        parts = k.split(".")
        if len(parts) != 2:
            raise _err(source, f"sweep.{k}", "sweep keys must be section.key")
        section, key = parts
        known = _SCHEMA.get(section)
        if section in ("scenario_id", "sweep", "campaign") or known is None:
            raise _err(source, f"sweep.{k}", "cannot sweep this section")
        if key not in known:
            raise _err(source, f"sweep.{k}", f"unknown key (known: {sorted(known)})")
        values = sweep[k]
        if not isinstance(values, (list, tuple)) or not values:
            raise _err(source, f"sweep.{k}", "must map to a non-empty list")
        value_lists.append(list(values))

    variants = []
    for combo in itertools.product(*value_lists):
        cfg = {
            k: (dict(v) if isinstance(v, Mapping) else v) for k, v in merged.items()
        }
        suffix_parts = []
        for (dotted, value) in zip(keys, combo):
            section, key = dotted.split(".")
            cfg[section][key] = value
            suffix_parts.append(f"{key}={value}")
        variants.append((cfg, "__".join(suffix_parts)))
    return variants


def scenario_file_from_dict(
    data: Optional[Mapping[str, Any]],
    source: str = "<dict>",
    overrides: Sequence[str] = (),
) -> ScenarioFile:
    data = dict(data or {})
    data = apply_overrides(data, overrides, source)
    _check_keys(data, source)
    merged = _merged(data)

    camp = {
        k: _coerce(source, "campaign", k, v) for k, v in merged["campaign"].items()
    }
    if camp["n_runs"] < 1:
        raise _err(source, "campaign.n_runs", "must be at least 1")
    if camp["seed"] < 0:
        raise _err(source, "campaign.seed", "must be non-negative")
    if camp["horizon_ms"] <= 0:
        raise _err(source, "campaign.horizon_ms", "must be positive")
    campaign = CampaignSettings(
        n_runs=camp["n_runs"],
        seed=camp["seed"],
        horizon_ms=float(camp["horizon_ms"]),
    )

    scenarios = []
    effectives = []
    for cfg, suffix in _expand_sweep(merged, source):
        if suffix and cfg.get("scenario_id"):
            cfg["scenario_id"] = f"{cfg['scenario_id']}__{suffix}"
        sc = _build_scenario(cfg, source)
        if suffix and not cfg.get("scenario_id"):
            sc = dataclasses.replace(sc, label=f"{sc.scenario_id}__{suffix}")
        scenarios.append(sc)
        eff = {k: v for k, v in cfg.items() if k != "sweep"}
        eff["scenario_id"] = sc.scenario_id
        effectives.append(eff)
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
        ConfigurationError: invalid YAML, unknown keys, or any constraint
            violation; the message carries the file and dotted key path.
        OSError: unreadable path (the CLI maps this to its IO exit code).
    """
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{p}: not valid YAML: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"{p}: scenario file must be a mapping")
    return scenario_file_from_dict(data, source=str(p), overrides=overrides)

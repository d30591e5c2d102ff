"""Every config and report field declares its domain, and one check
reads them all."""
from __future__ import annotations

import dataclasses
import math
import sys
from functools import cache

import numpy as np
import pytest

from conftest import make_scenario
from nrbeamsim import scenario_io
from nrbeamsim.codebook import ArrayConfig, PowerModel
from nrbeamsim.errors import ConfigurationError, declared_domains
from nrbeamsim.evaluation import CampaignSettings, MetricStat, MetricsReport, estimate_metrics
from nrbeamsim.frame import CsiRsConfig, Numerology, SsBurstConfig
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import Scenario
from nrbeamsim.scenario_io import scenario_file_from_dict

# the config dataclass that builds each scenario-file section
SECTIONS = {
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
CONFIGS = sorted(set(SECTIONS.values()), key=lambda cls: cls.__name__)
# with the classes of a report, which checks its stats' fields too
CLASSES = CONFIGS + [MetricStat, MetricsReport]

# the fields no domain describes: a scenario's nested configs, which check
# themselves, and its id's label and suffix; a report's stats
UNDECLARED = {
    (Scenario, name)
    for name in (
        "gnb", "ue", "ss", "csi", "channel", "power", "numerology", "label", "id_suffix"
    )
} | {(MetricsReport, name) for name in ("t_ia", "t_tr", "t_br", "t_rlf")}

# a valid value of each config that has a field without a default
REQUIRED = {ArrayConfig: dict(elements=4, arch="hybrid", k_bf=2)}


@cache
def _report() -> MetricsReport:
    return estimate_metrics(
        make_scenario(m_gnb=4, m_ue=1, n_ss=8), CampaignSettings(n_runs=10, seed=1)
    )


def _plain(cls: type) -> object:
    """A valid ``cls``."""
    if cls is Scenario:
        return make_scenario()
    if cls is MetricsReport:
        return _report()
    if cls is MetricStat:
        return _report().t_ia
    return cls(**REQUIRED.get(cls, {}))


def _with(cls: type, name: str, value) -> object:
    """A valid ``cls`` whose field ``name`` is ``value``; a stat's field is
    set in a report's ``t_ia``, because a stat does not check itself."""
    changed = dataclasses.replace(_plain(cls), **{name: value})
    if cls is MetricStat:
        return dataclasses.replace(_report(), t_ia=changed).t_ia
    return changed


def _fields_of(kinds: tuple) -> list:
    """Each ``(cls, name)`` of a config or report field whose domain is of
    ``kinds``."""
    return [
        (cls, name)
        for cls in CLASSES
        for name, domain in declared_domains(cls)
        if domain.kind in kinds
    ]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_config_field_declares_a_domain(cls):
    declared = {name for name, _ in declared_domains(cls)}
    for f in dataclasses.fields(cls):
        assert (f.name in declared) != ((cls, f.name) in UNDECLARED), f.name


def test_every_scenario_key_takes_its_kind_from_its_field():
    # so a new key cannot skip the check of its field's domain: each key but
    # the file's own id is checked by the domain of the field it sets
    domains = {
        f"{section}.{name}": domain
        for section, cls in SECTIONS.items()
        for name, domain in declared_domains(cls)
    }
    keys = set(scenario_io._DEFAULTS) - {"scenario_id"}
    assert keys == set(domains)
    assert {key: scenario_io._DOMAINS[key] for key in keys} == domains


@pytest.mark.parametrize(
    "section, name",
    [
        (section, name)
        for section, cls in SECTIONS.items()
        for name, domain in declared_domains(cls)
        if domain.kind is int
    ],
)
@pytest.mark.parametrize("integer", [np.int64, np.uint16])
def test_an_integral_number_is_stored_as_an_int(section, name, integer):
    # ArrayConfig, SsBurstConfig and CsiRsConfig once refused numpy
    # integers that CampaignSettings took, and a scenario file refused them
    # for every key
    cls = SECTIONS[section]
    plain = cls(**REQUIRED.get(cls, {}))
    given = {**REQUIRED.get(cls, {}), name: integer(getattr(plain, name))}
    widened = cls(**given)
    assert widened == plain
    assert type(getattr(widened, name)) is int
    sf = scenario_file_from_dict({section: given})
    read = sf.campaign if section == "campaign" else getattr(sf.scenarios[0], section)
    assert read == plain
    assert type(getattr(read, name)) is int


@pytest.mark.parametrize(
    "cls, name", _fields_of((float,)), ids=lambda p: getattr(p, "__name__", p)
)
def test_an_int_beyond_float_range_is_refused_by_its_rule(cls, name):
    # 10**400 has no float, so math.isfinite cannot take it
    domain = dict(declared_domains(cls))[name]
    with pytest.raises(ConfigurationError) as refused:
        _with(cls, name, 10**400)
    assert str(refused.value).endswith(f"{name}=1{'0' * 400}: must be {domain.rule()}")


@pytest.mark.parametrize(
    "cls, name", _fields_of((float,)), ids=lambda p: getattr(p, "__name__", p)
)
def test_a_float_field_stores_an_int_as_a_float(cls, name):
    # a whole number in the domain, given as an int; the config classes
    # once stored it as given, so an equal config could hold 20 or 20.0
    domain = dict(declared_domains(cls))[name]
    value = int(domain.among[-1]) if domain.among else math.ceil(getattr(_plain(cls), name))
    stored = getattr(_with(cls, name, value), name)
    assert type(stored) is float and stored == value


def test_an_int_beyond_float_range_names_its_section():
    refusal = r"^channel\.tx_power_dbm=10+: must be finite$"
    with pytest.raises(ConfigurationError, match=refusal):
        ChannelParams(tx_power_dbm=10**400)


@pytest.mark.parametrize(
    "cls, name", _fields_of((int, float)), ids=lambda p: getattr(p, "__name__", p)
)
def test_an_int_past_the_digit_limit_is_refused_by_its_rule(cls, name):
    # repr cannot print an int of more digits than the interpreter's limit
    domain = dict(declared_domains(cls))[name]
    with pytest.raises(ConfigurationError) as refused:
        _with(cls, name, 10**5000)
    limit = sys.get_int_max_str_digits()
    shown = f"<an integer of over {limit} digits>"
    # a bound refuses it by the domain's rule, and no bound by its size
    unbounded = domain.kind is int and domain.hi is None and not domain.among
    rule = f"at most {limit} digits long" if unbounded else domain.rule()
    assert str(refused.value).endswith(f"{name}={shown}: must be {rule}")


@pytest.mark.parametrize(
    "cls, name", _fields_of((int, float)), ids=lambda p: getattr(p, "__name__", p)
)
@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_no_number(cls, name, value):
    # bool is an int subclass, but no number
    noun = {int: "an integer", float: "a real number"}[dict(declared_domains(cls))[name].kind]
    with pytest.raises(ConfigurationError) as refused:
        _with(cls, name, value)
    assert str(refused.value).endswith(f"{name}={value}: must be {noun}")


@pytest.mark.parametrize(
    "cls, name", _fields_of((str,)), ids=lambda p: getattr(p, "__name__", p)
)
def test_a_string_field_takes_only_a_string(cls, name):
    with pytest.raises(ConfigurationError) as refused:
        _with(cls, name, 7)
    assert str(refused.value).endswith(f"{name}=7: must be a string")

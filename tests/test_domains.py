"""Every config field declares its domain, and one check reads them all."""
from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from conftest import make_scenario
from nrbeamsim import scenario_io
from nrbeamsim.codebook import ArrayConfig, PowerModel
from nrbeamsim.errors import ConfigurationError, declared_domains
from nrbeamsim.evaluation import CampaignSettings
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

# the fields no domain describes: a scenario's nested configs, which check
# themselves, and its id's label and suffix
UNDECLARED = {
    (Scenario, name)
    for name in (
        "gnb", "ue", "ss", "csi", "channel", "power", "numerology", "label", "id_suffix"
    )
}

# a valid value of each config that has a field without a default
REQUIRED = {ArrayConfig: dict(elements=4, arch="hybrid", k_bf=2)}


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
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
    "cls, name",
    [
        (cls, name)
        for cls in CONFIGS
        for name, domain in declared_domains(cls)
        if domain.kind is float
    ],
    ids=lambda p: getattr(p, "__name__", p),
)
def test_an_int_beyond_float_range_is_refused_by_its_rule(cls, name):
    # 10**400 has no float, so math.isfinite cannot take it
    domain = dict(declared_domains(cls))[name]
    plain = make_scenario() if cls is Scenario else cls(**REQUIRED.get(cls, {}))
    with pytest.raises(ConfigurationError) as refused:
        dataclasses.replace(plain, **{name: 10**400})
    assert str(refused.value).endswith(f"{name}=1{'0' * 400}: must be {domain.rule()}")


def test_an_int_beyond_float_range_names_its_section():
    refusal = r"^channel\.tx_power_dbm=10+: must be finite$"
    with pytest.raises(ConfigurationError, match=refusal):
        ChannelParams(tx_power_dbm=10**400)


@pytest.mark.parametrize(
    "cls, name",
    [
        (cls, name)
        for cls in CONFIGS
        for name, domain in declared_domains(cls)
        if domain.kind in (int, float)
    ],
    ids=lambda p: getattr(p, "__name__", p),
)
def test_an_int_past_the_digit_limit_is_refused_by_its_rule(cls, name):
    # repr cannot print an int of more digits than the interpreter's limit
    domain = dict(declared_domains(cls))[name]
    plain = make_scenario() if cls is Scenario else cls(**REQUIRED.get(cls, {}))
    with pytest.raises(ConfigurationError) as refused:
        dataclasses.replace(plain, **{name: 10**5000})
    limit = sys.get_int_max_str_digits()
    shown = f"<an integer of over {limit} digits>"
    # a bound refuses it by the domain's rule, and no bound by its size
    unbounded = domain.kind is int and domain.hi is None and not domain.among
    rule = f"at most {limit} digits long" if unbounded else domain.rule()
    assert str(refused.value).endswith(f"{name}={shown}: must be {rule}")

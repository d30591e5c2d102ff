from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from unittest import mock

import pytest
import yaml

from nrbeamsim import scenario_io
from nrbeamsim.codebook import Architecture, PowerModel
from nrbeamsim.errors import ConfigurationError, declared_domains
from nrbeamsim.evaluation import estimate_metrics
from nrbeamsim.frame import CsiRsConfig, SsBurstConfig
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import DeploymentMode, Scenario
from nrbeamsim.scenario_io import (
    _SCHEMA,
    _overrides,
    parse_scenario,
    scenario_file_from_dict,
)

ROOT = Path(__file__).resolve().parents[1]

FLOAT_KEYS = {
    (section, key)
    for section, defaults in _SCHEMA.items()
    if defaults
    for key, value in defaults.items()
    if isinstance(value, float)
} | {("deployment", "lte_latency_ms")}


def refusal(key: str, value, rule: str) -> str:
    """The pattern of the whole refusal of ``value`` for ``key`` in a dict."""
    return f"^{re.escape(f'<dict>: {key}={value!r}: must be {rule}')}$"


class TestDefaults:
    def test_empty_dict_yields_the_default_scenario(self):
        sf = scenario_file_from_dict({})
        assert len(sf.scenarios) == 1
        sc = sf.scenarios[0]
        assert sc.gnb.elements == 64
        assert sc.gnb.arch is Architecture.ANALOG
        assert sc.ue.elements == 4
        assert sc.numerology.n == 3
        assert sc.ss.n_ss == 64
        assert sc.ss.t_ss_ms == 20.0
        assert sc.csi.t_csi_slots == 5
        assert sc.mode is DeploymentMode.SA
        assert sc.lte_latency_ms is None

    def test_file_defaults_are_the_model_defaults(self):
        sc = scenario_file_from_dict({}).scenarios[0]
        assert sc.channel == ChannelParams()
        assert sc.power == PowerModel()
        assert sc.csi == CsiRsConfig()
        assert sc.ss == SsBurstConfig()
        defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
        for name in ("mode", "lte_latency_ms", "omega_br_window_ms"):
            assert getattr(sc, name) == defaults[name]

    def test_default_campaign(self):
        camp = scenario_file_from_dict({}).campaign
        assert (camp.n_runs, camp.seed) == (10_000, 42)

    def test_none_section_means_defaults(self):
        sf = scenario_file_from_dict({"ss": None})
        assert sf.scenarios[0].ss.n_ss == 64

    def test_partial_section_keeps_other_defaults(self):
        sf = scenario_file_from_dict({"ss": {"n_ss": 8}})
        sc = sf.scenarios[0]
        assert sc.ss.n_ss == 8
        assert sc.ss.t_ss_ms == 20.0

    def test_effective_dict_reflects_merged_config(self):
        sf = scenario_file_from_dict({"ss": {"n_ss": 8}})
        eff = sf.effective
        assert eff["ss"] == {"n_ss": 8, "t_ss_ms": 20.0}
        assert eff["campaign"] == {"n_runs": 10_000, "seed": 42}
        # the id as given, which the scenario derives from its geometry
        assert eff["scenario_id"] is None and "sweep" not in eff
        assert scenario_file_from_dict(eff).scenarios == sf.scenarios

    def test_an_enum_member_is_stored_as_its_value(self):
        # a library caller may pass members where a file holds names
        given = {
            "deployment": {"mode": DeploymentMode.NSA, "lte_latency_ms": 10},
            "gnb": {"arch": Architecture.DIGITAL},
        }
        sf = scenario_file_from_dict(given)
        eff = sf.effective
        assert type(eff["deployment"]["mode"]) is str and eff["deployment"]["mode"] == "NSA"
        assert type(eff["gnb"]["arch"]) is str and eff["gnb"]["arch"] == "digital"
        assert yaml.safe_load(yaml.safe_dump(eff)) == eff
        assert scenario_file_from_dict(eff).scenarios == sf.scenarios
        assert sf.scenarios[0].mode is DeploymentMode.NSA
        assert sf.scenarios[0].gnb.arch is Architecture.DIGITAL


class TestValidationMessages:
    def test_unknown_section_lists_known_ones(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            scenario_file_from_dict({"radio": {}})

    def test_unknown_key_names_its_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"ss\.periodicity"):
            scenario_file_from_dict({"ss": {"periodicity": 20}})

    def test_source_prefix_in_messages(self):
        with pytest.raises(ConfigurationError, match="myfile.yaml"):
            scenario_file_from_dict({"ss": {"n_ss": 0}}, source="myfile.yaml")

    def test_int_keys_reject_fractions(self):
        with pytest.raises(ConfigurationError, match=refusal("gnb.elements", 6.5, "an integer")):
            scenario_file_from_dict({"gnb": {"elements": 6.5}})

    def test_int_keys_accept_whole_floats(self):
        sf = scenario_file_from_dict({"gnb": {"elements": 16.0}})
        assert sf.scenarios[0].gnb.elements == 16

    @pytest.mark.parametrize("section,key", sorted(FLOAT_KEYS))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_float_keys_reject_non_finite(self, section, key, value):
        rule = scenario_io._DOMAINS[f"{section}.{key}"].rule()
        with pytest.raises(ConfigurationError, match=refusal(f"{section}.{key}", value, rule)):
            scenario_file_from_dict({section: {key: value}})

    @pytest.mark.parametrize("value", ["abc", True, [1.0]])
    def test_float_keys_reject_non_numbers(self, value):
        message = refusal("channel.tx_power_dbm", value, "a real number")
        with pytest.raises(ConfigurationError, match=message):
            scenario_file_from_dict({"channel": {"tx_power_dbm": value}})

    def test_float_keys_check_numeric_strings(self):
        # PyYAML reads 4.0e8 (no exponent sign) as a string
        sf = scenario_file_from_dict({"channel": {"bandwidth_hz": "4.0e8"}})
        assert sf.scenarios[0].channel.bandwidth_hz == 4.0e8
        with pytest.raises(ConfigurationError, match="must be finite"):
            scenario_file_from_dict({"channel": {"tx_power_dbm": "nan"}})

    def test_swept_non_finite_value_rejected(self):
        with pytest.raises(ConfigurationError, match=r"channel\.shadowing_sigma_db"):
            scenario_file_from_dict(
                {"sweep": {"channel.shadowing_sigma_db": [8.7, float("nan")]}}
            )

    def test_campaign_bounds(self):
        with pytest.raises(ConfigurationError, match=r"campaign\.n_runs"):
            scenario_file_from_dict({"campaign": {"n_runs": 0}})
        with pytest.raises(ConfigurationError, match=r"campaign\.seed"):
            scenario_file_from_dict({"campaign": {"seed": -1}})
        assert scenario_file_from_dict({"campaign": {"seed": 0}}).campaign.seed == 0

    def test_bad_architecture_name(self):
        with pytest.raises(ConfigurationError):
            scenario_file_from_dict({"gnb": {"arch": "quantum"}})

    def test_bad_activation_name(self):
        # CSI-RS runs on the periodic grid only; the knob is gone
        for value in ("sometimes", "periodic"):
            with pytest.raises(ConfigurationError, match=r"csi\.activation: unknown key"):
                scenario_file_from_dict({"csi": {"activation": value}})

    @pytest.mark.parametrize(
        "section,key",
        [
            ("channel", "rssi_offset_db"),
            ("power", "adc_bits"),
            ("deployment", "carriers"),
            ("deployment", "ue_distance_m"),
            ("campaign", "n_drops"),
        ],
    )
    def test_inert_knobs_are_unknown_keys(self, section, key):
        with pytest.raises(ConfigurationError, match=rf"{section}\.{key}: unknown key"):
            scenario_file_from_dict({section: {key: 1}})
        with pytest.raises(ConfigurationError, match=rf"{section}\.{key}: unknown key"):
            scenario_file_from_dict({}, overrides=[f"{section}.{key}=1"])

    @pytest.mark.parametrize(
        "section,key",
        [
            (section, key)
            for section, defaults in _SCHEMA.items()
            if defaults
            for key, value in defaults.items()
            if value is not None
        ],
    )
    def test_null_rejected_where_the_default_is_not_null(self, section, key):
        domain = scenario_io._DOMAINS[f"{section}.{key}"]
        rule = {int: "an integer", float: "a real number"}.get(domain.kind, domain.rule())
        with pytest.raises(ConfigurationError, match=refusal(f"{section}.{key}", None, rule)):
            scenario_file_from_dict({section: {key: None}})

    def test_null_accepted_where_the_default_is_null(self):
        sf = scenario_file_from_dict(
            {
                "scenario_id": None,
                "gnb": {"k_bf": None},
                "ue": {"k_bf": None},
                "deployment": {"lte_latency_ms": None},
            }
        )
        assert sf.scenarios[0].lte_latency_ms is None


class TestOverrides:
    def test_override_wins_over_file_value(self):
        sf = scenario_file_from_dict({"ss": {"n_ss": 8}}, overrides=["ss.n_ss=32"])
        assert sf.scenarios[0].ss.n_ss == 32

    def test_override_parses_yaml_scalars(self):
        # the file's k_bf is invalid for an analog array; the null wins
        sf = scenario_file_from_dict(
            {"gnb": {"k_bf": 4}},
            overrides=["deployment.lte_latency_ms=0.8", "gnb.k_bf=null"],
        )
        assert sf.scenarios[0].lte_latency_ms == 0.8
        assert sf.scenarios[0].gnb.k_bf is None
        assert sf.effective["deployment"]["lte_latency_ms"] == 0.8
        assert sf.effective["gnb"]["k_bf"] is None

    def test_scenario_id_override(self):
        sf = scenario_file_from_dict({}, overrides=["scenario_id=mycase"])
        assert sf.scenarios[0].scenario_id == "mycase"

    def test_override_path_must_be_dotted(self):
        with pytest.raises(ConfigurationError, match="n_ss: unknown key"):
            scenario_file_from_dict({}, overrides=["n_ss=8"])
        with pytest.raises(ConfigurationError, match="override"):
            scenario_file_from_dict({}, overrides=["just-words"])

    def test_override_value_must_be_yaml(self):
        with pytest.raises(ConfigurationError, match=r"ss\.n_ss: not a valid YAML value"):
            scenario_file_from_dict({}, overrides=["ss.n_ss=[8"])

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            scenario_file_from_dict({}, overrides=["ss.burst=4"])

    def test_sweep_override_expands(self):
        sf = scenario_file_from_dict({}, overrides=["sweep.ss.n_ss=[8, 64]"])
        assert len(sf.scenarios) == 2
        assert {sc.ss.n_ss for sc in sf.scenarios} == {8, 64}

    def test_override_of_a_swept_key_rejected(self):
        data = {"ss": {"n_ss": 16}, "sweep": {"ss.n_ss": [8, 64]}}
        with pytest.raises(ConfigurationError, match=r"ss\.n_ss: .*sweep\.ss\.n_ss"):
            scenario_file_from_dict(data, overrides=["ss.n_ss=32"])
        with pytest.raises(ConfigurationError, match=r"sweep\.ss\.n_ss"):
            scenario_file_from_dict({}, overrides=["sweep.ss.n_ss=[8]", "ss.n_ss=32"])
        sf = scenario_file_from_dict(data, overrides=["ss.t_ss_ms=40"])
        assert [(sc.ss.n_ss, sc.ss.t_ss_ms) for sc in sf.scenarios] == [(8, 40), (64, 40)]
        # the file's n_ss gives way to the swept values
        assert sf.effective["ss"] == {"t_ss_ms": 40}
        assert sf.effective["sweep"] == {"ss.n_ss": [8, 64]}

    def test_deep_path_outside_sweep_rejected(self):
        with pytest.raises(ConfigurationError, match=r"ss\.n_ss\.extra: unknown key"):
            scenario_file_from_dict({}, overrides=["ss.n_ss.extra=8"])


class TestSweepExpansion:
    def test_cartesian_product(self):
        sf = scenario_file_from_dict(
            {
                "sweep": {
                    "ss.n_ss": [8, 64],
                    "deployment.mode": ["SA"],
                    "gnb.elements": [16, 64],
                }
            }
        )
        assert len(sf.scenarios) == 4
        combos = {(sc.ss.n_ss, sc.gnb.elements) for sc in sf.scenarios}
        assert combos == {(8, 16), (8, 64), (64, 16), (64, 64)}

    def test_variant_ids_are_distinct_and_deterministic(self):
        data = {"sweep": {"ss.n_ss": [8, 64]}}
        a = scenario_file_from_dict(data)
        b = scenario_file_from_dict(data)
        ids_a = [sc.scenario_id for sc in a.scenarios]
        ids_b = [sc.scenario_id for sc in b.scenarios]
        assert ids_a == ids_b
        assert len(set(ids_a)) == 2
        assert all("n_ss=" in i for i in ids_a)

    def test_explicit_id_keeps_suffix(self):
        sf = scenario_file_from_dict(
            {"scenario_id": "base", "sweep": {"ss.t_ss_ms": [20, 40]}}
        )
        ids = sorted(sc.scenario_id for sc in sf.scenarios)
        assert ids == ["base__ss.t_ss_ms=20", "base__ss.t_ss_ms=40"]

    @pytest.mark.parametrize("given", [{}, {"scenario_id": "base"}])
    def test_each_scenario_is_built_and_checked_once(self, given, monkeypatch):
        # a variant's id suffix joins the id its geometry gives, too
        checked = []
        check = Scenario.__post_init__
        monkeypatch.setattr(
            Scenario, "__post_init__", lambda sc: checked.append(sc) or check(sc)
        )
        sf = scenario_file_from_dict({**given, "sweep": {"ss.n_ss": [8, 16, 64]}})
        assert checked == list(sf.scenarios)
        base = given.get("scenario_id", "sa_a64xa4_n3_nss{}_tss20")
        assert [sc.scenario_id for sc in sf.scenarios] == [
            f"{base.format(n)}__ss.n_ss={n}" for n in (8, 16, 64)
        ]

    def test_sweep_needs_lists(self):
        with pytest.raises(ConfigurationError, match="non-empty list"):
            scenario_file_from_dict({"sweep": {"ss.n_ss": 8}})
        with pytest.raises(ConfigurationError, match="non-empty list"):
            scenario_file_from_dict({"sweep": {"ss.n_ss": []}})

    def test_sweep_key_must_exist(self):
        with pytest.raises(ConfigurationError, match=r"sweep\.ss\.bogus"):
            scenario_file_from_dict({"sweep": {"ss.bogus": [1]}})

    def test_sweep_invalid_value_fails_that_variant(self):
        with pytest.raises(ConfigurationError):
            scenario_file_from_dict({"sweep": {"ss.t_ss_ms": [20, 15]}})


class TestParseScenarioFile:
    def test_round_trip_through_yaml(self, tmp_path):
        p = tmp_path / "case.yaml"
        p.write_text(
            "ss: {n_ss: 8, t_ss_ms: 40}\n"
            "deployment: {mode: NSA, lte_latency_ms: 10}\n"
            "campaign: {n_runs: 123, seed: 7}\n",
            encoding="utf-8",
        )
        sf = parse_scenario(p)
        sc = sf.scenarios[0]
        assert sc.ss.n_ss == 8
        assert sc.mode is DeploymentMode.NSA
        assert sc.lte_latency_ms == 10.0
        assert sf.campaign.n_runs == 123
        assert sf.campaign.seed == 7

    def test_empty_file_is_the_default(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("", encoding="utf-8")
        assert len(parse_scenario(p).scenarios) == 1

    def test_invalid_yaml_is_a_config_error(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("ss: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="YAML"):
            parse_scenario(p)

    def test_non_mapping_rejected(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- a\n- b\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="mapping"):
            parse_scenario(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_scenario(tmp_path / "absent.yaml")

    def test_overrides_apply_before_validation(self, tmp_path):
        p = tmp_path / "case.yaml"
        p.write_text("ss: {t_ss_ms: 15}\n", encoding="utf-8")
        sf = parse_scenario(p, overrides=["ss.t_ss_ms=20"])
        assert sf.scenarios[0].ss.t_ss_ms == 20.0


# PyYAML's Python loader, and libyaml's when PyYAML was built with it
_LOADERS = [yaml.SafeLoader] + (
    [yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else []
)


def test_the_module_loader_is_libyaml_when_pyyaml_has_it():
    fastest = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert scenario_io._LOADER is fastest


@pytest.mark.parametrize("loader", _LOADERS, ids=lambda loader: loader.__name__)
class TestLoaders:
    """The module reads YAML with libyaml's loader when PyYAML has it, and
    with the Python one otherwise: either must read every committed
    scenario and every kind of ``--set`` literal as the Python one does."""

    def test_committed_scenarios_parse_alike(self, loader, tmp_path):
        paths = sorted(ROOT.glob("tests/scenarios/*.yaml"))
        paths += sorted(ROOT.glob("nrbench/workloads/*.yaml"))
        paths += sorted(ROOT.glob("paper/*.yaml"))
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        assert len(paths) >= 4 and len(blocks) == 3
        for i, block in enumerate(blocks):
            paths.append(tmp_path / f"readme_{i}.yaml")
            paths[-1].write_text(block, encoding="utf-8")
        for path in paths:
            with mock.patch.object(scenario_io, "_LOADER", yaml.SafeLoader):
                expected = parse_scenario(path)
            with mock.patch.object(scenario_io, "_LOADER", loader):
                got = parse_scenario(path)
            assert got.scenarios == expected.scenarios
            assert got.campaign == expected.campaign
            # repr tells 1 from 1.0 and True
            assert repr(got.effective) == repr(expected.effective)

    def test_set_literals_read_alike(self, loader):
        literals = ["42", "4.0e8", "yes", "null", "0x10", "1_000", ".inf", "[8, 16]"]
        items = [f"k{i}={raw}" for i, raw in enumerate(literals)]
        with mock.patch.object(scenario_io, "_LOADER", loader):
            values = list(_overrides(items, "<set>").values())
        # YAML 1.1 reads 4.0e8 as a string; scenario_io takes it as a number
        expected = [42, "4.0e8", True, None, 16, 1000, float("inf"), [8, 16]]
        assert repr(values) == repr(expected)


# the keys that change a result only beside other values: those values
_CONTEXTS = {
    "gnb.k_bf": {"gnb.arch": "hybrid", "gnb.k_bf": 4},
    "ue.k_bf": {"ue.arch": "hybrid", "ue.k_bf": 1},
    "power.c_chain_w": {"gnb.arch": "digital"},
    # SA ignores the LTE leg, so it is set in both runs
    "deployment.mode": {"deployment.lte_latency_ms": 10.0},
    "deployment.lte_latency_ms": {"deployment.mode": "NSA", "deployment.lte_latency_ms": 10.0},
}
# the key that no config field declares, with the values it takes
_UNDECLARED = {"scenario_id": ["named"]}
_DOMAINS = {
    f"{section}.{name}": domain
    for section, cls in scenario_io._BUILDERS.items()
    for name, domain in declared_domains(cls)
}
# each base runs a few hundred runs
_RUNS = {"campaign.n_runs": 300}


def _candidates(key: str, current) -> list:
    """Values of ``key`` other than ``current`` that its declared domain
    takes: its members, or else numbers near and far from ``current`` and
    the domain's bounds."""
    if key in _UNDECLARED:
        values = _UNDECLARED[key]
    elif _DOMAINS[key].among:
        values = list(_DOMAINS[key].among)
    else:
        domain = _DOMAINS[key]
        near_and_far = [current + 1, current * 2, current + 100, current / 2]
        values = []
        for v in [*near_and_far, domain.lo, domain.hi]:
            try:
                values.append(domain.check(key, domain.kind(v)))
            except (TypeError, ConfigurationError):
                pass  # no bound, or outside the domain
    return [v for v in dict.fromkeys(values) if v != current]


def _result(flat: dict, key: str) -> str:
    """The report of the one scenario that the keys ``flat`` build; its id
    only where ``key`` is the id."""
    sf = scenario_file_from_dict(scenario_io._nested({**_RUNS, **flat}))
    (sc,) = sf.scenarios
    if key == "scenario_id":
        return sc.scenario_id
    # the id names most keys' values, so it is left out; and repr, so that
    # a NaN field compares equal to itself
    return repr(dataclasses.replace(estimate_metrics(sc, sf.campaign), scenario_id=""))


@pytest.mark.parametrize(
    "key", sorted(set(scenario_io._DEFAULTS) | set(_CONTEXTS) | set(_UNDECLARED))
)
def test_every_scenario_key_changes_a_result(key):
    # a key that changes no result is not accepted: some value of its
    # domain, beside the values it needs, changes a report
    assert key in scenario_io._DEFAULTS, f"{key} is not a scenario key"
    base = _CONTEXTS.get(key, {})
    current = {**scenario_io._DEFAULTS, **_RUNS, **base}[key]
    before = _result(base, key)
    for value in _candidates(key, current):
        try:
            after = _result({**base, key: value}, key)
        except ConfigurationError:
            continue  # the value does not fit beside the others
        if after != before:
            return
    pytest.fail(f"no value of {key} that its domain takes changes a result")

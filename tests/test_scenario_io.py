from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

from nrbeamsim import scenario_io
from nrbeamsim.codebook import Architecture, PowerModel
from nrbeamsim.errors import ConfigurationError
from nrbeamsim.evaluation import estimate_metrics
from nrbeamsim.frame import CsiRsConfig, SsBurstConfig
from nrbeamsim.link import ChannelParams
from nrbeamsim.procedures import (
    DeploymentMode,
    Scenario,
    expected_beam_report_delay_ms,
    expected_tracking_delay_ms,
)
from nrbeamsim.scenario_io import _overrides, parse_scenario, scenario_file_from_dict

ROOT = Path(__file__).resolve().parents[1]

FLOAT_KEYS = {
    tuple(key.split(".")) for key, d in scenario_io._DOMAINS.items() if d.kind is float
}


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


SECTIONS_KNOWN = (
    "['campaign', 'channel', 'csi', 'deployment', 'gnb', 'numerology', 'power', "
    "'scenario_id', 'ss', 'sweep', 'ue']"
)
DOTTED_KNOWN = (
    "['campaign.n_runs', 'campaign.seed', 'channel.bandwidth_hz', "
    "'channel.cell_radius_m', 'channel.detection_threshold_db', "
    "'channel.noise_figure_db', 'channel.pl_exponent', 'channel.pl_intercept_db', "
    "'channel.shadowing_sigma_db', 'channel.side_lobe_floor_db', "
    "'channel.tx_power_dbm', 'csi.bandwidth_rb', 'csi.delta_f_rb', "
    "'csi.delta_t_symbols', 'csi.n_symbols', 'csi.t_csi_slots', "
    "'deployment.lte_latency_ms', 'deployment.mode', 'deployment.omega_br_window_ms', "
    "'gnb.arch', 'gnb.elements', 'gnb.k_bf', 'numerology.n', 'power.c_chain_w', "
    "'power.c_ps_w', 'power.p0_w', 'scenario_id', 'ss.n_ss', 'ss.t_ss_ms', "
    "'ue.arch', 'ue.elements', 'ue.k_bf']"
)
# the dotted keys a sweep may vary: all but the id and the campaign's
SWEPT_KNOWN = DOTTED_KNOWN.replace("'campaign.n_runs', 'campaign.seed', ", "").replace(
    "'scenario_id', ", ""
)


class TestValidationMessages:
    def test_unknown_section_lists_known_ones(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            scenario_file_from_dict({"radio": {}})

    @pytest.mark.parametrize(
        "data, overrides, message",
        [
            pytest.param(
                {"radio": {}}, [], f"radio: unknown section (known: {SECTIONS_KNOWN})",
                id="section",
            ),
            pytest.param(
                {"ss": {"bogus": 1}}, [], "ss.bogus: unknown key (known: ['n_ss', 't_ss_ms'])",
                id="file-key",
            ),
            pytest.param(
                {}, ["ss.bogus=1"], "ss.bogus: unknown key (known: ['n_ss', 't_ss_ms'])",
                id="set-key",
            ),
            pytest.param(
                {}, ["ss=1"], "ss: unknown key (known: ['n_ss', 't_ss_ms'])", id="set-section"
            ),
            pytest.param(
                {}, ["bogus=1"], f"bogus: unknown key (known: {DOTTED_KNOWN})", id="set-bare"
            ),
            pytest.param(
                {"sweep": {"ss.bogus": [1]}},
                [],
                "sweep.ss.bogus: unknown key (known: ['n_ss', 't_ss_ms'])",
                id="swept-key",
            ),
            pytest.param(
                {"sweep": {"bogus": [1]}},
                [],
                f"sweep.bogus: unknown key (known: {SWEPT_KNOWN})",
                id="swept-bare",
            ),
        ],
    )
    def test_unknown_names_list_the_known_ones(self, data, overrides, message):
        with pytest.raises(ConfigurationError) as info:
            scenario_file_from_dict(data, overrides=overrides)
        assert str(info.value) == f"<dict>: {message}"

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
            tuple(key.split("."))
            for key, value in scenario_io._DEFAULTS.items()
            if key != "scenario_id" and value is not None
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
        # the value is refused as a file's text is: where the parser stopped
        # and why, which libyaml words and places at the end of the text
        # otherwise than PyYAML's parser
        with pytest.raises(ConfigurationError) as info:
            scenario_file_from_dict({}, overrides=["ss.n_ss=[8"])
        message = str(info.value)
        assert message.startswith("<dict>: ss.n_ss, line ")
        assert ": not valid YAML: " in message and "expected ',' or ']'" in message
        assert message.endswith(" (while parsing a flow sequence at line 1, column 1)")

    def test_override_value_must_not_repeat_a_key(self):
        with pytest.raises(ConfigurationError) as info:
            scenario_file_from_dict({}, overrides=["ss.n_ss={a: 1, a: 2}"])
        assert str(info.value) == (
            "<dict>: ss.n_ss, line 1, column 8: not valid YAML: found duplicate key 'a' "
            "(while constructing a mapping at line 1, column 1)"
        )

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            scenario_file_from_dict({}, overrides=["ss.burst=4"])

    def test_sweep_override_expands(self):
        sf = scenario_file_from_dict({}, overrides=["sweep.ss.n_ss=[8, 64]"])
        assert len(sf.scenarios) == 2
        assert {sc.ss.n_ss for sc in sf.scenarios} == {8, 64}

    def test_a_sweep_may_expand_to_the_scenario_cap(self, monkeypatch):
        # the paper's grid has 10,368 points
        cap = scenario_io._MAX_SCENARIOS
        assert cap >= 10_368
        monkeypatch.setattr(scenario_io, "_build_scenario", lambda *args: None)
        data = {"sweep": {"power.c_chain_w": [float(v) for v in range(cap)]}}
        assert len(scenario_file_from_dict(data).scenarios) == cap

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
    def test_swept_values_are_shown_as_a_file_gives_them(self):
        # a library caller may sweep members and numpy scalars where a file
        # holds names and numbers; the ids and the effective sweep are the
        # file's
        lte = {"deployment": {"lte_latency_ms": 10}}
        given = scenario_file_from_dict(
            {
                "sweep": {
                    "deployment.mode": [DeploymentMode.SA, DeploymentMode.NSA],
                    "ss.n_ss": [np.int64(8), 64],
                },
                **lte,
            }
        )
        as_file = scenario_file_from_dict(
            {"sweep": {"deployment.mode": ["SA", "NSA"], "ss.n_ss": [8, 64]}, **lte}
        )
        assert given.scenarios == as_file.scenarios
        assert repr(given.effective) == repr(as_file.effective)
        assert yaml.safe_load(yaml.safe_dump(given.effective)) == as_file.effective

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

    def test_merge_keys_may_repeat(self, tmp_path):
        # a repeated key is refused, but not "<<", whose keys a mapping's own
        # keys override
        p = tmp_path / "merged.yaml"
        p.write_text(
            "gnb: &g {arch: digital, elements: 16}\n"
            "ue: {<<: *g, <<: {k_bf: null}, elements: 4}\n",
            encoding="utf-8",
        )
        sc = parse_scenario(p).scenarios[0]
        assert (sc.ue.arch, sc.ue.elements) == (Architecture.DIGITAL, 4)

    def test_a_merged_key_is_not_a_repeat(self, tmp_path):
        # ss merges d before d itself is built, and merging puts x's pairs
        # before d's own: d's own keys do not repeat, so the file is refused
        # only for its unknown keys
        p = tmp_path / "merged.yaml"
        p.write_text(
            "ue: &x {a: 1}\n"
            "gnb: {elements: &d {<<: *x, a: 2}}\n"
            "ss: {<<: *d}\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError) as info:
            parse_scenario(p)
        assert str(info.value) == f"{p}: ue.a: unknown key (known: ['arch', 'elements', 'k_bf'])"

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

    def test_a_merged_mapping_keeps_its_own_keys_last(self, loader):
        text = "ue: &x {a: 1}\ngnb: {elements: &d {<<: *x, a: 2}}\nss: {<<: *d}\n"
        with mock.patch.object(scenario_io, "_LOADER", loader):
            value = scenario_io._load_yaml(text)
        assert value == {"ue": {"a": 1}, "gnb": {"elements": {"a": 2}}, "ss": {"a": 2}}

    @pytest.mark.parametrize("raw", ["\x01", "\udcff"], ids=["control", "lone-surrogate"])
    def test_a_set_character_yaml_refuses_is_named_on_one_line(self, loader, raw):
        # PyYAML's reader refuses both, libyaml's the control character:
        # their messages add a line naming "<unicode string>"
        with mock.patch.object(scenario_io, "_LOADER", loader):
            with pytest.raises(ConfigurationError) as info:
                _overrides([f"ss.n_ss={raw}"], "<set>")
        assert str(info.value) == f"<set>: ss.n_ss: not a valid YAML value: {raw!r}"

    @pytest.mark.parametrize(
        "text, at",
        [
            ("ss: {n_ss: 8}\x01", "line 1, column 14"),
            # libyaml counts the two UTF-8 bytes of é, PyYAML one character
            ("ss: {n_ss: 8}\nscenario_id: é\x01\n", "line 2, column 15"),
            # libyaml counts no character for a BOM, PyYAML one
            ("\ufeffss: {n_ss: 8}\x01", "line 1, column 14"),
        ],
        ids=["first-line", "after-non-ascii", "after-bom"],
    )
    def test_a_file_character_yaml_refuses_is_placed_on_one_line(
        self, loader, tmp_path, text, at
    ):
        # the reader's own message names "<unicode string>" on a second line
        p = tmp_path / "ctl.yaml"
        p.write_text(text, encoding="utf-8")
        with mock.patch.object(scenario_io, "_LOADER", loader):
            with pytest.raises(ConfigurationError) as info:
                parse_scenario(p)
        head = f"{p}, {at}: not valid YAML: unacceptable character #x0001: "
        assert re.fullmatch(rf"{re.escape(head)}\w+ characters are not allowed", str(info.value))

    @pytest.mark.parametrize("raw", ["[8", "{a: 1", '"abc'])
    def test_a_one_line_set_value_is_placed_at_its_end(self, loader, raw):
        # libyaml puts the end of a value without a line break on a line
        # after it, which the value does not have
        with mock.patch.object(scenario_io, "_LOADER", loader):
            with pytest.raises(ConfigurationError) as info:
                _overrides([f"ss.n_ss={raw}"], "<set>")
        head = f"<set>: ss.n_ss, line 1, column {len(raw) + 1}: not valid YAML: "
        assert str(info.value).startswith(head)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "text, at, key, mapping_at",
        [
            # an alias key counts as the scalar it names, and is placed
            # where the alias repeats it, not at the anchor
            ("ss: {&k n_ss: 8, *k: 64}\n", "line 1, column 18", "n_ss", "line 1, column 5"),
            # a quoted << is a key like any other, not the merge key
            ('ss: {"<<": 1, "<<": 2}\n', "line 1, column 15", "<<", "line 1, column 5"),
            # a mapping that is only merged is refused where it is written
            (
                "ue: {<<: &g {k_bf: 1, k_bf: 2}}\ngnb: {<<: *g}\n",
                "line 1, column 23",
                "k_bf",
                "line 1, column 10",
            ),
        ],
        ids=["alias-key", "quoted-merge-key", "merged-only"],
    )
    def test_a_repeated_key_is_placed_at_the_repeat(
        self, loader, tmp_path, text, at, key, mapping_at
    ):
        p = tmp_path / "twice.yaml"
        p.write_text(text, encoding="utf-8")
        with mock.patch.object(scenario_io, "_LOADER", loader):
            with pytest.raises(ConfigurationError) as info:
                parse_scenario(p)
        assert str(info.value) == (
            f"{p}, {at}: not valid YAML: found duplicate key {key!r} "
            f"(while constructing a mapping at {mapping_at})"
        )

    def test_a_set_alias_key_repeat_is_placed_at_the_repeat(self, loader):
        with mock.patch.object(scenario_io, "_LOADER", loader):
            with pytest.raises(ConfigurationError) as info:
                _overrides(["ss.n_ss={&k a: 1, *k: 2}"], "<set>")
        assert str(info.value) == (
            "<set>: ss.n_ss, line 1, column 11: not valid YAML: found duplicate key 'a' "
            "(while constructing a mapping at line 1, column 1)"
        )

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
    # 63 directions visit all 32 residues of the CSI-RS grid: the SS blocks
    # drop some occasions but starve no direction, so both offsets move
    # the tracking delay. No offset near 0 moves which occasions are
    # dropped, so delta_t starts at 46, where 0 drops one residue more.
    "csi.delta_t_symbols": {"gnb.elements": 63, "ue.elements": 1, "csi.delta_t_symbols": 46},
    "csi.delta_f_rb": {"gnb.elements": 63, "ue.elements": 1},
    # unequal beam groups, which the sweep's choice weighs by p
    "channel.side_lobe_floor_db": {"gnb.arch": "hybrid", "gnb.k_bf": 6},
}
# the keys that move a report at the defaults only by its campaign's
# sampling noise: the closed form that each moves in its context
_FORMS = {
    "csi.delta_t_symbols": expected_tracking_delay_ms,
    "csi.delta_f_rb": expected_tracking_delay_ms,
    "channel.side_lobe_floor_db": expected_beam_report_delay_ms,
}
# the key that no config field declares, with the values it takes
_UNDECLARED = {"scenario_id": ["named"]}
# each base runs a few hundred runs
_RUNS = {"campaign.n_runs": 300}


def _candidates(key: str, current) -> list:
    """Values of ``key`` other than ``current`` that its declared domain
    takes: its members, or else numbers near and far from ``current`` and
    the domain's bounds."""
    if key in _UNDECLARED:
        values = _UNDECLARED[key]
    elif scenario_io._DOMAINS[key].among:
        values = list(scenario_io._DOMAINS[key].among)
    else:
        domain = scenario_io._DOMAINS[key]
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
    only where ``key`` is the id, and only its closed form of ``_FORMS``
    where ``key`` has one."""
    sf = scenario_file_from_dict(scenario_io._nested({**_RUNS, **flat}))
    (sc,) = sf.scenarios
    if key == "scenario_id":
        return sc.scenario_id
    if key in _FORMS:
        return repr(_FORMS[key](sc))
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

"""Numbers, bools and null in the effective configuration.

``cli._print_effective`` dumps each distinct value once, keyed by its
type as well, because ``1 == 1.0 == True`` are written differently. At
every depth of the block, as a top-level value, a scenario scalar or a
section's key, the text must be what either dumper writes for the whole
document.
"""
from __future__ import annotations

import contextlib
import io
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from nrbeamsim import cli
from nrbeamsim.evaluation import CampaignSettings
from nrbeamsim.scenario_io import ScenarioFile

_DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if hasattr(yaml, "CSafeDumper") else [])

# ints past 64 bits, floats that repr writes without a point, NaN and the
# infinities, bools and null; equal values of other types (1, 1.0, True)
# have their own text
_PLAIN = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.floats(),
    st.sampled_from([1e16, 1e17, -1e22, 5e-324, 1.5e300, 0.1]),
    st.booleans(),
    st.none(),
)


@pytest.mark.parametrize("dumper", _DUMPERS, ids=lambda d: d.__name__)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    values=st.lists(_PLAIN, min_size=1, max_size=6, unique_by=lambda v: (type(v), v)),
    seed=st.integers(min_value=0, max_value=2**70),
)
def test_plain_values_are_written_as_the_dumper_writes_them(dumper, values, seed):
    # at each depth: a top-level seed, a scenario's own key, and the keys
    # of its sections, of which some are equal in every scenario
    effective = tuple(
        {"scenario_id": v, "ss": {"n_ss": v, "t_ss_ms": values[0]}, "csi": {"x": None}}
        for v in values
    )
    sf = ScenarioFile((), CampaignSettings(n_runs=5, seed=seed), "f.yaml", effective)
    buf = io.StringIO()
    with mock.patch.object(cli, "_DUMPER", dumper), contextlib.redirect_stdout(buf):
        cli._print_effective(sf)
    doc = {"source": "f.yaml", "seed": seed, "n_runs": 5, "scenarios": list(effective)}
    text = yaml.dump(doc, Dumper=dumper, sort_keys=True, default_flow_style=False)
    assert buf.getvalue() == f"# effective configuration\n{text}# results\n"

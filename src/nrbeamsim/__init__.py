"""Symbol-accurate simulation of NR mmWave beam management.

The package models directional initial access, beam tracking, beam
reporting and radio link failure recovery on the NR frame structure,
for standalone deployments and for non-standalone ones that lean on an
LTE control plane, and evaluates delay, overhead, detection accuracy
and transceiver power across antenna and frame configurations.
"""
from .codebook import (
    Architecture,
    ArrayConfig,
    PowerModel,
    beamforming_gain_db,
    power_consumption_w,
    sweep_length,
)
from .errors import ConfigurationError, DomainError, NotApplicableError
from .evaluation import (
    CampaignSettings,
    KiviatSet,
    MetricStat,
    MetricsReport,
    estimate_metrics,
    kiviat_normalize,
)
from .frame import (
    CsiRsConfig,
    Numerology,
    SsBurstConfig,
    carrier_resource_blocks,
)
from .link import (
    ChannelParams,
    misdetection_probability,
    noise_power_dbm,
    path_loss_db,
)
from .procedures import (
    DeploymentMode,
    Scenario,
    oracle_expected_ia,
    oracle_expected_rlf_sa,
)
from .scenario_io import ScenarioFile, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "ArrayConfig",
    "CampaignSettings",
    "ChannelParams",
    "ConfigurationError",
    "CsiRsConfig",
    "DeploymentMode",
    "DomainError",
    "KiviatSet",
    "MetricStat",
    "MetricsReport",
    "NotApplicableError",
    "Numerology",
    "PowerModel",
    "Scenario",
    "ScenarioFile",
    "SsBurstConfig",
    "beamforming_gain_db",
    "carrier_resource_blocks",
    "estimate_metrics",
    "kiviat_normalize",
    "misdetection_probability",
    "noise_power_dbm",
    "oracle_expected_ia",
    "oracle_expected_rlf_sa",
    "parse_scenario",
    "path_loss_db",
    "power_consumption_w",
    "sweep_length",
    "__version__",
]

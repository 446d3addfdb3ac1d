"""Event-driven utility metering: protocol library and simulator.

Meters transmit one message per fixed quantum of consumption over one-way
lossy radio; concentrators stamp reception times and forward; a monitoring
center deduplicates, detects losses from the gapless session numbering, and
reconstructs consumption exactly.  A conventional fixed-interval polling
mode is included as the comparison baseline.
"""

from .center import (
    ConsumerProfile,
    IngestOutcome,
    InsufficientData,
    LostRun,
    MonitoringCenter,
    NoData,
    ReconstructionResult,
    SessionLedger,
)
from .concentrator import ConcentratorConfig, VisibilityMap, broadcast, receive
from .config import load_scenario, scenario_from_dict
from .domain import (
    ConcentratorReport,
    ConfigError,
    DuplicateIdError,
    MalformedFrame,
    MessageType,
    MeterMessage,
    MeterState,
    QualityVector,
    Registry,
    ResourceKind,
    concentrator_id,
    decode_frame,
    encode_frame,
    meter_id,
)
from .eventlog import EventLog
from .meter import MeterConfig, MeterRun
from .simulation import (
    Building,
    CompareRow,
    LoadBoundExceeded,
    LoadReport,
    ScenarioConfig,
    SimMeter,
    compare_runs,
    detail_sweep,
    rmse_text,
    run_ri,
    run_ti,
    worst_case_load,
)
from .traces import ConsumptionTrace, TraceSpec, generate_trace

__all__ = [
    "Building",
    "CompareRow",
    "ConcentratorConfig",
    "ConcentratorReport",
    "ConfigError",
    "ConsumerProfile",
    "ConsumptionTrace",
    "DuplicateIdError",
    "EventLog",
    "IngestOutcome",
    "InsufficientData",
    "LoadBoundExceeded",
    "LoadReport",
    "LostRun",
    "MalformedFrame",
    "MessageType",
    "MeterConfig",
    "MeterMessage",
    "MeterRun",
    "MeterState",
    "MonitoringCenter",
    "NoData",
    "QualityVector",
    "ReconstructionResult",
    "Registry",
    "ResourceKind",
    "ScenarioConfig",
    "SessionLedger",
    "SimMeter",
    "TraceSpec",
    "VisibilityMap",
    "broadcast",
    "compare_runs",
    "concentrator_id",
    "decode_frame",
    "detail_sweep",
    "encode_frame",
    "generate_trace",
    "load_scenario",
    "meter_id",
    "receive",
    "rmse_text",
    "run_ri",
    "run_ti",
    "scenario_from_dict",
    "worst_case_load",
]

__version__ = "0.1.0"

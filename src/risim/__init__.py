"""Event-driven utility metering: protocol library and simulator.

Meters transmit one message per fixed quantum of consumption over one-way
lossy radio; concentrators stamp reception times and forward; a monitoring
center deduplicates, detects losses from the gapless session numbering, and
reconstructs consumption exactly.  A conventional fixed-interval polling
mode is included as the comparison baseline.

``import risim`` loads no submodule: each public name is imported from its
home module on first use, so a program compiles only the modules it uses.
"""

from importlib import import_module

#: each public name by its home module
_HOMES = {
    "center": ("ConsumerProfile", "IngestOutcome", "InsufficientData", "LostRun",
               "MonitoringCenter", "NoData", "ReconstructionResult", "SessionLedger"),
    "concentrator": ("ConcentratorConfig", "broadcast", "receive"),
    "config": ("Building", "ScenarioConfig", "SimMeter", "load_scenario",
               "scenario_from_dict"),
    "domain": ("ConcentratorReport", "ConfigError", "DuplicateIdError", "MalformedFrame",
               "MessageType", "MeterMessage", "MeterState", "QualityVector", "Registry",
               "ResourceKind", "concentrator_id", "decode_frame", "encode_frame", "meter_id"),
    "eventlog": ("EventLog",),
    "meter": ("MeterConfig", "MeterRun"),
    "simulation": ("CompareRow", "LoadBoundExceeded", "LoadReport", "compare_runs",
                   "detail_sweep", "rmse_text", "run_ri", "run_ti", "worst_case_load"),
    "traces": ("ConsumptionTrace", "TraceSpec", "generate_trace"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:   # a home module, as ``risim.simulation``
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

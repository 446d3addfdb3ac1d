"""Bounded fuzz of outside input: one scalar of a scenario or of a logged
emission that the center ingested a copy of (a payload field, a field of
an ingest entry of its ``links``, ``seq`` or ``sim_time_ms``) is replaced
with a value of the wrong kind, a scenario object gains a key the loader
does not read, or one byte of a logged frame is changed, and the CLI must
answer with its exit code and at most one stderr line, never a traceback.
A logged frame forged to a far session must not cost replay memory in
proportion to the jump."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risim.cli import main
from risim.config import _KEYS, _TRACE_PARAMS
from risim.domain import decode_frame, encode_frame

HOSTILE = [True, 1.5, -1, "x", None, [], {}]

SCENARIO = {
    "seed": 3,
    "horizon": "6h",
    "mode": "both",
    "poll_interval": "1h",
    "metric_grid": "10min",
    "buildings": [{
        "concentrators": [
            {"serial": 1, "clock_skew_ms": 5, "max_skew_ms": 50, "uplink_loss": 0.1},
            {"serial": 2},
        ],
        "radio_loss": 0.2,
        "meters": [
            {"serial": 1, "kind": "cold_water", "quantum": "10l",
             "heartbeat_interval": "2h",
             "trace": {"kind": "diurnal", "seed": 4,
                       "params": {"daily_total": "200l", "jitter_pct": 10}},
             "links": [{"concentrator": 1, "loss": 0.1},
                       {"concentrator": 2, "loss": 0.3}]},
            {"serial": 2, "kind": "electricity", "battery_capacity": 1000,
             "tx_cost": 1, "idle_drain_per_hour": 0, "drift_rate": 0,
             "max_flow": "5kWh/h",
             "trace": {"kind": "appliance",
                       "params": {"base_rate": "100Wh/h", "burst_rate": "2kWh/h",
                                  "bursts_per_day": [1, 3],
                                  "burst_duration": ["5min", "20min"]}}},
        ],
    }],
}

#: fields that take JSON integers only, by key; every element of a
#: ``bursts_per_day`` pair is one too
WHOLE_NUMBER_KEYS = {"seed", "serial", "clock_skew_ms", "max_skew_ms",
                     "concentrator", "jitter_pct"}

#: the fields of a log record outside its payload, both whole numbers
TOP_LEVEL = ("seq", "sim_time_ms")

#: the fields of an ingest entry of an emission's ``links``, by position
INGEST_ENTRY = ("concentrator_id", "outcome", "rx_time_ms")

#: every key the loader reads at some level of a scenario file
READ_KEYS = {key for keys in (*_KEYS.values(), *_TRACE_PARAMS.values()) for key in keys}


def _scalar_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in _scalar_paths(child, (*path, key))]


def _object_paths(node, path=()):
    """Paths to every JSON object in ``node``, trace params included."""
    if isinstance(node, dict):
        own, items = [path], node.items()
    elif isinstance(node, list):
        own, items = [], enumerate(node)
    else:
        return []
    return own + [p for key, child in items for p in _object_paths(child, (*path, key))]


def _replaced(obj, path, value):
    out = copy.deepcopy(obj)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(_scalar_paths(SCENARIO)), value=st.sampled_from(HOSTILE))
def test_scenario_scalar_fuzz_is_exit_zero_or_one_config_error_line(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        scn = Path(tmp) / "scenario.json"
        scn.write_text(json.dumps(_replaced(SCENARIO, path, value)))
        code, err = _cli(["run", str(scn), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2), (path, value, err)
    if code == 2:
        assert err.startswith("config error:") and err.count("\n") == 1, err
    whole = path[-1] in WHOLE_NUMBER_KEYS or "bursts_per_day" in path
    if whole and (value is True or value == 1.5):
        assert code == 2, (path, value)


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(_object_paths(SCENARIO)),
       key=st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True).filter(
           lambda k: k not in READ_KEYS))
def test_scenario_unread_key_is_one_config_error_line_naming_it(path, key):
    with tempfile.TemporaryDirectory() as tmp:
        scn = Path(tmp) / "scenario.json"
        scn.write_text(json.dumps(_replaced(SCENARIO, (*path, key), 1)))
        code, err = _cli(["run", str(scn), "--out", str(Path(tmp) / "out")])
    assert code == 2, (path, key, err)
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert repr(key) in err, (path, key, err)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "scenario.json").write_text(json.dumps(SCENARIO))
    assert _cli(["run", str(base / "scenario.json"), "--out", str(base / "out")])[0] == 0
    return base / "out"


@settings(max_examples=80, deadline=None)
@given(data=st.data(), value=st.sampled_from(HOSTILE))
def test_log_ingest_field_fuzz_is_exit_zero_or_one_stderr_line(run_dir, data, value):
    lines = (run_dir / "events.ndjson").read_text().splitlines()
    i = data.draw(st.sampled_from(_ingested(lines)))
    rec = json.loads(lines[i])
    field = data.draw(st.sampled_from([*sorted(rec["payload"]), *TOP_LEVEL, *INGEST_ENTRY]))
    if field in INGEST_ENTRY:
        entry = data.draw(st.sampled_from([link for link in rec["payload"]["links"]
                                           if len(link) == 3]))
        entry[INGEST_ENTRY.index(field)] = value
    else:
        (rec if field in TOP_LEVEL else rec["payload"])[field] = value
    lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run_dir / "ledgers.ndjson", tmp)
        (Path(tmp) / "events.ndjson").write_text("\n".join(lines) + "\n")
        code, err = _cli(["replay", tmp])
    assert code in (0, 1), (field, value, err)
    if code == 1:
        assert err.count("\n") == 1, (field, value, err)
    if field in TOP_LEVEL:
        assert code == 1, (field, value)


def _ingested(lines: list[str]) -> list[int]:
    """The indices of the emission lines with at least one ingest entry."""
    return [i for i, line in enumerate(lines)
            if any(len(link) == 3 for link in json.loads(line)["payload"].get("links", ()))]


def _at(frame: bytes, offset: int, value: int) -> bytes:
    out = bytearray(frame)
    out[offset] = value
    return bytes(out)


#: byte changes to a logged frame: each breaks a decoder rule, except the
#: swap to another known kind tag, which decodes when the sizes agree
FRAME_MUTATIONS = {
    "reserved flag bit": lambda f: _at(f, len(f) - 5, f[-5] | 0x08),
    "battery 201": lambda f: _at(f, len(f) - 6, 201),
    "unknown kind tag": lambda f: _at(f, 1, 0xEE),
    "other kind tag": lambda f: _at(f, 1, f[1] % 6 + 1),
    "one byte short": lambda f: f[:-1],
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), mutation=st.sampled_from(sorted(FRAME_MUTATIONS)))
def test_log_frame_byte_fuzz_is_exit_zero_or_one_stderr_line(run_dir, data, mutation):
    lines = (run_dir / "events.ndjson").read_text().splitlines()
    i = data.draw(st.sampled_from(_ingested(lines)))
    rec = json.loads(lines[i])
    frame = bytes.fromhex(rec["payload"]["frame_hex"])
    rec["payload"]["frame_hex"] = FRAME_MUTATIONS[mutation](frame).hex()
    lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run_dir / "ledgers.ndjson", tmp)
        (Path(tmp) / "events.ndjson").write_text("\n".join(lines) + "\n")
        code, err = _cli(["replay", tmp])
    assert code in (0, 1), (mutation, err)
    if code == 1:
        assert err.count("\n") == 1 and "Traceback" not in err, (mutation, err)
    if mutation != "other kind tag":
        assert code == 1 and err.startswith(f"malformed log: seq {rec['seq']}:"), (mutation, err)


def test_log_frame_forged_to_the_widest_forward_jump_replays_in_bounded_memory(run_dir):
    """The frame of one emission that the center ingested, re-encoded to
    session 2**31 - 1, the widest jump the wrap rule reads as forward:
    replay names the one meter that no longer matches, and its memory stays
    a small multiple of the run's bytes."""
    lines = (run_dir / "events.ndjson").read_text().splitlines()
    i = _ingested(lines)[0]
    rec = json.loads(lines[i])
    msg = replace(decode_frame(bytes.fromhex(rec["payload"]["frame_hex"])), session=2**31 - 1)
    rec["payload"].update(frame_hex=encode_frame(msg).hex(), session=msg.session)
    lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run_dir / "ledgers.ndjson", tmp)
        (Path(tmp) / "events.ndjson").write_text("\n".join(lines) + "\n")
        run_bytes = sum(f.stat().st_size for f in Path(tmp).iterdir())
        tracemalloc.start()
        try:
            code, err = _cli(["replay", tmp])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 1, err
    assert err == f"replay mismatch at meter {msg.meter_id:#x}\n"
    # an unforged replay peaks at about 1.8 times the run's bytes; a
    # 10**6 jump listed session by session peaked at about 900 times
    assert peak < 4 * run_bytes, (peak, run_bytes)

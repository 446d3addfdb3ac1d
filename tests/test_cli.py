"""Command-line behavior: outputs, exit codes, determinism, replay."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from risim.cli import main
from risim.eventlog import read_csv, read_events

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _write_scenario(tmp_path, name="scenario.json", **overrides):
    scenario = {
        "seed": 31,
        "horizon": "12h",
        "mode": "both",
        "poll_interval": "1h",
        "buildings": [{
            "concentrators": [{"serial": 1}],
            "radio_loss": 0.2,
            "meters": [
                {"serial": 1, "kind": "cold_water",
                 "trace": {"kind": "diurnal", "params": {"daily_total": "200l"}}},
                {"serial": 2, "kind": "electricity", "quantum": "10Wh",
                 "trace": {"kind": "constant", "params": {"rate": "500Wh/h"}}},
            ],
        }],
    }
    scenario.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return path


def test_run_writes_all_outputs(tmp_path):
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 0
    assert (out / "events.ndjson").exists()
    assert (out / "ledgers.ndjson").exists()
    header, rows = read_csv(out / "metrics.csv")
    assert {r["mode"] for r in rows} == {"ri", "ti"}
    assert len(rows) == 4  # two meters, two modes
    ri_water = next(r for r in rows if r["mode"] == "ri" and r["unit"] == "ml")
    assert int(ri_water["amount_du"]) > 0


def test_run_is_reproducible_by_hash(tmp_path):
    scn = _write_scenario(tmp_path)
    h = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", str(scn), "--out", str(out)]) == 0
        h.append(hashlib.sha256((out / "events.ndjson").read_bytes()).hexdigest())
    assert h[0] == h[1]


# sha256 of (events.ndjson, ledgers.ndjson, metrics.csv) per shipped
# scenario.  A change that alters what a seed produces updates these on
# purpose and says why in CHANGES.md.
SHIPPED_DIGESTS = {
    "default.json": (
        "221317bc8ddbb46d96870172bf769248a9ab32aecd3f2adb47bc4ccfc090ed53",
        "14dcf79454b35f2159e04722b2eb3022c0a5b21639b9cd361930bcfcdc905113",
        "4e67408d2f4524a937a4de34f18cbea91342b92d448c188a1b75abfa6c213233",
    ),
    "night_idle.json": (
        "1cd97d534ec60c81f48f0b766e1b7db11c2bef0c6b1e9a0d93166c7bf297b3b0",
        "1bc3b61047e6efbde9b910eccc32a634edab7c5910c1dd685615edd76642decb",
        "e65cd4ad9dd8303ef22ca1af8bf9c03f2715fe9b15fbe263b3acba1985c0748c",
    ),
    "zero_consumption_48h.json": (
        "e7188d026dec2a1e6e589b2ad065147ca5c853027649bc8d38629794a77258bc",
        "45b55a83a7bc94d41f6b7c8f3694bce8341d455f95cd0cf4dee3e689e351a2c6",
        "71aae9756026165d14c4b03f1e069bfe79b716b2c24fcdeb3d86f8ba501277ac",
    ),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_scenarios_match_golden_hashes(tmp_path, monkeypatch, name):
    monkeypatch.delenv("RI_SIM_SEED", raising=False)
    out = tmp_path / "out"
    assert main(["run", str(SCENARIOS / name), "--out", str(out)]) == 0
    assert main(["replay", str(out)]) == 0
    digests = tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("events.ndjson", "ledgers.ndjson", "metrics.csv")
    )
    assert digests == SHIPPED_DIGESTS[name]


def test_seed_flag_changes_the_run(tmp_path):
    scn = _write_scenario(tmp_path)
    main(["run", str(scn), "--out", str(tmp_path / "a")])
    main(["run", str(scn), "--out", str(tmp_path / "b"), "--seed", "99"])
    assert (
        (tmp_path / "a" / "events.ndjson").read_bytes()
        != (tmp_path / "b" / "events.ndjson").read_bytes()
    )


def test_env_seed_outranks_flag(tmp_path, monkeypatch):
    scn = _write_scenario(tmp_path)
    monkeypatch.setenv("RI_SIM_SEED", "123")
    main(["run", str(scn), "--out", str(tmp_path / "a"), "--seed", "5"])
    monkeypatch.delenv("RI_SIM_SEED")
    main(["run", str(scn), "--out", str(tmp_path / "b"), "--seed", "123"])
    assert (
        (tmp_path / "a" / "events.ndjson").read_bytes()
        == (tmp_path / "b" / "events.ndjson").read_bytes()
    )


def test_replay_round_trip(tmp_path):
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    assert main(["replay", str(out)]) == 0


def _shift_rx_time(payload):
    payload["rx_time_ms"] += 1


def _truncate_frame(payload):
    payload["frame_hex"] = payload["frame_hex"][:-4]


def _non_hex_frame(payload):
    payload["frame_hex"] = "zz" + payload["frame_hex"][2:]


def _odd_length_frame(payload):
    payload["frame_hex"] += "0"


def _drop_concentrator(payload):
    del payload["concentrator_id"]


@pytest.mark.parametrize("log, tamper", [
    pytest.param("events.ndjson", _shift_rx_time, id="rx_time_shifted"),
    pytest.param("events.ndjson", _truncate_frame, id="frame_truncated"),
    pytest.param("events.ndjson", _non_hex_frame, id="frame_not_hex"),
    pytest.param("events.ndjson", _odd_length_frame, id="frame_odd_length"),
    pytest.param("events.ndjson", _drop_concentrator, id="payload_key_missing"),
    pytest.param("events.ndjson", None, id="events_not_json"),
    pytest.param("ledgers.ndjson", None, id="ledgers_not_json"),
])
def test_replay_detects_tampered_log(tmp_path, capsys, log, tamper):
    """A tampered log fails replay; an unreadable one fails in one stderr line."""
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    lines = (out / log).read_text().splitlines()
    for i, line in enumerate(lines):
        if tamper is None:
            lines[i] = line[: len(line) // 2]  # cut mid-object: not JSON
            where = f"line {i + 1}:"
            break
        obj = json.loads(line)
        if obj["kind"] == "center_ingest":
            tamper(obj["payload"])
            lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            where = f"seq {obj['seq']}:"
            break
    (out / log).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    if tamper is not _shift_rx_time:
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert where in err


def test_missing_scenario_file_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1


def test_bad_config_is_exit_two_and_names_meter(tmp_path, capsys):
    scn = _write_scenario(tmp_path)
    obj = json.loads(scn.read_text())
    obj["buildings"][0]["meters"][0]["quantum"] = "0.05ml"
    scn.write_text(json.dumps(obj))
    assert main(["run", str(scn), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "meter 1" in err


def test_invalid_json_is_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_sweep_writes_one_row_per_value(tmp_path):
    scn = _write_scenario(
        tmp_path,
        buildings=[{
            "concentrators": [{"serial": 1}],
            "meters": [{"serial": 1, "kind": "cold_water",
                        "trace": {"kind": "diurnal",
                                  "params": {"daily_total": "200l"}}}],
        }],
    )
    out = tmp_path / "sw"
    assert main(["sweep", str(scn), "--param", "dr",
                 "--values", "50ml,100ml,200ml", "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [r["label"] for r in rows] == ["50ml", "100ml", "200ml"]
    counts = [int(r["message_count"]) for r in rows]
    assert counts[0] > counts[1] > counts[2]


def test_sweep_dr_on_mixed_kinds_is_config_error(tmp_path):
    scn = _write_scenario(tmp_path)
    assert main(["sweep", str(scn), "--param", "dr",
                 "--values", "50ml", "--out", str(tmp_path / "sw")]) == 2


def test_compare_night_idle_reduction(tmp_path):
    # ~2 l/day meter polled every 5 min: the event mode sends >=10x fewer
    # messages over the same day
    scn = _write_scenario(
        tmp_path,
        poll_interval="5min",
        horizon="1d",
        buildings=[{
            "concentrators": [{"serial": 1}],
            "meters": [{"serial": 1, "kind": "cold_water",
                        "trace": {"kind": "constant", "params": {"rate": "2l/d"}}}],
        }],
    )
    out = tmp_path / "cmp"
    assert main(["compare", str(scn), "--out", str(out)]) == 0
    _, rows = read_csv(out / "compare.csv")
    by_mode = {r["mode"]: r for r in rows}
    ri_count = int(by_mode["ri"]["message_count"])
    ti_count = int(by_mode["ti"]["message_count"])
    assert ti_count == 288
    assert ti_count >= 10 * max(ri_count, 1)
    assert by_mode["ti"]["battery_lifetime_ms"] != ""


def test_events_log_fields_are_self_describing(tmp_path):
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    records = read_events(out / "events.ndjson")
    kinds = {r.kind.value for r in records}
    assert "quantum_event" in kinds and "ti_reading" in kinds
    for rec in records:
        if rec.kind.value == "center_ingest":
            assert {"frame_hex", "concentrator_id", "rx_time_ms", "outcome"} <= set(rec.payload)
        if rec.kind.value == "ti_reading":
            assert {"meter_id", "poll_index", "register_du", "unit"} <= set(rec.payload)

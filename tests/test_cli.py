"""Command-line behavior: outputs, exit codes, determinism, replay."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import risim
from risim.cli import main
from risim.config import load_scenario
from risim.eventlog import (
    EventKind,
    check_ledger_lines,
    read_events,
    replay_center,
)

from oracles import read_csv, read_records

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

#: a lone 0xff byte, carried in a str as its surrogate escape
NOT_UTF8 = b"\xff".decode("utf-8", "surrogateescape")


def _encoded(text: str) -> bytes:
    """``text`` as UTF-8, with each surrogate escape back as its raw byte."""
    return text.encode("utf-8", "surrogateescape")


def test_cli_import_leaves_numpy_out():
    # risim has no runtime dependency: a fresh interpreter that imports the
    # CLI must not pull in numpy
    src = str(Path(risim.__file__).resolve().parents[1])
    probe = "import sys, risim.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


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
        "a19a68409e4d8a95303eccad7252d35a9819a2eada71cdf22e2a1c79ebf1e01f",
        "a931ab1d7a75cf6b1da23089ffc3475046e92e105a78f37c81a4f0686343054d",
        "0d6892f58721e19cb0cda43ccd6bf5144348d495b1f4d41974fc773c8b3e3632",
    ),
    "night_idle.json": (
        "6818274ac7e76d1b27e39cfb64e05ee4e637ab9a2b94fa0170417a9210feef8b",
        "1bc3b61047e6efbde9b910eccc32a634edab7c5910c1dd685615edd76642decb",
        "e65cd4ad9dd8303ef22ca1af8bf9c03f2715fe9b15fbe263b3acba1985c0748c",
    ),
    "zero_consumption_48h.json": (
        "fefc81f4b67a7e26bc747133fcd1e7c8ccde5d2abd8283b61eb142b194464fc3",
        "45b55a83a7bc94d41f6b7c8f3694bce8341d455f95cd0cf4dee3e689e351a2c6",
        "71aae9756026165d14c4b03f1e069bfe79b716b2c24fcdeb3d86f8ba501277ac",
    ),
}


@pytest.fixture(scope="module", params=sorted(SHIPPED_DIGESTS))
def shipped_run(request, tmp_path_factory):
    """(name, output directory) of one ``risim run`` per shipped scenario."""
    out = tmp_path_factory.mktemp("shipped") / "out"
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("RI_SIM_SEED", raising=False)
        assert main(["run", str(SCENARIOS / request.param), "--out", str(out)]) == 0
    return request.param, out


def test_shipped_scenarios_match_golden_hashes(shipped_run):
    name, out = shipped_run
    assert main(["replay", str(out)]) == 0
    digests = tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("events.ndjson", "ledgers.ndjson", "metrics.csv")
    )
    assert digests == SHIPPED_DIGESTS[name]


#: events, ledgers and metrics digests of ``risim run`` on each benchmark
#: workload at seed 7; these cover five lossy links and uplink loss, which
#: the shipped scenarios do not
WORKLOAD_DIGESTS = {
    "district_week": (
        "8c092cef81500551c7844edd3773c084bced008170860368995bbca89a897371",
        "bb66655ff5e30c79004e967bb7283046ce7de9c9330a3a44d71a891edddda489",
        "4adbc1534e8bb5f9b60f268553ff035111d522e6a25c6b85055f37672fa42c2c",
    ),
    "idle_fleet": (
        "75090ad9ce0150f33963bffae09121a314abc64b9159f668edebfb5e87860655",
        "c1acb7bf3121c92e75ca4e79a0f96967767c484ccb9339ce7eb6f97045776df7",
        "7c21aff79ae1874a532a6e2e78354ccdc998ba9bff8ba3720395f7437e824de3",
    ),
    "lossy_multipath": (
        "7f8ecbfc92448433c49bda63a0b18a2efdb23064cf93ee598128243d90c0faef",
        "f57052c8b7011931442978c596730a34a3f1109ada4a813e9ad58b8c6beea626",
        "8737d135b3b02ec77d04f48a7bbcc6a9826b9eb5c6150b05877b7ad8e7ad1c21",
    ),
}


@pytest.fixture(scope="module", params=sorted(WORKLOAD_DIGESTS))
def workload_run(request, tmp_path_factory):
    """(name, output directory) of one ``risim run`` per benchmark workload at seed 7."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    base = tmp_path_factory.mktemp("workload")
    scenario = base / "scenario.json"
    scenario.write_text(json.dumps(workloads.WORKLOADS[request.param](7)))
    out = base / "out"
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("RI_SIM_SEED", raising=False)
        assert main(["run", str(scenario), "--out", str(out)]) == 0
    return request.param, out


def test_benchmark_workloads_match_their_digests(workload_run):
    workload, out = workload_run
    assert main(["replay", str(out)]) == 0
    digests = tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("events.ndjson", "ledgers.ndjson", "metrics.csv")
    )
    assert digests == WORKLOAD_DIGESTS[workload]


#: radio drops, uplink drops and ingests of each workload's seed-7 run: the
#: ``drop`` lines by stage and the ``center_ingest`` lines that its log held
#: when each copy had a line of its own
WORKLOAD_FATES = {
    "district_week": {"radio": 4611, "uplink": 132, "ingest": 26101},
    "idle_fleet": {"radio": 48, "uplink": 0, "ingest": 2304},
    "lossy_multipath": {"radio": 30030, "uplink": 612, "ingest": 29503},
}


def test_benchmark_workloads_log_every_copy_once(workload_run):
    """Each emission line lists one entry per link of its meter, in
    concentrator-id order, and the entries of a run add up, stage by stage,
    to the copies the log used to give a line each."""
    workload, out = workload_run
    n_links = {sm.config.id: len(sm.links)
               for sm in load_scenario(out.parent / "scenario.json").meters()}
    fates = {"radio": 0, "uplink": 0, "ingest": 0}
    for rec in read_records(out / "events.ndjson"):
        if rec.kind is EventKind.TI_READING:
            continue
        links = rec.payload["links"]
        cids = [link[0] for link in links]
        assert len(links) == n_links[rec.payload["meter_id"]] and cids == sorted(set(cids))
        for link in links:
            fates[link[1] if len(link) == 2 else "ingest"] += 1
    assert fates == WORKLOAD_FATES[workload]


def test_shipped_ri_rows_account_for_every_quantum(shipped_run):
    """Received + recovered + trailing quanta equal the lifetime count.

    The lifetime count is the cumulative quanta of the highest session the
    center accepted, so every frame it accepted is in the ``ri`` row, also
    one a skewed concentrator stamped after the horizon.
    """
    name, out = shipped_run
    quantum = {sm.config.id: sm.config.quantum_du
               for sm in load_scenario(SCENARIOS / name).meters()}
    lifetime = {}
    for snap in map(json.loads, (out / "ledgers.ndjson").read_text().splitlines()):
        [top] = [row for row in snap["sessions"]
                 if row["session"] == snap["highest_session"]]
        lifetime[snap["meter_id"]] = top["cumulative_quanta"]
    _, rows = read_csv(out / "metrics.csv")
    ri_rows = [row for row in rows if row["mode"] == "ri"]
    assert len(ri_rows) == len(quantum)
    for row in ri_rows:
        mid = int(row["meter_id"], 16)
        trailing, rest = divmod(int(row["trailing_uncertainty_du"]), quantum[mid])
        assert rest == 0, row
        total = int(row["quanta_received"]) + int(row["quanta_recovered"]) + trailing
        assert total == lifetime.get(mid, 0), row


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


def test_meters_installed_with_empty_battery_run_and_replay(tmp_path):
    # one with flow, one idle with a heartbeat due inside the horizon
    scn = _write_scenario(tmp_path, buildings=[{
        "concentrators": [{"serial": 1}],
        "meters": [
            {"serial": 1, "kind": "cold_water", "battery_capacity": 0,
             "trace": {"kind": "constant", "params": {"rate": "20l/h"}}},
            {"serial": 2, "kind": "cold_water", "battery_capacity": 0,
             "heartbeat_interval": "1h", "trace": {"kind": "zero"}},
        ],
    }])
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 0
    assert main(["replay", str(out)]) == 0
    assert not [r for r in read_records(out / "events.ndjson")
                if r.kind in (EventKind.QUANTUM_EVENT, EventKind.HEARTBEAT)]


def _ingests(payload):
    """The ingest entries of an emission's links, [cid, outcome, rx_time_ms];
    none for a ``ti_reading``."""
    return [link for link in payload.get("links", ()) if len(link) == 3]


def _shift_rx_time(payload):
    _ingests(payload)[0][2] += 1


def _truncate_frame(payload):
    payload["frame_hex"] = payload["frame_hex"][:-4]


def _non_hex_frame(payload):
    payload["frame_hex"] = "zz" + payload["frame_hex"][2:]


def _odd_length_frame(payload):
    payload["frame_hex"] += "0"


def _drop_concentrator(payload):
    del _ingests(payload)[0][0]


def _rx_time_a_string(payload):
    entry = _ingests(payload)[0]
    entry[2] = str(entry[2])


def _concentrator_a_list_on_a_copy(payload):
    copies = [link for link in _ingests(payload) if link[1] == "duplicate"]
    if not copies:
        return False
    copies[0][0] = [copies[0][0]]


def _accepted_logged_as_duplicate(payload):
    accepted = [link for link in _ingests(payload) if link[1] == "accepted"]
    if not accepted:
        return False
    accepted[0][1] = "duplicate"


def _ingested(edit):
    """``edit`` of an emission's payload, made on an emission with an ingest entry."""
    return lambda obj: edit(obj["payload"]) if _ingests(obj["payload"]) else False


def _frame_field(field, change, ingested):
    """An edit of an emission line's frame-derived ``field`` by ``change``,
    made on an emission with an ingest entry, or on one with none; it
    returns the field's name."""
    def edit(obj):
        if bool(_ingests(obj["payload"])) != ingested:
            return False
        node = obj if field == "kind" else obj["payload"]
        node[field] = change(node[field])
        return field
    return edit


#: a change to each frame-derived field that keeps the line one the
#: templates write
_FIELD_CHANGES = {
    "cumulative_quanta": lambda n: n + 1000,
    "session": lambda n: n + 1,
    "meter_id": lambda n: n + 1,
    "resource": lambda word: "gas" if word != "gas" else "heat",
    "kind": lambda word: "heartbeat" if word == "quantum_event" else "quantum_event",
}
_RX_TIME_SHIFTED = _ingested(_shift_rx_time)


@pytest.mark.parametrize("log, tamper", [
    pytest.param("events.ndjson", _RX_TIME_SHIFTED, id="rx_time_shifted"),
    pytest.param("events.ndjson", _ingested(_truncate_frame), id="frame_truncated"),
    pytest.param("events.ndjson", _ingested(_non_hex_frame), id="frame_not_hex"),
    pytest.param("events.ndjson", _ingested(_odd_length_frame), id="frame_odd_length"),
    pytest.param("events.ndjson", _ingested(_drop_concentrator), id="payload_key_missing"),
    pytest.param("events.ndjson", _ingested(_rx_time_a_string), id="rx_time_a_string"),
    pytest.param("events.ndjson", _ingested(_concentrator_a_list_on_a_copy),
                 id="concentrator_a_list_on_a_copy"),
    pytest.param("events.ndjson", _ingested(_accepted_logged_as_duplicate),
                 id="accepted_logged_as_duplicate"),
    *(pytest.param("events.ndjson", _frame_field(field, change, ingested),
                   id=f"{field}_edited_{'with' if ingested else 'without'}_ingests")
      for field, change in _FIELD_CHANGES.items() for ingested in (True, False)),
    pytest.param("events.ndjson", None, id="events_not_json"),
    pytest.param("ledgers.ndjson", None, id="ledgers_not_json"),
])
def test_replay_detects_tampered_log(tmp_path, capsys, log, tamper):
    """A tampered log fails replay; an unreadable one fails in one stderr line.

    Each tamper edits the ingest entries of an emission's ``links``, or its
    frame, or one of the fields its frame gives, which fails naming the line,
    its seq and the field; one that returns False skips that emission for a
    later one.  A second concentrator, 5 ms slow, hears duplicate copies of
    most frames.
    """
    scn = _write_scenario(tmp_path)
    obj = json.loads(scn.read_text())
    obj["buildings"][0]["concentrators"].append({"serial": 2, "clock_skew_ms": 5})
    scn.write_text(json.dumps(obj))
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    lines = (out / log).read_text().splitlines()
    for i, line in enumerate(lines):
        if tamper is None:
            # cut mid-object: no longer the line the writer wrote
            where = (f"line {i + 1}:" if log == "events.ndjson" else
                     f"replay mismatch at meter {json.loads(line)['meter_id']:#x}\n")
            lines[i] = line[: len(line) // 2]
            break
        obj = json.loads(line)
        if "links" not in obj["payload"]:
            continue
        field = tamper(obj)
        if field is not False:
            lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            where = (f"seq {obj['seq']}:" if field is None else
                     f" line {i + 1}: seq {obj['seq']}: {field} is not the one its frame_hex "
                     "gives\n")
            break
    (out / log).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    if tamper is not _RX_TIME_SHIFTED:
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert where in err


def _spaced(line):
    return json.dumps(json.loads(line), sort_keys=True)


def _uppercase_hex(line):
    obj = json.loads(line)
    upper = obj["payload"]["frame_hex"].upper()
    assert upper != obj["payload"]["frame_hex"]
    obj["payload"]["frame_hex"] = upper
    return json.dumps(obj, separators=(",", ":"))


def _crlf(line):
    return line + "\r"


def test_replay_refuses_a_log_the_templates_would_not_write(tmp_path, capsys):
    """Replay reads a log only as ``risim run`` writes it: an emission line
    with an ingest entry, written with JSON's default spaced separators, its
    frame in uppercase hex or a CRLF ending, is refused, each in one stderr
    line naming the line and its seq."""
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    written = (out / "events.ndjson").read_text().splitlines()
    i = next(i for i, line in enumerate(written) if _ingests(json.loads(line)["payload"]))
    for edit in (_spaced, _uppercase_hex, _crlf):
        lines = list(written)
        lines[i] = edit(lines[i])
        (out / "events.ndjson").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", str(out)]) == 1, edit
        err = capsys.readouterr().err
        assert err.endswith(f" line {i + 1}: seq {i}: not a line EventLog writes\n"), err
        assert err.startswith("malformed log: ") and err.count("\n") == 1, err


def _two_concentrator_run(tmp_path):
    """The log lines of a run whose meters each link to two concentrators,
    the second 5 ms slow, and the index of the first emission line that has
    two ingest entries."""
    scn = _write_scenario(tmp_path)
    obj = json.loads(scn.read_text())
    obj["buildings"][0]["concentrators"].append({"serial": 2, "clock_skew_ms": 5})
    scn.write_text(json.dumps(obj))
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    lines = (out / "events.ndjson").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if len(_ingests(json.loads(line)["payload"])) == 2)
    return out, lines, i


def _cids_reversed(links):
    links.reverse()


def _cid_repeated(links):
    links[1][0] = links[0][0]


def _unknown_stage(links):
    links[0][1:] = ["lost"]


def _unknown_outcome(links):
    links[0][1] = "refused"


def _ingest_without_rx_time(links):
    del links[0][2]


@pytest.mark.parametrize("edit, reason", [
    (_cids_reversed, "links not in concentrator-id order"),
    (_cid_repeated, "links not in concentrator-id order"),
    (_unknown_stage, "not a line EventLog writes"),
    (_unknown_outcome, "not a line EventLog writes"),
    (_ingest_without_rx_time, "not a line EventLog writes"),
])
def test_replay_refuses_links_out_of_the_grammar(tmp_path, capsys, edit, reason):
    """An emission's links are one entry per link in strictly increasing
    concentrator-id order, each a drop stage or an outcome and a reception
    time: cids reversed or repeated, a stage or outcome outside the
    vocabulary, or an ingest with no reception time, is one stderr line
    naming the line and its seq."""
    out, lines, i = _two_concentrator_run(tmp_path)
    obj = json.loads(lines[i])
    edit(obj["payload"]["links"])
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"malformed log: {out / 'events.ndjson'} line {i + 1}: seq {i}: {reason}\n"


def _earlier_format(lines: list[str]) -> list[str]:
    """A log as versions that wrote one line per copy wrote it: each
    emission line without its links, then a ``drop`` or ``center_ingest``
    line per link, numbered on."""
    old = []
    for line in lines:
        obj = json.loads(line)
        links = obj["payload"].pop("links", [])
        copies = []
        for cid, word, *rx_time_ms in links:
            same = {"concentrator_id": cid, "meter_id": obj["payload"]["meter_id"],
                    "session": obj["payload"]["session"]}
            copies.append(("drop", {**same, "stage": word}) if not rx_time_ms else (
                "center_ingest", {**same, "frame_hex": obj["payload"]["frame_hex"],
                                  "outcome": word, "rx_time_ms": rx_time_ms[0]}))
        for kind, payload in [(obj["kind"], obj["payload"]), *copies]:
            old.append(json.dumps({"kind": kind, "payload": payload, "seq": len(old),
                                   "sim_time_ms": obj["sim_time_ms"]},
                                  sort_keys=True, separators=(",", ":")))
    return old


@pytest.mark.parametrize("kind", ["drop", "center_ingest", None])
def test_replay_refuses_a_log_of_the_earlier_format(tmp_path, capsys, kind):
    """A ``drop`` or ``center_ingest`` line, which logs once gave each copy,
    in place of an emission line, or a whole log written in that format
    (``None``), is one ``malformed log`` line naming the line and its seq."""
    out, lines, _ = _two_concentrator_run(tmp_path)
    if kind is None:
        lines, i = _earlier_format(lines), 0
    else:
        i, rec = next((i, rec) for i, line in enumerate(lines)
                      for rec in map(json.loads, _earlier_format([line])) if rec["kind"] == kind)
        rec["seq"] = i
        lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"malformed log: {out / 'events.ndjson'} line {i + 1}: seq {i}: "
                   "not a line EventLog writes\n")


def test_replay_names_the_concentrator_of_an_outcome_it_does_not_reproduce(tmp_path, capsys):
    """A duplicate copy logged as accepted fails replay in one line naming
    the emission's seq and the concentrator of that copy."""
    out, lines, i = _two_concentrator_run(tmp_path)
    obj = json.loads(lines[i])
    first, second = _ingests(obj["payload"])
    assert (first[1], second[1]) == ("accepted", "duplicate")
    second[1] = "accepted"
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"malformed log: seq {i}: concentrator {second[0]:#x}: outcome 'accepted', "
        "replay gives 'duplicate'\n")


def test_replay_refuses_a_frame_of_another_length_than_its_meters(tmp_path, capsys):
    """A line whose frame and resource are both forged to gas, for a
    cold-water meter whose earlier lines the center holds, is one
    ``malformed log`` line naming its seq, the meter and both frame lengths."""
    out, lines, _ = _two_concentrator_run(tmp_path)
    heard = set()
    for i, line in enumerate(lines):
        obj = json.loads(line)
        payload = obj["payload"]
        if _ingests(payload):
            if payload["meter_id"] in heard and payload["resource"] == "cold_water":
                break
            heard.add(payload["meter_id"])
    frame = bytes.fromhex(payload["frame_hex"])
    # gas is kind tag 5, with one quality field where water has two
    payload["frame_hex"] = (frame[:1] + bytes([5]) + frame[2:17] + frame[19:]).hex()
    payload["resource"] = "gas"
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"malformed log: seq {obj['seq']}: meter {payload['meter_id']:#x}: a 23-byte frame "
        "fed to a ledger of 25-byte frames\n")


def test_replay_reads_integers_of_any_length(tmp_path, capsys):
    """A gas meter whose heartbeats fall 3 * 10**19 ms apart writes 20-digit
    times, and its log replays ok."""
    scn = _write_scenario(tmp_path, horizon=10**20, poll_interval=2 * 10**19, buildings=[{
        "concentrators": [{"serial": 1}],
        "meters": [{"serial": 1, "kind": "gas", "heartbeat_interval": 3 * 10**19}],
    }])
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out), "--mode", "both"]) == 0
    lines = (out / "events.ndjson").read_text().splitlines()
    assert len(lines) == 8 and '"accepted",30000000000000000000]' in lines[0]
    capsys.readouterr()
    assert main(["replay", str(out)]) == 0
    assert capsys.readouterr().out == "replay ok: 1 ledgers match\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() reads integers of any length here")
@pytest.mark.parametrize("field", ["seq", "rx_time_ms"])
def test_replay_refuses_an_integer_too_long_to_read(tmp_path, capsys, field):
    """A 5,000-digit integer, as a line's ``seq`` or as an ingest entry's
    reception time, matches the template, but int() refuses it (Python caps
    a conversion at 4,300 digits): one line naming the line."""
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    lines = (out / "events.ndjson").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if _ingests(json.loads(line)["payload"]))
    where = '"seq":' if field == "seq" else '"accepted",'
    lines[i] = re.sub(f'{where}[0-9]+', where + "7" * 5000, lines[i], count=1)
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"malformed log: {out / 'events.ndjson'} line {i + 1}: seq {i}: " \
                  "an integer too long to read\n"


#: a number that the edits below write where a 5,000-digit integer goes,
#: since json.dumps refuses to write one
_TOO_LONG = 86_753_098_675_309


def _disorder_then_a_long_cid(obj):
    obj["payload"]["links"].reverse()
    obj["payload"]["links"].append([_TOO_LONG, "radio"])
    return "an integer too long to read"


def _a_long_rx_time_then_disorder(obj):
    obj["payload"]["links"].reverse()
    obj["payload"]["links"][0][2] = _TOO_LONG
    return "links not in concentrator-id order"


def _disorder_then_a_long_rx_time(obj):
    obj["payload"]["links"].reverse()
    obj["payload"]["links"][1][2] = _TOO_LONG
    return "links not in concentrator-id order"


def _a_long_rx_time_and_a_wrong_seq(obj):
    obj["payload"]["links"][0][2] = _TOO_LONG
    obj["seq"] += 5
    return "an integer too long to read"


def _odd_frame_hex_and_a_wrong_seq(obj):
    obj["payload"]["frame_hex"] = obj["payload"]["frame_hex"][:-1]
    obj["seq"] += 5
    return "not a line EventLog writes"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() reads integers of any length here")
@pytest.mark.parametrize("edit", [_disorder_then_a_long_cid, _a_long_rx_time_then_disorder,
                                  _disorder_then_a_long_rx_time, _a_long_rx_time_and_a_wrong_seq,
                                  _odd_frame_hex_and_a_wrong_seq])
def test_replay_gives_a_line_with_two_faults_one_message(tmp_path, capsys, edit):
    """A line with two faults gets the message of the one that comes first
    in the order that ``read_events`` states, wherever each sits on the line:
    a concentrator id too long to read before links out of order, links out
    of order before a reception time too long to read, which comes before a
    ``seq`` that is not the due one, and a line that is not one EventLog
    writes before that ``seq``."""
    out, lines, i = _two_concentrator_run(tmp_path)
    obj = json.loads(lines[i])
    reason = edit(obj)
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":")).replace(
        str(_TOO_LONG), "7" * 5000)
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"malformed log: {out / 'events.ndjson'} line {i + 1}: seq {i}: {reason}\n"


def _delete_line(lines, i):
    del lines[i]
    return f"line {i + 1}: seq {i + 1}, expected {i}"


def _duplicate_line(lines, i):
    lines.insert(i, lines[i])
    return f"line {i + 2}: seq {i}, expected {i + 1}"


def _not_written(i):
    """The message for the line at index ``i``, which no template writes."""
    return f"line {i + 1}: seq {i}: not a line EventLog writes"


def _set_top_field(lines, i, key, value):
    obj = json.loads(lines[i])
    obj[key] = value(obj[key])
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return _not_written(i)


def _seq_a_boolean(lines, i):
    return _set_top_field(lines, i, "seq", lambda seq: True)


def _seq_a_float(lines, i):
    return _set_top_field(lines, i, "seq", float)


def _half_ms_on_an_ingest_line(lines, i):
    j = next(j for j in range(i, len(lines)) if _ingests(json.loads(lines[j])["payload"]))
    return _set_top_field(lines, j, "sim_time_ms", lambda t: t + 0.5)


def _kind_retired(lines, i):
    return _set_top_field(lines, i, "kind", lambda kind: "delivery")


def _nested_too_deeply(lines, i):
    lines[i] = "[" * 200_000
    return _not_written(i)


def _payload_a_number(lines, i):
    j = next(j for j in range(i, len(lines)) if '"kind":"quantum_event"' in lines[j])
    return _set_top_field(lines, j, "payload", lambda payload: 5)


def _not_utf8(lines, i):
    lines[i] += NOT_UTF8
    return _not_written(i)


@pytest.mark.parametrize("edit", [_delete_line, _duplicate_line, _seq_a_boolean,
                                  _seq_a_float, _half_ms_on_an_ingest_line,
                                  _kind_retired, _nested_too_deeply, _payload_a_number,
                                  _not_utf8])
def test_replay_rejects_a_seq_gap_or_repeat(tmp_path, capsys, edit):
    """``seq`` runs 0, 1, 2, ...; a lost or repeated emission line whose
    copies were all dropped is caught although the ledgers it leaves behind
    still match, and so is a ``seq`` or ``sim_time_ms`` that is not a whole
    number, a kind the log no longer has, a line nested too deeply to parse,
    a ``payload`` that is not a JSON object on a line replay would otherwise
    skip, and a line that is not UTF-8: each is not a line the templates
    write."""
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    lines = (out / "events.ndjson").read_text().splitlines()
    first = next(i for i, line in enumerate(lines)
                 if re.search(r'"links":\[\[\d+,"radio"\]\]', line))
    where = edit(lines, first)
    (out / "events.ndjson").write_bytes(_encoded("\n".join(lines) + "\n"))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert where in err


@pytest.mark.parametrize("line", [
    "{}", "[1]", '"x"', pytest.param("[" * 200_000, id="nested_too_deeply"),
    pytest.param(NOT_UTF8, id="not_utf8"),
])
def test_replay_rejects_a_ledger_line_that_is_not_a_snapshot(tmp_path, capsys, line):
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    ledgers = out / "ledgers.ndjson"
    n_lines = ledgers.read_text().count("\n")
    ledgers.write_bytes(_encoded(ledgers.read_text() + line + "\n"))
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"line {n_lines + 1}:" in err


def _reversed_keys(snap):
    snap["sessions"] = [dict(reversed(row.items())) for row in snap["sessions"]]
    return json.dumps(dict(reversed(snap.items())), separators=(",", ":"))


def test_replay_refuses_ledgers_written_with_other_spacing_and_key_order(tmp_path, capsys):
    """A ledger line is compared as the bytes the writer gives: the first
    line of ``ledgers.ndjson`` dumped again with spaced separators, or with
    every object's keys reversed, is a mismatch at its meter."""
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    ledgers = out / "ledgers.ndjson"
    written = ledgers.read_text().splitlines()
    snap = json.loads(written[0])
    for edit in (lambda obj: json.dumps(obj, sort_keys=True), _reversed_keys):
        first = edit(json.loads(written[0]))
        assert first != written[0] and json.loads(first) == snap
        ledgers.write_text("\n".join([first, *written[1:]]) + "\n")
        capsys.readouterr()
        assert main(["replay", str(out)]) == 1
        assert capsys.readouterr().err == f"replay mismatch at meter {snap['meter_id']:#x}\n"


def _repeat_first_ledger(lines):
    lines.append(lines[0])
    return (f"replay mismatch at ledgers.ndjson line {len(lines)}: "
            f"replay rebuilt {len(lines) - 1} ledgers")


def _swap_first_ledgers(lines):
    lines[0], lines[1] = lines[1], lines[0]
    return "\n".join(f"replay mismatch at meter {json.loads(line)['meter_id']:#x}"
                     for line in (lines[1], lines[0]))


@pytest.mark.parametrize("edit", [_repeat_first_ledger, _swap_first_ledgers])
def test_replay_names_a_repeated_or_reordered_ledger(tmp_path, capsys, edit):
    """Every ledger line is still some meter's line, yet the file differs:
    a line past the last ledger is named, and so is each meter whose line
    is not where its ledger is."""
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    ledgers = out / "ledgers.ndjson"
    lines = ledgers.read_text().splitlines()
    message = edit(lines)
    ledgers.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"


def _ledgers_cut_after_the_first_line(text):
    first, rest = text.split("\n", 1)
    return first + "\n", [f"replay mismatch at meter {json.loads(line)['meter_id']:#x}: "
                          "ledgers.ndjson has no line for it" for line in rest.splitlines()]


def _ledgers_cut_in_the_last_line(text):
    last = text.splitlines()[-1]
    return text[:-len(last) // 2], [f"replay mismatch at meter {json.loads(last)['meter_id']:#x}"]


def _ledgers_without_the_last_newline(text):
    last = text.splitlines()[-1]
    return text[:-1], [f"replay mismatch at meter {json.loads(last)['meter_id']:#x}"]


def _ledgers_empty(text):
    return "", [f"replay mismatch at meter {json.loads(line)['meter_id']:#x}: "
                "ledgers.ndjson has no line for it" for line in text.splitlines()]


def _ledgers_with_two_lines_more(text):
    n = text.count("\n")
    return text + "{}\nx", [f"replay mismatch at ledgers.ndjson line {n + k}: replay rebuilt "
                            f"{n} ledgers" for k in (1, 2)]


@pytest.mark.parametrize("edit", [_ledgers_cut_after_the_first_line, _ledgers_cut_in_the_last_line,
                                  _ledgers_without_the_last_newline, _ledgers_empty,
                                  _ledgers_with_two_lines_more])
def test_replay_names_a_missing_cut_or_extra_ledger_line(tmp_path, capsys, edit):
    """The end of ``ledgers.ndjson`` is read as the writer ends it: a ledger
    with no line, a last line cut short or left without its newline, and
    each line past the last ledger are named, one stderr line each."""
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    ledgers = out / "ledgers.ndjson"
    text, messages = edit(ledgers.read_text())
    assert messages
    ledgers.write_text(text)
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert capsys.readouterr().err == "".join(message + "\n" for message in messages)


def test_ledger_check_holds_no_line_whole(tmp_path):
    """A 4 MB ledger line, and a 4 MB line past the last ledger, are each
    read in bounded pieces: checking them peaks under 1 MB."""
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    ledgers_path = out / "ledgers.ndjson"
    lines = ledgers_path.read_text().splitlines()
    ledgers_path.write_text("\n".join(["9" * 4_000_000, *lines[1:], "9" * 4_000_000]) + "\n")
    ledgers = replay_center(read_events(out / "events.ndjson")).ledgers()
    tracemalloc.start()
    try:
        mismatches = list(check_ledger_lines(ledgers_path, ledgers))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mismatches == [f"meter {json.loads(lines[0])['meter_id']:#x}",
                          f"ledgers.ndjson line {len(lines) + 1}: replay rebuilt "
                          f"{len(lines)} ledgers"]
    assert peak < 2**20, peak


def _replay_peak_bytes(path) -> int:
    tracemalloc.start()
    try:
        replay_center(read_events(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replay_memory_does_not_grow_with_the_log(tmp_path):
    # one idle gas meter polled every minute: about 1,400 log lines a day,
    # nearly all ti_reading, and a ledger that stays a few heartbeats long
    peaks = {}
    for horizon in ("1d", "4d"):
        scn = _write_scenario(tmp_path, horizon=horizon, poll_interval="1min", buildings=[{
            "concentrators": [{"serial": 1}],
            "meters": [{"serial": 1, "kind": "gas"}],
        }])
        out = tmp_path / horizon
        assert main(["run", str(scn), "--out", str(out), "--mode", "both"]) == 0
        peaks[horizon] = _replay_peak_bytes(out / "events.ndjson")
    assert peaks["4d"] <= 1.5 * peaks["1d"], peaks


def _one_meter_three_lossy_concentrators(tmp_path):
    # four log lines per emission, and a ledger of one entry per emission heard at all
    return _write_scenario(tmp_path, horizon="4h", mode="ri", buildings=[{
        "concentrators": [{"serial": 1}, {"serial": 2}, {"serial": 3}],
        "radio_loss": 0.3,
        "meters": [{"serial": 1, "kind": "cold_water",
                    "trace": {"kind": "constant", "params": {"rate": "30l/h"}}}],
    }])


def test_run_memory_does_not_hold_the_log(tmp_path):
    scn = _one_meter_three_lossy_concentrators(tmp_path)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["run", str(scn), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a run that holds every record peaks at about 4.0 times the log's bytes
    # here; one that writes each record as it happens, at about 2.2
    assert peak < 3 * (out / "events.ndjson").stat().st_size


def test_ledgers_are_written_a_session_row_at_a_time(tmp_path, monkeypatch):
    """While ``ledgers.ndjson`` is written, the heap rises by at most half
    the file's size: here one ledger is the whole file, so a writer that
    built a ledger's line, or a dict per session, would rise by more than it."""
    write = risim.cli.write_ledger_snapshots
    rises = []

    def traced_write(path, text):
        at_open = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write(path, text)
        rises.append(tracemalloc.get_traced_memory()[1] - at_open)

    monkeypatch.setattr(risim.cli, "write_ledger_snapshots", traced_write)
    scn = _one_meter_three_lossy_concentrators(tmp_path)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["run", str(scn), "--out", str(out)]) == 0
    finally:
        tracemalloc.stop()
    # a whole line through json.dumps rose by about 7.7 times the file here
    [rise] = rises
    assert rise <= 0.5 * (out / "ledgers.ndjson").stat().st_size


@pytest.mark.parametrize("name", ["night_idle.json", "zero_consumption_48h.json"])
def test_compare_and_run_both_write_the_same_logs(tmp_path, name):
    """Both commands stream ``ri`` then ``ti`` into one log, ``seq`` carrying on."""
    scn = SCENARIOS / name
    assert main(["compare", str(scn), "--out", str(tmp_path / "compare")]) == 0
    assert main(["run", str(scn), "--out", str(tmp_path / "run"), "--mode", "both"]) == 0
    for log in ("events.ndjson", "ledgers.ndjson"):
        assert (tmp_path / "compare" / log).read_bytes() == (tmp_path / "run" / log).read_bytes()


def _concentrator(obj):
    return obj["buildings"][0]["concentrators"][0]


def _meters(obj):
    return obj["buildings"][0]["meters"]


def _bursts_per_day(value):
    """An edit giving meter 2 an appliance trace with this ``bursts_per_day``."""
    return lambda o: _meters(o)[1].update(trace={"kind": "appliance", "params": {
        "burst_rate": "2kWh/h", "bursts_per_day": value}})


@pytest.mark.parametrize("edit, names", [
    pytest.param(lambda o: _concentrator(o).update(clock_skew_ms="fast"),
                 "clock_skew_ms", id="clock_skew_not_a_number"),
    pytest.param(lambda o: _concentrator(o).update(uplink_loss="x"),
                 "uplink_loss", id="uplink_loss_not_a_number"),
    pytest.param(lambda o: o["buildings"][0].update(radio_loss=[1]),
                 "radio_loss", id="radio_loss_a_list"),
    pytest.param(lambda o: _meters(o)[0].update(links=[{"concentrator": 1, "loss": "a"}]),
                 "meter 1", id="link_loss_not_a_number"),
    pytest.param(lambda o: _meters(o).append("meter 3"),
                 "building 0", id="meter_a_string"),
    pytest.param(lambda o: _meters(o)[1].update(trace={"kind": "appliance", "params": {
                     "burst_rate": "2kWh/h", "burst_duration": "5min"}}),
                 "meter 2", id="burst_duration_not_a_pair"),
    pytest.param(lambda o: _meters(o)[1].update(trace={"kind": "constant"}),
                 "meter 2", id="constant_without_rate"),
    pytest.param(lambda o: _meters(o)[0].update(trace={"kind": "diurnal", "params": {}}),
                 "meter 1", id="diurnal_without_daily_total"),
    pytest.param(lambda o: _meters(o)[0]["trace"]["params"].update(jitter_pct=150),
                 "meter 1", id="jitter_out_of_range"),
    pytest.param(lambda o: _meters(o)[1].update(serial=1),
                 "meter 1 [0x100000000000001]: duplicate id", id="duplicate_meter_serial"),
    pytest.param(lambda o: o["buildings"][0].update(meters=5),
                 "building 0", id="meters_not_a_list"),
    pytest.param(lambda o: _meters(o)[0].update(kind=["gas"]),
                 "meter 1", id="kind_a_list"),
    pytest.param(lambda o: _concentrator(o).update(serial=-1),
                 "building 0", id="concentrator_serial_out_of_range"),
    pytest.param(lambda o: _concentrator(o).update(clock_skew_ms=12.7),
                 "clock_skew_ms", id="clock_skew_a_fraction"),
    pytest.param(lambda o: _concentrator(o).update(clock_skew_ms=True),
                 "clock_skew_ms", id="clock_skew_a_boolean"),
    pytest.param(lambda o: _concentrator(o).update(max_skew_ms=999.9),
                 "max_skew_ms", id="max_skew_a_fraction"),
    pytest.param(lambda o: _concentrator(o).update(uplink_loss=True),
                 "uplink_loss", id="uplink_loss_a_boolean"),
    pytest.param(lambda o: o["buildings"][0].update(radio_loss=True),
                 "radio_loss", id="radio_loss_a_boolean"),
    pytest.param(lambda o: o["buildings"][0].update(radio_loss=1.5),
                 "radio_loss", id="radio_loss_above_one"),
    pytest.param(lambda o: _meters(o)[0].update(links=[{"concentrator": 1, "loss": True}]),
                 "meter 1", id="link_loss_a_boolean"),
    pytest.param(lambda o: _meters(o)[1].update(trace={"kind": "appliance", "params": {
                     "burst_rate": "2kWh/h", "bursts_per_day": [1, 10**30]}}),
                 "bursts_per_day", id="bursts_per_day_unbounded"),
    pytest.param(lambda o: _meters(o)[0].update(serial=True),
                 "meter serial", id="meter_serial_a_boolean"),
    pytest.param(lambda o: _concentrator(o).update(serial=True),
                 "concentrator serial", id="concentrator_serial_a_boolean"),
    pytest.param(lambda o: _meters(o)[0].update(links=[{"concentrator": True}]),
                 "link concentrator", id="link_concentrator_a_boolean"),
    pytest.param(lambda o: _meters(o)[0]["trace"].update(seed=True),
                 "trace seed", id="trace_seed_a_boolean"),
    pytest.param(lambda o: _meters(o)[0]["trace"]["params"].update(jitter_pct=5.7),
                 "jitter_pct", id="jitter_a_fraction"),
    pytest.param(lambda o: _meters(o)[0]["trace"]["params"].update(jitter_pct=True),
                 "jitter_pct", id="jitter_a_boolean"),
    pytest.param(lambda o: _meters(o)[1].update(trace={"kind": "appliance", "params": {
                     "burst_rate": "2kWh/h", "bursts_per_day": [True, True]}}),
                 "bursts_per_day", id="bursts_per_day_booleans"),
    pytest.param(_bursts_per_day(5), "bursts_per_day", id="bursts_per_day_a_number"),
    pytest.param(_bursts_per_day([1, 2, 3]), "bursts_per_day", id="bursts_per_day_a_triple"),
    pytest.param(_bursts_per_day([1]), "bursts_per_day", id="bursts_per_day_a_single"),
    pytest.param(lambda o: _meters(o)[0]["trace"]["params"].update(shape=[True] * 24),
                 "shape", id="shape_booleans"),
    pytest.param(lambda o: _meters(o)[0]["trace"]["params"].update(shape=[1.5] * 24),
                 "shape", id="shape_fractions"),
    pytest.param(lambda o: _meters(o)[0]["trace"]["params"].update(shape="1" * 24),
                 "shape", id="shape_a_string"),
    pytest.param(lambda o: _meters(o)[0].update(quantm="5l"),
                 "'quantm'", id="unknown_meter_key"),
    pytest.param(lambda o: _meters(o)[0]["trace"]["params"].update(jiter_pct=50),
                 "'jiter_pct'", id="unknown_trace_param"),
    pytest.param(lambda o: o.update(horizn="1d"), "'horizn'", id="unknown_root_key"),
    pytest.param(lambda o: o["buildings"][0].update(visibility="full"),
                 "'visibility'", id="visibility_is_not_a_key"),
    pytest.param(lambda o: _meters(o)[0].update(links=[{"concentrator": 1, "los": 0.1}]),
                 "'los'", id="unknown_link_key"),
])
def test_malformed_scenario_value_is_one_config_error_line(tmp_path, capsys, edit, names):
    scn = _write_scenario(tmp_path)
    obj = json.loads(scn.read_text())
    edit(obj)
    scn.write_text(json.dumps(obj))
    assert main(["run", str(scn), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert names in err


@pytest.mark.parametrize("text", [
    pytest.param("[" * 200_000, id="nested_too_deeply"),
    pytest.param('{"seed": 1' + NOT_UTF8 + "}", id="not_utf8"),
])
def test_unparsable_scenario_is_one_config_error_line(tmp_path, capsys, text):
    scn = tmp_path / "scenario.json"
    scn.write_bytes(_encoded(text))
    assert main(["run", str(scn), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert str(scn) in err


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
    records = list(read_records(out / "events.ndjson"))
    kinds = {r.kind.value for r in records}
    assert "quantum_event" in kinds and "ti_reading" in kinds
    for rec in records:
        if rec.kind.value == "quantum_event":
            assert {"frame_hex", "links", "meter_id", "session"} <= set(rec.payload)
        if rec.kind.value == "ti_reading":
            assert {"meter_id", "poll_index", "register_du", "unit"} <= set(rec.payload)

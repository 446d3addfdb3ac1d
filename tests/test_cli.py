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
from collections import Counter
from pathlib import Path

import pytest

import risim
from risim.center import SessionLedger
from risim.cli import SWEEP_HEADER, main
from risim.config import load_scenario, parse_sweep_values
from risim.domain import device_name
from risim.eventlog import (
    EventKind,
    check_ledger_lines,
    read_events,
    replay_center,
)
from risim.simulation import _ti_polls_sent, detail_sweep, rmse_text

from oracles import emissions, from_json, read_csv, read_records

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: a lone 0xff byte, carried in a str as its surrogate escape
NOT_UTF8 = b"\xff".decode("utf-8", "surrogateescape")


def _encoded(text: str) -> bytes:
    """``text`` as UTF-8, with each surrogate escape back as its raw byte."""
    return text.encode("utf-8", "surrogateescape")


def _fresh_python(probe: str, *args: str) -> str:
    """What ``probe`` prints in a fresh interpreter that imports this risim."""
    src = str(Path(risim.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout


#: a probe's last line: the risim modules its interpreter has loaded, as JSON
_LOADED = "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('risim'))))"


def test_cli_import_leaves_numpy_out():
    # risim has no runtime dependency: a fresh interpreter that imports the
    # CLI must not pull in numpy
    out = _fresh_python("import sys, risim.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_import_risim_loads_no_submodule():
    # every submodule compiles in each fresh process that loads it, so the
    # package resolves its names on first use; dir() lists them all the same
    out = _fresh_python("import json, sys, risim\n"
                        "print(json.dumps(sorted(set(risim.__all__) - set(dir(risim)))))"
                        + _LOADED)
    assert out.splitlines() == ["[]", '["risim"]']


def test_a_home_module_is_an_attribute_of_the_package_on_first_use():
    out = _fresh_python("import json, sys, risim\n"
                        "print(risim.center.SessionLedger is risim.SessionLedger)" + _LOADED)
    assert out.splitlines() == ["True", '["risim", "risim.center", "risim.domain"]']


def test_loading_a_scenario_loads_only_the_loader_and_what_it_builds():
    out = _fresh_python("import json, sys, risim.config\nrisim.config.load_scenario(sys.argv[1])"
                        + _LOADED, str(SCENARIOS / "default.json"))
    assert json.loads(out) == ["risim", "risim.concentrator", "risim.config", "risim.domain",
                               "risim.meter", "risim.traces"]


def test_replay_loads_only_the_center_the_codec_and_the_log_reader(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(_write_scenario(tmp_path)), "--out", str(out)]) == 0
    # the module run as ``python -m risim.cli replay DIR`` runs it
    probe = ("import json, runpy, sys\n"
             "try:\n"
             "    runpy.run_module('risim.cli', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    assert exc.code == 0, exc.code" + _LOADED)
    replayed, loaded = _fresh_python(probe, "replay", str(out)).splitlines()
    assert replayed == "replay ok: 2 ledgers match"
    assert json.loads(loaded) == ["risim", "risim.center", "risim.domain", "risim.eventlog"]


def test_every_public_name_is_the_object_of_its_home_module():
    for name in risim.__all__:
        obj = getattr(risim, name)
        assert obj.__module__.startswith("risim."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_binds_every_public_name():
    names = {}
    exec("from risim import *", names)
    del names["__builtins__"]
    assert sorted(names) == risim.__all__
    assert all(value is getattr(risim, name) for name, value in names.items())


def _perfbench(name: str):
    """The module ``perfbench/{name}.py``, loaded by its path; it is listed in
    ``sys.modules``, where its dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        "0cf9f5c43779e397b49dc5a10569671e116332b7284a160ae977e3dc446479a4",
        "c6cdad60d342583c5c03953bf6eb10c09a99d7b9e71aa2dfd14e4645522d9f37",
        "674b2223c1423d9f576137f859ac7fa58f7c3dae167f944cd6cd638536ad3161",
    ),
    "night_idle.json": (
        "a7b9fc6e07ffd8e31fd4d87a4fc49aa511a980ebf7f7a294cea1ad7541608820",
        "1bc3b61047e6efbde9b910eccc32a634edab7c5910c1dd685615edd76642decb",
        "e65cd4ad9dd8303ef22ca1af8bf9c03f2715fe9b15fbe263b3acba1985c0748c",
    ),
    "zero_consumption_48h.json": (
        "501c2ff1e1ac7fb19e6145a175254c791c8623363f47ed56438e4c484fe8f514",
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
        "15b2db20782d64cb756edfa1ce4fd73bbecd0037559bb7a628e646e3f7cd4c88",
        "d3a12ff776f03c3793da1a784192101115c05f5339772a39d0018fcf7d854e7a",
        "e572afb90930980848e5a4b527eaae3ced4a2dd8489f952758b85cc910a81955",
    ),
    "idle_fleet": (
        "30d0bc474175ea73500291b347a2e33d082db4c5ba1e9ceaf670495336605ed9",
        "348d462a3cfa3863776df170760265a70daf9f922c3e30a5d7f66dcf6fd53818",
        "e4a89d97ceff868a5ab446b421e23493307e7f1a88c3010e4713e528084a4efb",
    ),
    "lossy_multipath": (
        "1bbd50238dc58ac92fe64b55f25054ccff583b8b1014a64be6ba45ab7adcd473",
        "50383073b57b71d755dc60e1cd84207d3ee605e10340c9c148550c80b0f6b62b",
        "accbed379f9b349862c78ac970bbe51af53fca48353d56f588d87e8af99b90f0",
    ),
}


@pytest.fixture(scope="module", params=sorted(WORKLOAD_DIGESTS))
def workload_run(request, tmp_path_factory):
    """(name, output directory) of one ``risim run`` per benchmark workload at seed 7."""
    workloads = _perfbench("workloads")
    base = tmp_path_factory.mktemp("workload")
    scenario = base / "scenario.json"
    scenario.write_text(json.dumps(workloads.WORKLOADS[request.param](7)))
    out = base / "out"
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("RI_SIM_SEED", raising=False)
        assert main(["run", str(scenario), "--out", str(out)]) == 0
    return request.param, out


def _gate_failures(out: Path, scenario: Path) -> list[str]:
    """The failures that perfbench's gate, ``artifacts.inspect_run``, finds
    in the run of ``scenario`` in ``out``, once every emission line is seen to
    carry the fields the gate reads of it: its ``kind``, and its payload's
    ``meter_id``, ``session`` and ``cumulative_quanta``."""
    artifacts = _perfbench("artifacts")
    for line in (out / "events.ndjson").read_text().splitlines():
        rec = json.loads(line)
        if rec["kind"] in ("quantum_event", "heartbeat"):
            assert {"meter_id", "session", "cumulative_quanta"} <= set(rec["payload"]), line
    facts = artifacts.ScenarioFacts.from_scenario(load_scenario(scenario))
    return artifacts.inspect_run(out, facts).failures


def test_the_benchmark_gate_passes_a_shipped_run(shipped_run):
    name, out = shipped_run
    assert _gate_failures(out, SCENARIOS / name) == []


def test_the_benchmark_gate_passes_a_workload_run(workload_run):
    _, out = workload_run
    assert _gate_failures(out, out.parent / "scenario.json") == []


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
    "district_week": {"radio": 4578, "uplink": 149, "ingest": 26117},
    "idle_fleet": {"radio": 46, "uplink": 0, "ingest": 2306},
    "lossy_multipath": {"radio": 29861, "uplink": 608, "ingest": 29676},
}


def test_benchmark_workloads_log_every_copy_once(workload_run):
    """Each emission line lists one entry per link of its meter, in the
    concentrator-id order of its meter line, and the entries of a run add
    up, stage by stage, to the copies the log used to give a line each."""
    workload, out = workload_run
    n_links = {sm.config.id: len(sm.links)
               for sm in load_scenario(out.parent / "scenario.json").meters()}
    fates = {"radio": 0, "uplink": 0, "ingest": 0}
    for rec in emissions(read_records(out / "events.ndjson")):
        links = rec.payload["links"]
        cids = [link[0] for link in links]
        assert len(links) == n_links[rec.payload["meter_id"]] and cids == sorted(set(cids))
        for link in links:
            fates[link[1] if len(link) == 2 else "ingest"] += 1
    assert fates == WORKLOAD_FATES[workload]


def test_a_run_walks_each_ledgers_lost_runs_once(tmp_path, monkeypatch):
    """``reconstruction_steps``, ``SessionLedger.reconstruct`` and each
    snapshot's ``gaps`` all read a ledger's lost runs; ``risim run --mode
    both`` on district_week walks its blocks for them once per ledger."""
    walks = Counter()
    find = SessionLedger._find_lost_runs

    def counted(ledger):
        walks[ledger.meter_id] += 1
        return find(ledger)
    monkeypatch.setattr(SessionLedger, "_find_lost_runs", counted)
    monkeypatch.delenv("RI_SIM_SEED", raising=False)
    workloads = _perfbench("workloads")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(workloads.WORKLOADS["district_week"](1)))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--mode", "both"]) == 0
    ledgers = [json.loads(line)["meter_id"]
               for line in (out / "ledgers.ndjson").read_text().splitlines()]
    assert len(ledgers) == 4
    assert walks == dict.fromkeys(ledgers, 1)


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
    """The ingest entries of an emission's links, [outcome, rx_time_ms];
    none for a meter line or a ``ti_reading``."""
    return [link for link in payload.get("links", ()) if len(link) == 2]


def _meter_line_of(lines: list[str], i: int) -> int:
    """The index of the meter line that heads the emission line ``lines[i]``."""
    return max(j for j in range(i) if json.loads(lines[j])["kind"] == "meter")


def _shift_rx_time(payload):
    _ingests(payload)[0][1] += 1


def _truncate_frame(payload):
    payload["frame_hex"] = payload["frame_hex"][:-4]


def _non_hex_frame(payload):
    payload["frame_hex"] = "zz" + payload["frame_hex"][2:]


def _odd_length_frame(payload):
    payload["frame_hex"] += "0"


def _drop_outcome(payload):
    del _ingests(payload)[0][0]


def _rx_time_a_string(payload):
    entry = _ingests(payload)[0]
    entry[1] = str(entry[1])


def _outcome_a_list_on_a_copy(payload):
    copies = [link for link in _ingests(payload) if link[0] == "duplicate"]
    if not copies:
        return False
    copies[0][0] = [copies[0][0]]


def _accepted_logged_as_duplicate(payload):
    accepted = [link for link in _ingests(payload) if link[0] == "accepted"]
    if not accepted:
        return False
    accepted[0][0] = "duplicate"


def _ingested(edit):
    """``edit`` of an emission's payload, made on an emission with an ingest entry."""
    return lambda obj: edit(obj["payload"]) if _ingests(obj["payload"]) else False


#: each kind tag of a 25-byte frame, to another kind's of that length:
#: cold and hot water, electricity and heat
_SAME_LENGTH_KIND = {1: 2, 2: 1, 3: 4, 4: 3}


def _other_kind(frame_hex: str) -> str:
    """A frame changed to the other kind of its length, which decodes."""
    frame = bytearray.fromhex(frame_hex)
    frame[1] = _SAME_LENGTH_KIND[frame[1]]
    return frame.hex()


def _frame_field(field, change, ingested):
    """An edit of an emission line's frame-derived ``field`` by ``change``,
    made on an emission with an ingest entry, or on one with none; it
    returns how replay names the field.  The resource is its meter line's,
    so its edit makes the frame one of another kind instead."""
    def edit(obj):
        if bool(_ingests(obj["payload"])) != ingested:
            return False
        if field == "resource":
            obj["payload"]["frame_hex"] = change(obj["payload"]["frame_hex"])
            return "its meter line's resource"
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
    "resource": _other_kind,
    "kind": lambda word: "heartbeat" if word == "quantum_event" else "quantum_event",
}
_RX_TIME_SHIFTED = _ingested(_shift_rx_time)


@pytest.mark.parametrize("log, tamper", [
    pytest.param("events.ndjson", _RX_TIME_SHIFTED, id="rx_time_shifted"),
    pytest.param("events.ndjson", _ingested(_truncate_frame), id="frame_truncated"),
    pytest.param("events.ndjson", _ingested(_non_hex_frame), id="frame_not_hex"),
    pytest.param("events.ndjson", _ingested(_odd_length_frame), id="frame_odd_length"),
    pytest.param("events.ndjson", _ingested(_drop_outcome), id="payload_key_missing"),
    pytest.param("events.ndjson", _ingested(_rx_time_a_string), id="rx_time_a_string"),
    pytest.param("events.ndjson", _ingested(_outcome_a_list_on_a_copy),
                 id="outcome_a_list_on_a_copy"),
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
    frame, or one of the fields its frame gives, its resource by way of its
    meter line, which fails naming the line, its seq and the field; one that
    returns False skips that emission for a later one.  A second concentrator, 5 ms slow, hears duplicate copies of
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
                     f"replay mismatch at {device_name('meter', json.loads(line)['meter_id'])}\n")
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


def _cids_reversed(cids):
    cids.reverse()


def _cid_repeated(cids):
    cids[1] = cids[0]


def _unknown_stage(links):
    links[0][:] = ["lost"]


def _unknown_outcome(links):
    links[0][0] = "refused"


def _ingest_without_rx_time(links):
    del links[0][1]


def _entry_with_its_concentrator(links):
    links[0].insert(0, 7)


def _entry_added(links):
    links.append(["radio"])


def _entry_removed(links):
    del links[0]


@pytest.mark.parametrize("edit, reason", [
    (_cids_reversed, "concentrators not in id order"),
    (_cid_repeated, "concentrators not in id order"),
    (_unknown_stage, "not a line EventLog writes"),
    (_unknown_outcome, "not a line EventLog writes"),
    (_ingest_without_rx_time, "not a line EventLog writes"),
    (_entry_with_its_concentrator, "not a line EventLog writes"),
    (_entry_added, "links are not one per concentrator of its meter line"),
    (_entry_removed, "links are not one per concentrator of its meter line"),
])
def test_replay_refuses_links_out_of_the_grammar(tmp_path, capsys, edit, reason):
    """A meter line's concentrator ids strictly increase, and an emission's
    links are one entry per concentrator of its meter line, in that order,
    each a drop stage or an outcome and a reception time: ids reversed or
    repeated on the meter line, a stage or outcome outside the vocabulary,
    an ingest with no reception time, an entry that names its concentrator,
    or an entry more or fewer than the meter line's concentrators, is one
    stderr line naming the line and its seq."""
    out, lines, i = _two_concentrator_run(tmp_path)
    key = "links"
    if edit in (_cids_reversed, _cid_repeated):
        i, key = _meter_line_of(lines, i), "concentrators"
    obj = json.loads(lines[i])
    edit(obj["payload"][key])
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"malformed log: {out / 'events.ndjson'} line {i + 1}: seq {i}: {reason}\n"


#: the ``seq`` field of an event line, which the payload before it cannot hold
_SEQ_FIELD = re.compile(r',"seq":\d+,')


def _renumbered(lines: list[str]) -> list[str]:
    """``lines`` with each line's ``seq`` set to its index."""
    return [_SEQ_FIELD.sub(f',"seq":{i},', line, count=1) for i, line in enumerate(lines)]


def _meter_blocks(lines: list[str]) -> list[tuple[int, int]]:
    """The [start, end) of each meter's lines, its meter line first; the
    ``ti`` lines after the last one are no meter's."""
    starts = [i for i, line in enumerate(lines) if json.loads(line)["kind"] == "meter"]
    ti = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "ti_reading")
    return list(zip(starts, [*starts[1:], ti]))


def _first_meter_line_deleted(lines):
    del lines[0]
    return 0, "an emission before any meter line"


def _meters_swapped(lines):
    (a, b), (_, c) = _meter_blocks(lines)
    lines[a:c] = lines[b:c] + lines[a:b]
    return a + c - b, "meter_id is not above the last meter line's"


def _an_emission_after_the_next_meters(lines):
    (_, b), (_, c) = _meter_blocks(lines)
    lines.insert(c - 1, lines.pop(b - 1))   # to the end of the next meter's lines
    return c - 1, "meter_id is not its meter line's"


def _a_meter_resumed_after_the_next_meters(lines):
    (a, b), (_, c) = _meter_blocks(lines)
    lines[c - 1:c - 1] = [lines[a], lines.pop(b - 1)]   # after the next meter's lines
    return c - 1, "meter_id is not above the last meter line's"


@pytest.mark.parametrize("edit", [_first_meter_line_deleted, _meters_swapped,
                                  _an_emission_after_the_next_meters,
                                  _a_meter_resumed_after_the_next_meters])
def test_replay_refuses_a_log_that_is_not_meter_major(tmp_path, capsys, edit):
    """A log whose lines are not one run per meter, meters in id order, each
    headed by its meter line, is one that ``risim run`` never writes: an
    emission with no meter line before it, two meters swapped, or a meter's
    lines split by the next meter's, with or without a second meter line of
    its own, are each one stderr line naming the line and its seq, with the
    lines renumbered so that ``seq`` runs on."""
    out, lines, _ = _two_concentrator_run(tmp_path)
    i, reason = edit(lines)
    (out / "events.ndjson").write_text("\n".join(_renumbered(lines)) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"malformed log: {out / 'events.ndjson'} line {i + 1}: seq {i}: {reason}\n"


def _earlier_format(lines: list[str]) -> list[str]:
    """A log as versions that wrote one line per copy wrote it: each
    emission line with its resource and without its links, then a ``drop``
    or ``center_ingest`` line per link, numbered on, and no meter lines."""
    old = []
    for line in _with_ids(lines):
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


def _with_ids(lines: list[str]) -> list[str]:
    """A log as versions with no meter lines wrote it: each emission line
    with its meter's resource, and each link entry with its concentrator id
    first, numbered on."""
    old = []
    for rec in emissions(map(from_json, lines)):
        old.append(json.dumps({"kind": rec.kind.value, "payload": rec.payload, "seq": len(old),
                               "sim_time_ms": rec.sim_time_ms},
                              sort_keys=True, separators=(",", ":")))
    return old


@pytest.mark.parametrize("kind", ["drop", "center_ingest", None, "ids"])
def test_replay_refuses_a_log_of_the_earlier_format(tmp_path, capsys, kind):
    """A ``drop`` or ``center_ingest`` line, which logs once gave each copy,
    in place of an emission line, or a whole log written in that format
    (``None``) or in the one with no meter lines, whose link entries name
    their concentrators (``ids``), is one ``malformed log`` line naming the
    line and its seq."""
    out, lines, _ = _two_concentrator_run(tmp_path)
    if kind is None:
        lines, i = _earlier_format(lines), 0
    elif kind == "ids":
        lines, i = _with_ids(lines), 0
    else:
        i, rec = next((i, rec) for i, line in enumerate(lines) if '"links"' in line
                      for rec in map(json.loads, _earlier_format(
                          [lines[_meter_line_of(lines, i)], line]))
                      if rec["kind"] == kind)
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
    assert (first[0], second[0]) == ("accepted", "duplicate")
    second[0] = "accepted"
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    _, cid = json.loads(lines[_meter_line_of(lines, i)])["payload"]["concentrators"]
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"malformed log: seq {i}: {device_name('concentrator', cid)}: "
        "outcome 'accepted', replay gives 'duplicate'\n")


def _forged_after_a_heard_line(tmp_path, forge):
    """Replay's exit code on the log of a two-concentrator run in which the
    frame of a cold-water meter's emission, after one the center heard, is
    replaced by ``forge`` of it; and the message due for that line."""
    out, lines, _ = _two_concentrator_run(tmp_path)
    heard = set()
    for i, line in enumerate(lines):
        obj = json.loads(line)
        payload = obj["payload"]
        if _ingests(payload):
            resource = json.loads(lines[_meter_line_of(lines, i)])["payload"]["resource"]
            if payload["meter_id"] in heard and resource == "cold_water":
                break
            heard.add(payload["meter_id"])
    payload["frame_hex"] = forge(bytes.fromhex(payload["frame_hex"])).hex()
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    code = main(["replay", str(out)])
    return code, (f"malformed log: {out / 'events.ndjson'} line {i + 1}: seq {i}: "
                    "its meter line's resource is not the one its frame_hex gives\n")


def test_replay_refuses_a_frame_of_another_length_than_its_meters(tmp_path, capsys):
    """A line whose frame is forged to gas, for a cold-water meter whose
    earlier lines the center holds, is one ``malformed log`` line naming the
    line and its seq: the frame is not of its meter line's resource, so it
    never reaches the ledger of the meter's 25-byte frames."""
    # gas is kind tag 5, with one quality field where water has two
    code, due = _forged_after_a_heard_line(
        tmp_path, lambda frame: frame[:1] + bytes([5]) + frame[2:17] + frame[19:])
    assert code == 1
    assert capsys.readouterr().err == due


def test_replay_refuses_a_frame_of_another_kind_of_its_meters_length(tmp_path, capsys):
    """A hot-water frame, 25 bytes like a cold-water one, logged under a
    cold-water meter that the center holds frames of, decodes and would be
    folded into its ledger; replay checks it against the meter line's
    resource and refuses it in one ``malformed log`` line."""
    code, due = _forged_after_a_heard_line(
        tmp_path, lambda frame: bytes.fromhex(_other_kind(frame.hex())))
    assert code == 1
    assert capsys.readouterr().err == due


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
    assert len(lines) == 9 and '"accepted",30000000000000000000]' in lines[1]
    capsys.readouterr()
    assert main(["replay", str(out)]) == 0
    assert capsys.readouterr().out == "replay ok: 1 ledgers match\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() reads integers of any length here")
@pytest.mark.parametrize("field", ["seq", "rx_time_ms", "concentrator"])
def test_replay_refuses_an_integer_too_long_to_read(tmp_path, capsys, field):
    """A 5,000-digit integer, as a line's ``seq``, as an ingest entry's
    reception time or as a meter line's concentrator id, matches the
    template, but int() refuses it (Python caps a conversion at 4,300
    digits): one line naming the line."""
    scn = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scn), "--out", str(out)])
    lines = (out / "events.ndjson").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if _ingests(json.loads(line)["payload"]))
    where = {"seq": '"seq":', "rx_time_ms": '"accepted",', "concentrator": '"concentrators":['}
    where = where[field]
    if field == "concentrator":
        i = _meter_line_of(lines, i)
    lines[i] = re.sub(f'{re.escape(where)}[0-9]+', where + "7" * 5000, lines[i], count=1)
    (out / "events.ndjson").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"malformed log: {out / 'events.ndjson'} line {i + 1}: seq {i}: " \
                  "an integer too long to read\n"


#: a number that the edits below write where a 5,000-digit integer goes,
#: since json.dumps refuses to write one
_TOO_LONG = 86_753_098_675_309


def _edited(lines, i, edit):
    """``lines[i]`` edited in place by ``edit`` of its JSON object."""
    obj = json.loads(lines[i])
    edit(obj)
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _disorder_then_a_long_cid(lines, i):
    j = _meter_line_of(lines, i)
    _edited(lines, j, lambda obj: obj["payload"]["concentrators"].reverse())
    _edited(lines, j, lambda obj: obj["payload"]["concentrators"].append(_TOO_LONG))
    return j, "an integer too long to read"


def _disorder_then_a_meter_id_not_above(lines, i):
    j = max(k for k, line in enumerate(lines) if json.loads(line)["kind"] == "meter")
    _edited(lines, j, lambda obj: obj["payload"]["concentrators"].reverse())
    _edited(lines, j, lambda obj: obj["payload"].update(meter_id=0))
    return j, "concentrators not in id order"


def _a_long_rx_time_then_an_entry_more(lines, i):
    _edited(lines, i, lambda obj: obj["payload"]["links"].append(["radio"]))
    _edited(lines, i, lambda obj: obj["payload"]["links"][0].__setitem__(1, _TOO_LONG))
    return i, "an integer too long to read"


def _another_meter_id_than_its_frames_and_its_meter_lines(lines, i):
    _edited(lines, i, lambda obj: obj["payload"].update(meter_id=obj["payload"]["meter_id"] + 1))
    return i, "meter_id is not the one its frame_hex gives"


def _an_entry_more_then_another_kind(lines, i):
    _edited(lines, i, lambda obj: obj["payload"]["links"].append(["radio"]))
    _edited(lines, i, lambda obj: obj["payload"].update(
        frame_hex=_other_kind(obj["payload"]["frame_hex"])))
    return i, "links are not one per concentrator of its meter line"


def _a_long_rx_time_and_a_wrong_seq(lines, i):
    _edited(lines, i, lambda obj: obj["payload"]["links"][0].__setitem__(1, _TOO_LONG))
    _edited(lines, i, lambda obj: obj.update(seq=obj["seq"] + 5))
    return i, "an integer too long to read"


def _odd_frame_hex_and_a_wrong_seq(lines, i):
    _edited(lines, i, lambda obj: obj["payload"].update(
        frame_hex=obj["payload"]["frame_hex"][:-1]))
    _edited(lines, i, lambda obj: obj.update(seq=obj["seq"] + 5))
    return i, "not a line EventLog writes"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() reads integers of any length here")
@pytest.mark.parametrize("edit", [_disorder_then_a_long_cid, _disorder_then_a_meter_id_not_above,
                                  _a_long_rx_time_then_an_entry_more,
                                  _another_meter_id_than_its_frames_and_its_meter_lines,
                                  _an_entry_more_then_another_kind,
                                  _a_long_rx_time_and_a_wrong_seq, _odd_frame_hex_and_a_wrong_seq])
def test_replay_gives_a_line_with_two_faults_one_message(tmp_path, capsys, edit):
    """A line with two faults gets the message of the one that comes first
    in the order that ``read_events`` states, wherever each sits on the line:
    a line that is not one EventLog writes, then an integer too long to
    read, then a ``seq`` that is not the due one; on a meter line, then
    concentrators out of order before a meter id not above the last; on an
    emission line, a field that is not its frame's before a meter id that
    is not its meter line's, and a count of links not its meter line's
    before a frame of another resource."""
    out, lines, i = _two_concentrator_run(tmp_path)
    i, reason = edit(lines, i)
    lines[i] = lines[i].replace(str(_TOO_LONG), "7" * 5000)
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
    first = next(i for i, line in enumerate(lines) if '"links":[["radio"]]' in line)
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
        assert capsys.readouterr().err == (
            f"replay mismatch at {device_name('meter', snap['meter_id'])}\n")


def _repeat_first_ledger(lines):
    lines.append(lines[0])
    return (f"replay mismatch at ledgers.ndjson line {len(lines)}: "
            f"replay rebuilt {len(lines) - 1} ledgers")


def _swap_first_ledgers(lines):
    lines[0], lines[1] = lines[1], lines[0]
    return "\n".join(f"replay mismatch at {device_name('meter', json.loads(line)['meter_id'])}"
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
    return first + "\n", [
        f"replay mismatch at {device_name('meter', json.loads(line)['meter_id'])}: "
        "ledgers.ndjson has no line for it" for line in rest.splitlines()]


def _ledgers_cut_in_the_last_line(text):
    last = text.splitlines()[-1]
    return text[:-len(last) // 2], [
        f"replay mismatch at {device_name('meter', json.loads(last)['meter_id'])}"]


def _ledgers_without_the_last_newline(text):
    last = text.splitlines()[-1]
    return text[:-1], [f"replay mismatch at {device_name('meter', json.loads(last)['meter_id'])}"]


def _ledgers_empty(text):
    return "", [f"replay mismatch at {device_name('meter', json.loads(line)['meter_id'])}: "
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
    assert mismatches == [device_name('meter', json.loads(lines[0])['meter_id']),
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


def test_sweep_dt_rows_are_the_polling_sweep(tmp_path):
    """``sweep --param dt`` writes ``detail_sweep``'s rows, one per poll
    interval, and counts the polls every meter sent: the second meter's
    battery lasts 6 polls."""
    scn = _write_scenario(tmp_path, buildings=[{
        "concentrators": [{"serial": 1}],
        "meters": [
            {"serial": 1, "kind": "cold_water",
             "trace": {"kind": "diurnal", "params": {"daily_total": "200l"}}},
            {"serial": 2, "kind": "electricity", "quantum": "10Wh", "battery_capacity": 5.5,
             "trace": {"kind": "constant", "params": {"rate": "500Wh/h"}}},
        ],
    }])
    out = tmp_path / "sw"
    assert main(["sweep", str(scn), "--param", "dt",
                 "--values", "7min,15min,1h", "--out", str(out)]) == 0
    scenario = load_scenario(scn)
    values = parse_sweep_values("dt", "7min,15min,1h")
    header, rows = read_csv(out / "sweep.csv")
    assert header == SWEEP_HEADER
    assert [list(r.values()) for r in rows] == [
        [str(r.value), r.label, rmse_text(r.mean_square_du), str(r.message_count),
         str(r.bytes_sent)]
        for r in detail_sweep(scenario, "dt", values)]
    polls = [sum(_ti_polls_sent(sm.config, dt, scenario.horizon_ms // dt)
                 for sm in scenario.meters()) for dt, _ in values]
    assert polls == [102 + 6, 48 + 6, 12 + 6]
    assert [int(r["message_count"]) for r in rows] == polls


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

"""Reference helpers that only tests call, kept out of the package so the
oracles share no code with what they check beyond the trace's own
``cumulative_du`` and generator, the frame decoder, the seed mixer, the
result types and ``rmse_text``, whose rounding a property of its own
checks.  The package has one packer of frames (``frame_builder``) and
one writer of event lines (``EventLog``); ``reference_frame`` and
``EventLogRecord.to_json`` are the independent renderings they are checked
against.  ``snapshot`` and ``accepted_sessions`` are no oracles: they read a
ledger's own ``ledgers.ndjson`` line back, for assertions on its fields."""

from __future__ import annotations

import csv
import json
import math
import random
import struct
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator, NamedTuple

from risim.center import IngestOutcome, ReconstructionResult, SessionLedger
from risim.domain import (
    BASE_UNIT,
    FLAG_CLOCKLESS_IDLE,
    FLAG_SENSOR_FAULT,
    FLAG_TAMPER,
    FRAME_VERSION,
    MS_PER_HOUR,
    NOMINAL_QUALITY_DU,
    SESSION_MOD,
    ConcentratorReport,
    MessageType,
    MeterMessage,
    MeterState,
    QualityVector,
    ResourceKind,
    decode_frame,
    whole_number,
)
from risim.eventlog import EventKind, MalformedLog, write_events
from risim.meter import MeterConfig, MeterRun
from risim.simulation import ScenarioConfig, rmse_text
from risim.traces import CHANNEL_STREAM, ConsumptionTrace, generate_trace, mix_seed


def battery_lifetime(cfg: MeterConfig, trace: ConsumptionTrace) -> int | None:
    """Simulated time at which the battery reaches zero.

    Returns None when the battery outlasts the trace horizon, as an explicit
    survives-the-window marker rather than a sentinel number.
    """
    run = MeterRun(cfg, trace)
    for _ in run.events():
        pass
    return run.depleted_at_ms


class SessionRow(NamedTuple):
    """One accepted session as its snapshot row."""

    session: int
    rx_time_ms: int
    rx_concentrator: int
    type: MessageType
    cumulative_quanta: int
    report_count: int


def snapshot(ledger: SessionLedger) -> dict:
    """A ledger's snapshot as a dict: its ``ledgers.ndjson`` line read back."""
    return json.loads("".join(ledger.snapshot_text()))


def accepted_sessions(ledger: SessionLedger) -> list[SessionRow]:
    """Every accepted session of a ledger as its snapshot row, in session order."""
    return [SessionRow(**{**row, "type": MessageType(row["type"])})
            for row in snapshot(ledger)["sessions"]]


def accepted_count(ledger: SessionLedger) -> int:
    return len(accepted_sessions(ledger))


def consumed_between(trace: ConsumptionTrace, a_ms, b_ms) -> Fraction:
    return trace.cumulative_du(b_ms) - trace.cumulative_du(a_ms)


def total_du(trace: ConsumptionTrace) -> Fraction:
    return trace.cumulative_du(trace.horizon_ms)


def scaled(trace: ConsumptionTrace, factor) -> ConsumptionTrace:
    """Same shape with every rate multiplied by ``factor``."""
    f = Fraction(factor)
    if f < 0:
        raise ValueError("scale factor must be nonnegative")
    return ConsumptionTrace(
        trace.meter_id,
        tuple((t, r * f) for t, r in trace.breakpoints),
        trace.horizon_ms,
    )


#: the wire tags of protocol.md's frame layout
_KIND_TAGS = {ResourceKind.COLD_WATER: 1, ResourceKind.HOT_WATER: 2, ResourceKind.ELECTRICITY: 3,
              ResourceKind.HEAT: 4, ResourceKind.GAS: 5, ResourceKind.GENERIC_SENSOR: 6}
_TYPE_TAGS = {MessageType.QUANTUM_EVENT: 1, MessageType.HEARTBEAT: 2}


def reference_frame(msg: MeterMessage) -> bytes:
    """A message's wire frame, packed field by field from protocol.md's layout:
    the header, the quality block and the trailer, one ``struct.pack`` each."""
    head = struct.pack("<BBBQI", FRAME_VERSION, _KIND_TAGS[msg.kind],
                       _TYPE_TAGS[msg.message_type], msg.meter_id, msg.session)
    qual = struct.pack(f"<{len(msg.quality.values)}h", *msg.quality.values)
    st = msg.state
    flags = ((FLAG_TAMPER if st.tamper_flag else 0)
             | (FLAG_SENSOR_FAULT if st.sensor_fault else 0)
             | (FLAG_CLOCKLESS_IDLE if st.clockless_idle else 0))
    tail = struct.pack("<BBI", st.battery, flags, st.cumulative_quanta % 2**32)
    return head + qual + tail


def frame_type(data: bytes) -> MessageType:
    """The message type of a well-formed frame: its byte 2."""
    return next(mtype for mtype, tag in _TYPE_TAGS.items() if tag == data[2])


def frame_quanta(data: bytes) -> int:
    """The cumulative quanta of a well-formed frame: its last 4 bytes."""
    return int.from_bytes(data[-4:], "little")


@dataclass(frozen=True)
class EventLogRecord:
    """One simulator event; ``payload`` holds the kind-specific fields.
    ``to_json`` is the reference rendering of an event line: the package
    writes its lines from ``EventLog``'s templates, and each must be the
    line that ``to_json`` gives for the record it parses to."""

    seq: int
    sim_time_ms: int
    kind: EventKind
    payload: dict

    def __post_init__(self) -> None:
        if self.seq < 0 or self.sim_time_ms < 0:
            raise ValueError("sequence number and time must be nonnegative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "payload": self.payload,
                "seq": self.seq,
                "sim_time_ms": self.sim_time_ms,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def from_json(line: str) -> EventLogRecord:
    """A log line read back as a record, by ``json.loads``: the reference
    reader, which also takes lines that no ``EventLog`` template writes."""
    obj = json.loads(line)
    if not isinstance(obj["payload"], dict):
        raise ValueError("payload is not a JSON object")
    return EventLogRecord(
        seq=whole_number(obj["seq"], "seq"),
        sim_time_ms=whole_number(obj["sim_time_ms"], "sim_time_ms"),
        kind=EventKind(obj["kind"]),
        payload=obj["payload"],
    )


def record_sink(records: list):
    """An ``EventLog`` sink that parses each line it is given back into a
    record, through ``from_json``, and appends it to ``records``."""
    return lambda line: records.append(from_json(line))


def write_records(path: Path, records) -> Path:
    """Write ``records`` to ``path`` as an event log, one ``to_json`` line each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_events(fh, records)
    return path


def read_records(path: Path) -> Iterator[EventLogRecord]:
    """Every record of an event log, one line at a time, each read as JSON by
    ``from_json``; ``seq`` must run 0, 1, 2, ...  This is the whole-record
    reader that ``read_events``'s per-kind patterns replaced, with its
    acceptance and its messages."""
    seq = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    rec = from_json(line.decode("utf-8"))
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    raise MalformedLog(f"{path} line {lineno}: not a record: {exc}") from None
                if rec.seq != seq:
                    raise MalformedLog(f"{path} line {lineno}: seq {rec.seq}, expected {seq}")
                seq += 1
                yield rec


#: each kind's payload fields, as ``EventLog`` writes them: "whole" is an int
#: of at least 0, "signed" any int, "hex" lowercase hex of whole bytes,
#: "links" a list of link entries, and a set is the words the field may hold
_EMISSION_FIELDS = {"cumulative_quanta": "whole", "frame_hex": "hex", "links": "links",
                    "meter_id": "whole", "resource": {kind.value for kind in ResourceKind},
                    "session": "whole"}
_TEMPLATE_FIELDS = {
    EventKind.QUANTUM_EVENT: _EMISSION_FIELDS,
    EventKind.HEARTBEAT: _EMISSION_FIELDS,
    EventKind.TI_READING: {"meter_id": "whole", "poll_index": "whole", "register_du": "signed",
                           "unit": set(BASE_UNIT.values())},
}
#: the fields of a link entry after its concentrator id, by the entry's length
_LINK_FIELDS = {2: ({"radio", "uplink"},),
                3: ({outcome.value for outcome in IngestOutcome}, "signed")}


def _has_type(value, field_type) -> bool:
    if field_type == "hex":
        try:
            return type(value) is str and bytes.fromhex(value).hex() == value
        except ValueError:
            return False
    if field_type in ("whole", "signed"):
        return type(value) is int and (field_type == "signed" or value >= 0)
    if field_type == "links":
        return type(value) is list and all(
            type(link) is list and len(link) in _LINK_FIELDS and _has_type(link[0], "whole")
            and all(map(_has_type, link[1:], _LINK_FIELDS[len(link)])) for link in value)
    return type(value) is str and value in field_type


def is_written_line(line: bytes) -> bool:
    """Whether ``line`` is one that an ``EventLog`` template writes: its bytes
    are ``from_json(line).to_json()`` and a newline, its payload keys are its
    kind's, and every value is of its field's type and vocabulary."""
    try:
        rec = from_json(line.decode("utf-8"))
    except (KeyError, TypeError, ValueError, RecursionError):
        return False
    fields = _TEMPLATE_FIELDS[rec.kind]
    return ((rec.to_json() + "\n").encode() == line and set(rec.payload) == set(fields)
            and all(_has_type(rec.payload[key], kind) for key, kind in fields.items()))


def links_in_order(rec: EventLogRecord) -> bool:
    """Whether a record's ``links``, if it has any, name strictly increasing
    concentrator ids: one entry per link of the meter, in concentrator-id order."""
    cids = [link[0] for link in rec.payload.get("links", ())]
    return all(a < b for a, b in zip(cids, cids[1:]))


def reference_ingests(path: Path) -> Iterator[tuple]:
    """(seq, frame, header, copies) of each emission with an ingest entry in
    the log at ``path``, where ``copies`` is (concentrator_id, rx_time_ms,
    logged outcome) per ingest entry, read by ``read_records`` with the
    field checks and messages that replay made on whole records.  Each
    emission's frame is decoded by ``decode_frame``, its header is the
    decoded message's (kind, message type, meter id, session, cumulative
    quanta), and those are compared with the line's fields; the line of a
    record is taken to be its ``seq`` + 1, as in a log with no blank line."""
    for rec in read_records(path):
        if rec.kind is EventKind.TI_READING:
            continue
        try:
            frame = bytes.fromhex(rec.payload["frame_hex"])
            msg = decode_frame(frame)
            header = (msg.kind, msg.message_type, msg.meter_id, msg.session,
                      msg.state.cumulative_quanta)
            for field, derived in zip(("resource", "kind", "meter_id", "session",
                                       "cumulative_quanta"), header):
                logged = rec.kind if field == "kind" else rec.payload[field]
                if logged != derived:
                    raise MalformedLog(f"{path} line {rec.seq + 1}: seq {rec.seq}: {field} is "
                                       "not the one its frame_hex gives")
            copies = [(whole_number(link[0], "concentrator_id"),
                       whole_number(link[2], "rx_time_ms"), link[1])
                      for link in rec.payload["links"] if len(link) == 3]
        except MalformedLog:
            raise
        except KeyError as exc:
            raise MalformedLog(f"seq {rec.seq}: payload has no {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise MalformedLog(f"seq {rec.seq}: {exc}") from None
        if copies:
            yield rec.seq, frame, header, copies


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    """A CSV file's header and its rows as dicts keyed by that header."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames or []), rows


class ReferenceCenter:
    """A monitoring center written from the protocol's rules, to check
    ``MonitoringCenter`` against.

    It is told each report's true session index, counted from the meter's
    installation at 0, so it never unrolls a wire number.  It decodes every
    frame with ``decode_frame`` and keeps each session under its index: the
    bytes that arrived first, and per concentrator that sent those bytes the
    reception time of its first report of them; a later report from that
    concentrator is stale.  The session's reception is the earliest copy,
    the lowest concentrator id breaking a tie.  The lost sessions are
    the indices from 0 up to the highest kept one that nothing was kept
    under.  A snapshot writes an index as its wire number, the index modulo
    ``modulus``, the session counter's range.
    """

    def __init__(self, quantum_du: dict[int, int], modulus: int = 2**32) -> None:
        self.quantum_du = quantum_du   # every registered meter and its quantum
        self.modulus = modulus
        self.sessions: dict[int, dict[int, dict]] = {}   # meter -> index -> session
        self.conflicts: dict[int, set[int]] = {}          # meter -> indices

    def ingest(self, index: int, report: ConcentratorReport) -> str:
        """The outcome of one report: accepted, duplicate, stale or conflict."""
        msg = decode_frame(report.frame)
        sessions = self.sessions.setdefault(msg.meter_id, {})
        kept = sessions.get(index)
        if kept is None:
            sessions[index] = {"frame": report.frame, "message": msg,
                               "copies": {report.concentrator_id: report.rx_time_ms}}
            return "accepted"
        if report.frame != kept["frame"]:
            self.conflicts.setdefault(msg.meter_id, set()).add(index)
            return "conflict"
        if report.concentrator_id in kept["copies"]:
            return "stale"
        kept["copies"][report.concentrator_id] = report.rx_time_ms
        return "duplicate"

    @staticmethod
    def _received(session: dict) -> tuple[int, int]:
        """(reception time, concentrator) of a session's earliest copy."""
        return min((rx_time, concentrator) for concentrator, rx_time in session["copies"].items())

    def lost_runs(self, meter: int) -> list[tuple[int, int, dict | None, dict]]:
        """(first index, count, session before, session after) of every
        maximal run of lost indices; the run from 0 has no session before."""
        sessions = self.sessions.get(meter, {})
        runs = []
        for index in sorted(sessions):
            previous = max((i for i in sessions if i < index), default=-1)
            if index - previous > 1:
                runs.append((previous + 1, index - previous - 1,
                             sessions.get(previous), sessions[index]))
        return runs

    def snapshot(self, meter: int) -> dict:
        sessions = self.sessions[meter]
        rows = []
        for index in sorted(sessions):
            session = sessions[index]
            rx_time, concentrator = self._received(session)
            rows.append({
                "session": index % self.modulus,
                "rx_time_ms": rx_time,
                "rx_concentrator": concentrator,
                "type": session["message"].message_type,
                "cumulative_quanta": session["message"].state.cumulative_quanta,
                "report_count": len(session["copies"]),
            })
        return {
            "meter_id": meter,
            "initial_session": 0,
            "first_covered": 0,
            "highest_session": max(sessions) % self.modulus,
            "sessions": rows,
            "gaps": [[first % self.modulus, count]
                     for first, count, _, _ in self.lost_runs(meter)],
            "conflicts": sorted(i % self.modulus for i in self.conflicts.get(meter, ())),
        }

    def snapshots(self) -> list[dict]:
        return [self.snapshot(meter) for meter in sorted(self.sessions)]

    def ledgers_text(self) -> str:
        """``ledgers.ndjson`` as whole lines: each snapshot through ``json.dumps``."""
        return "".join(json.dumps(snap, sort_keys=True, separators=(",", ":")) + "\n"
                       for snap in self.snapshots())

    def lost_quanta(self, meter: int) -> list[tuple[int, int, int]]:
        """(t_lo, t_hi, quanta) of every lost run: the reception times of the
        sessions bounding it, time zero below the run from 0, and the quantum
        events it lost, the difference of their lifetime counters modulo
        2**32 less the upper bound's own quantum."""
        out = []
        for _, _, before, after in self.lost_runs(meter):
            t_lo, base = ((0, 0) if before is None else
                          (self._received(before)[0], before["message"].state.cumulative_quanta))
            lost = (after["message"].state.cumulative_quanta - base) % 2**32
            lost -= after["message"].message_type is MessageType.QUANTUM_EVENT
            out.append((t_lo, self._received(after)[0], lost))
        return out

    def steps(self, meter: int) -> list[tuple[int | Fraction, int]]:
        """(time, deciunits) jumps of a meter's reconstructed curve: a quantum
        at the reception of each kept quantum event, and one at each quantum
        a run lost, the quanta cutting [t_lo, t_hi] into equal parts, or all
        at t_lo when a skewed clock stamped t_hi <= t_lo."""
        quantum = self.quantum_du[meter]
        jumps = [(self._received(s)[0], quantum) for s in self.sessions.get(meter, {}).values()
                 if s["message"].message_type is MessageType.QUANTUM_EVENT]
        for t_lo, t_hi, lost in self.lost_quanta(meter):
            jumps.extend((t_lo + Fraction(max(t_hi - t_lo, 0) * i, lost + 1), quantum)
                         for i in range(1, lost + 1))
        return jumps

    def reconstruct(self, meter: int, window: tuple[int, int]) -> ReconstructionResult:
        """Received quanta inside the window, plus each lost run's quanta
        (the difference of its bounding lifetime counters, modulo 2**32,
        less the bound's own quantum) when the run lies inside the window,
        or as trailing uncertainty when it straddles the window's end."""
        t0, t1 = window
        quantum = self.quantum_du[meter]
        sessions = self.sessions.get(meter, {})
        received = sum(1 for s in sessions.values()
                       if s["message"].message_type is MessageType.QUANTUM_EVENT
                       and t0 <= self._received(s)[0] <= t1)
        recovered = trailing = 0
        for t_lo, t_hi, lost in self.lost_quanta(meter):
            if lost > 0 and t0 <= t_lo:
                if t_hi <= t1:
                    recovered += lost
                elif t_lo <= t1:
                    trailing += lost
        return ReconstructionResult(meter, window, received, recovered,
                                    (received + recovered) * quantum, trailing * quantum)

    def reconstruct_all(self, window: tuple[int, int]) -> list[ReconstructionResult]:
        return [self.reconstruct(meter, window) for meter in sorted(self.quantum_du)]


# ---------------------------------------------------------------------------
# reference schedule: the per-step state machine MeterRun's closed form replaced


def _message(cfg: MeterConfig, battery: Fraction, quanta: int, session: int,
             mtype: MessageType) -> MeterMessage:
    """The frame of one transmission, after it spent ``tx_cost``: the
    battery byte is ``round`` of an exact ``Fraction``, ties to even."""
    return MeterMessage(
        meter_id=cfg.id,
        session=session % SESSION_MOD,
        kind=cfg.kind,
        message_type=mtype,
        quality=QualityVector(cfg.kind, NOMINAL_QUALITY_DU[cfg.kind]),
        state=MeterState(
            battery=round(max(battery, 0) * 200 / cfg.battery_capacity),
            cumulative_quanta=quanta % 2**32,
        ),
    )


@dataclass(frozen=True)
class MeterRuntime:
    """Mutable-by-replacement device state between transmissions."""

    residual_du: Fraction
    next_session: int
    last_tx_ms: int
    battery_remaining: Fraction
    cumulative_quanta: int

    @classmethod
    def installed(cls, cfg: MeterConfig) -> MeterRuntime:
        return cls(Fraction(0), 0, 0, cfg.battery_capacity, 0)


def effective_quantum_du(cfg: MeterConfig, rt: MeterRuntime) -> Fraction:
    """Current emission threshold: the nominal quantum inflated by drift."""
    return cfg.quantum_du * (1 + cfg.drift_rate * Fraction(rt.cumulative_quanta))


def ingest_flow(rt: MeterRuntime, cfg: MeterConfig, amount_du,
                now_ms: int) -> tuple[MeterRuntime, list[MeterMessage]]:
    """Register ``amount_du`` ending at ``now_ms``: one message per crossing.

    A dead battery neither emits nor accumulates.
    """
    amount = Fraction(amount_du)
    if rt.battery_remaining <= 0:
        return rt, []
    residual = rt.residual_du + amount
    session = rt.next_session
    battery = rt.battery_remaining
    quanta = rt.cumulative_quanta
    messages: list[MeterMessage] = []
    while True:
        eff = cfg.quantum_du * (1 + cfg.drift_rate * Fraction(quanta))
        if residual < eff:
            break
        if battery <= 0:
            residual = Fraction(0)  # sensor died mid-stream; the rest is lost
            break
        residual -= eff
        quanta += 1
        battery -= cfg.tx_cost
        messages.append(_message(cfg, battery, quanta, session, MessageType.QUANTUM_EVENT))
        session += 1
    rt = replace(
        rt,
        residual_du=residual,
        next_session=session,
        battery_remaining=battery,
        cumulative_quanta=quanta,
        last_tx_ms=now_ms if messages else rt.last_tx_ms,
    )
    return rt, messages


def heartbeat_check(rt: MeterRuntime, cfg: MeterConfig,
                    now_ms: int) -> tuple[MeterRuntime, MeterMessage | None]:
    """Emit a liveness message if the meter has been silent a full interval."""
    if rt.battery_remaining <= 0:
        return rt, None
    if now_ms - rt.last_tx_ms < cfg.heartbeat_interval_ms:
        return rt, None
    battery = rt.battery_remaining - cfg.tx_cost
    msg = _message(cfg, battery, rt.cumulative_quanta, rt.next_session, MessageType.HEARTBEAT)
    rt = replace(
        rt,
        next_session=rt.next_session + 1,
        battery_remaining=battery,
        last_tx_ms=now_ms,
    )
    return rt, msg


class _StepRun:
    """Reference schedule: step to the next crossing, deadline or segment end.

    Each step registers the flow up to the next instant through
    ``ingest_flow`` and then calls ``heartbeat_check``, both at the first
    whole millisecond at or after the instant.
    """

    def __init__(self, cfg: MeterConfig, trace: ConsumptionTrace) -> None:
        self.cfg = cfg
        self.trace = trace
        self.runtime = MeterRuntime.installed(cfg)
        self.depleted_at_ms: int | None = None
        self.instants: list[Fraction] = []  # exact instant of each frame

    @property
    def battery_remaining(self) -> Fraction:
        return self.runtime.battery_remaining

    def events(self):
        cfg = self.cfg
        if self.runtime.battery_remaining <= 0:
            self.depleted_at_ms = 0
            return
        cursor = Fraction(0)
        for _, seg_end, rate in self.trace.segments():
            while cursor < seg_end:
                # step to the segment end, the heartbeat deadline or the
                # crossing, whichever comes first; a crossing at the deadline
                # transmits and so resets it
                rt = self.runtime
                step_to = min(seg_end, rt.last_tx_ms + cfg.heartbeat_interval_ms)
                if rate > 0:
                    need = effective_quantum_du(cfg, rt) - rt.residual_du
                    step_to = min(step_to, cursor + need * MS_PER_HOUR / rate)
                if not self._drain_until(cursor, step_to):
                    return
                now = math.ceil(step_to)
                amount = rate * (step_to - cursor) / MS_PER_HOUR
                rt, msgs = ingest_flow(self.runtime, cfg, amount, now)
                rt, heartbeat = heartbeat_check(rt, cfg, now)
                self.runtime = rt
                for msg in msgs:
                    self.instants.append(step_to)
                    yield now, msg
                if heartbeat is not None:
                    self.instants.append(step_to)
                    yield now, heartbeat
                cursor = step_to
                if rt.battery_remaining <= 0:
                    self.depleted_at_ms = now
                    return

    def _drain_until(self, t_from: Fraction, t_to) -> bool:
        """Apply idle drain over [t_from, t_to); False when the battery dies."""
        cfg = self.cfg
        rt = self.runtime
        if cfg.idle_drain_per_hour == 0 or t_to <= t_from:
            return True
        death = t_from + rt.battery_remaining * MS_PER_HOUR / cfg.idle_drain_per_hour
        if death <= t_to:
            self.runtime = replace(rt, battery_remaining=Fraction(0))
            self.depleted_at_ms = math.ceil(death)
            return False
        spent = cfg.idle_drain_per_hour * (Fraction(t_to) - t_from) / MS_PER_HOUR
        self.runtime = replace(rt, battery_remaining=rt.battery_remaining - spent)
        return True


# ---------------------------------------------------------------------------
# reference run: run_ri's records and ledgers from protocol.md


def grid_mean_square(trace: ConsumptionTrace | None, steps, grid_ms: int,
                     horizon_ms: int) -> Fraction:
    """The mean squared error of a (time, increment) step curve against the
    trace on the metric grid, by walking every grid point and evaluating the
    trace there."""
    if horizon_ms == 0 or trace is None:
        return Fraction(0)
    ordered = sorted(steps, key=lambda s: s[0])
    acc = Fraction(0)
    n = 0
    level = 0
    idx = 0
    for t in range(0, horizon_ms + 1, grid_ms):
        while idx < len(ordered) and ordered[idx][0] <= t:
            level += ordered[idx][1]
            idx += 1
        err = trace.cumulative_du(t) - level
        acc += err * err
        n += 1
    return acc / n


class ReferenceRun:
    """``run_ri`` and ``run_ti`` written from protocol.md's rules, to check them
    against.

    Each meter's frames come from ``_StepRun``, packed by
    ``reference_frame``.  All emissions are taken in (time, meter, session)
    order, and one ``random.Random(mix_seed(seed, CHANNEL_STREAM))`` decides
    every copy: all radio draws of an emission in concentrator-id order,
    then one uplink draw for each heard copy whose concentrator's uplink
    loss is above 0, again in concentrator-id order.  A draw below its loss,
    compared as exact fractions, loses the copy.  Each delivered copy reaches
    a ``ReferenceCenter`` at the emission time plus its concentrator's skew,
    with its true session index.  The emission's record lists each copy's
    fate as its ``links``, in concentrator-id order: its drop stage, or the
    center's outcome and the reception time.

    Polls go out at k · poll interval, k = 1, 2, ... up to the horizon, to
    every meter in meter id order.  A meter's battery is stepped poll by
    poll: it loses the idle drain of each interval, and a poll is sent, and
    costs ``tx_cost``, only while the battery is above zero before it.  The
    reading is the whole deciunits the trace has consumed by the poll.
    """

    def __init__(self, scenario: ScenarioConfig) -> None:
        self.scenario = scenario
        self.center = ReferenceCenter(
            {sm.config.id: sm.config.quantum_du for sm in scenario.meters()})

    def records(self, mode: str = "ri"):
        """The log records of a run in ``mode`` (``ri``, ``ti`` or ``both``) as
        dicts: ``seq``, ``sim_time_ms``, ``kind`` and ``payload``, in log
        order; under ``both`` the ``ti`` records are numbered on from the
        last ``ri`` one."""
        parts = {"ri": (self._ri,), "ti": (self._ti,), "both": (self._ri, self._ti)}[mode]
        seq = 0
        for part in parts:
            for t, kind, payload in part():
                yield {"seq": seq, "sim_time_ms": t, "kind": kind, "payload": payload}
                seq += 1

    def metrics_rows(self) -> list[list[str]]:
        """The rows of ``metrics.csv`` of a run in ``both`` mode, as text.  They
        are built from this run's records, which it reads itself, so it is
        called on a ReferenceRun whose records have not been read.

        An ``ri`` row per meter, in meter id order, counts by reception time
        over ``[min(0, smallest skew), horizon + max(0, largest skew)]``, with
        the center's reconstruction of that window, and its step curve is the
        center's ``steps``.  Then a ``ti`` row per meter: its amount is the
        last register, and its step curve jumps by each register increment at
        its poll.  A row's messages are the meter's records, its bytes those
        of their frames, or 23 per reading, and ``rmse_du`` is ``rmse_text``
        of the grid walk's mean square."""
        sc = self.scenario
        records = list(self.records("both"))
        traces = self._traces()
        skews = [c.clock_skew_ms for c in sc.concentrators()]
        window = (min(0, *skews), sc.horizon_ms + max(0, *skews))
        recon = {r.meter_id: r for r in self.center.reconstruct_all(window)}
        meters = sorted((sm.config for sm in sc.meters()), key=lambda cfg: cfg.id)

        def rmse(mid: int, steps) -> str:
            return rmse_text(grid_mean_square(traces[mid], steps, sc.rmse_grid_ms, sc.horizon_ms))

        rows = []
        for cfg in meters:
            sent = [r["payload"]["frame_hex"] for r in records
                    if r["kind"] != "ti_reading" and r["payload"]["meter_id"] == cfg.id]
            got = recon[cfg.id]
            rows.append(["ri", f"{cfg.id:#x}", *window, got.quanta_received, got.quanta_recovered,
                         got.amount_du, got.trailing_uncertainty_du, BASE_UNIT[cfg.kind],
                         rmse(cfg.id, self.center.steps(cfg.id)), len(sent),
                         sum(len(frame_hex) // 2 for frame_hex in sent)])
        for cfg in meters:
            polls = [(r["sim_time_ms"], r["payload"]["register_du"]) for r in records
                     if r["kind"] == "ti_reading" and r["payload"]["meter_id"] == cfg.id]
            steps = [(t, register - before)
                     for (t, register), (_, before) in zip(polls, [(0, 0), *polls])]
            rows.append(["ti", f"{cfg.id:#x}", 0, sc.horizon_ms, "", "",
                         polls[-1][1] if polls else 0, "", BASE_UNIT[cfg.kind],
                         rmse(cfg.id, steps), len(polls), 23 * len(polls)])
        return [[str(value) for value in row] for row in rows]

    def _traces(self) -> dict[int, ConsumptionTrace]:
        sc = self.scenario
        return {sm.config.id: generate_trace(sm.trace, sc.seed, sc.horizon_ms, sm.config.id)
                for sm in sc.meters()}

    def _ri(self):
        """(sim_time_ms, kind, payload) of each ``run_ri`` record."""
        sc = self.scenario
        skew = {c.id: c.clock_skew_ms for c in sc.concentrators()}
        uplink = {c.id: Fraction(c.uplink_loss) for c in sc.concentrators()}
        links = {sm.config.id: sorted((cid, Fraction(loss)) for cid, loss in sm.links)
                 for sm in sc.meters()}
        traces = self._traces()
        emissions = []
        for sm in sc.meters():
            for index, (t, msg) in enumerate(_StepRun(sm.config, traces[sm.config.id]).events()):
                emissions.append((t, sm.config.id, index, msg))
        emissions.sort(key=lambda e: e[:3])

        rng = random.Random(mix_seed(sc.seed, CHANNEL_STREAM))
        for t, mid, index, msg in emissions:
            frame = reference_frame(msg)
            radio = [Fraction(rng.random()) < loss for _, loss in links[mid]]
            lost = ["radio" if dropped else None for dropped in radio]
            for i, (cid, _) in enumerate(links[mid]):
                if lost[i] is None and uplink[cid] > 0 and Fraction(rng.random()) < uplink[cid]:
                    lost[i] = "uplink"

            fates = []
            for (cid, _), stage in zip(links[mid], lost):
                if stage is None:
                    rx_time = t + skew[cid]
                    outcome = self.center.ingest(index, ConcentratorReport(frame, cid, rx_time))
                    fates.append([cid, outcome, rx_time])
                else:
                    fates.append([cid, stage])
            yield t, msg.message_type.value, {
                "cumulative_quanta": msg.state.cumulative_quanta, "frame_hex": frame.hex(),
                "links": fates, "meter_id": mid, "resource": msg.kind.value,
                "session": msg.session}

    def _ti(self):
        """(sim_time_ms, kind, payload) of each ``run_ti`` record."""
        sc = self.scenario
        dt = sc.ti_poll_interval_ms
        meters = sorted((sm.config for sm in sc.meters()), key=lambda cfg: cfg.id)
        traces = self._traces()
        battery = {cfg.id: cfg.battery_capacity for cfg in meters}
        for k in range(1, sc.horizon_ms // dt + 1):
            t = k * dt
            for cfg in meters:
                battery[cfg.id] -= cfg.idle_drain_per_hour * Fraction(dt, MS_PER_HOUR)
                if battery[cfg.id] > 0:
                    battery[cfg.id] -= cfg.tx_cost
                    yield t, "ti_reading", {
                        "meter_id": cfg.id, "poll_index": k,
                        "register_du": math.floor(traces[cfg.id].cumulative_du(t)),
                        "unit": BASE_UNIT[cfg.kind]}

"""Reference helpers that only tests call, kept out of the package so the
oracles share no code with what they check beyond the trace's own
``cumulative_du``, the frame decoder and the result types."""

from __future__ import annotations

import csv
from fractions import Fraction
from pathlib import Path

from risim.center import ReconstructionResult, SessionLedger
from risim.domain import ConcentratorReport, MessageType, decode_frame
from risim.eventlog import EventLogRecord
from risim.meter import MeterConfig, MeterRun
from risim.traces import ConsumptionTrace


def battery_lifetime(cfg: MeterConfig, trace: ConsumptionTrace) -> int | None:
    """Simulated time at which the battery reaches zero.

    Returns None when the battery outlasts the trace horizon, as an explicit
    survives-the-window marker rather than a sentinel number.
    """
    run = MeterRun(cfg, trace)
    for _ in run.events():
        pass
    return run.depleted_at_ms


def accepted_count(ledger: SessionLedger) -> int:
    return len(ledger.accepted_sessions())


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


def record_sink(records: list):
    """An ``EventLog`` sink that parses each line it is given back into a
    record, through the reader's own ``EventLogRecord.from_json``, and
    appends it to ``records``."""
    return lambda line: records.append(EventLogRecord.from_json(line))


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
    bytes that arrived first, and every distinct (concentrator, reception
    time) copy of those bytes.  The session's reception is the earliest
    copy, the lowest concentrator id breaking a tie.  The lost sessions are
    the indices from 0 up to the highest kept one that nothing was kept
    under.
    """

    def __init__(self, quantum_du: dict[int, int]) -> None:
        self.quantum_du = quantum_du   # every registered meter and its quantum
        self.sessions: dict[int, dict[int, dict]] = {}   # meter -> index -> session
        self.conflicts: dict[int, set[int]] = {}          # meter -> indices

    def ingest(self, index: int, report: ConcentratorReport) -> str:
        """The outcome of one report: accepted, duplicate, stale or conflict."""
        msg = decode_frame(report.frame)
        sessions = self.sessions.setdefault(msg.meter_id, {})
        copy = (report.concentrator_id, report.rx_time_ms)
        kept = sessions.get(index)
        if kept is None:
            sessions[index] = {"frame": report.frame, "message": msg, "copies": {copy}}
            return "accepted"
        if report.frame != kept["frame"]:
            self.conflicts.setdefault(msg.meter_id, set()).add(index)
            return "conflict"
        if copy in kept["copies"]:
            return "stale"
        kept["copies"].add(copy)
        return "duplicate"

    @staticmethod
    def _received(session: dict) -> tuple[int, int]:
        """(reception time, concentrator) of a session's earliest copy."""
        return min((rx_time, concentrator) for concentrator, rx_time in session["copies"])

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
                "session": index % 2**32,
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
            "highest_session": max(sessions) % 2**32,
            "sessions": rows,
            "gaps": [[first % 2**32, count] for first, count, _, _ in self.lost_runs(meter)],
            "conflicts": sorted(i % 2**32 for i in self.conflicts.get(meter, ())),
        }

    def snapshots(self) -> list[dict]:
        return [self.snapshot(meter) for meter in sorted(self.sessions)]

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
        for _, _, before, after in self.lost_runs(meter):
            t_lo, base = ((0, 0) if before is None else
                          (self._received(before)[0], before["message"].state.cumulative_quanta))
            t_hi = self._received(after)[0]
            lost = (after["message"].state.cumulative_quanta - base) % 2**32
            lost -= after["message"].message_type is MessageType.QUANTUM_EVENT
            if lost > 0 and t0 <= t_lo:
                if t_hi <= t1:
                    recovered += lost
                elif t_lo <= t1:
                    trailing += lost
        return ReconstructionResult(meter, window, received, recovered,
                                    (received + recovered) * quantum, trailing * quantum)

    def reconstruct_all(self, window: tuple[int, int]) -> list[ReconstructionResult]:
        return [self.reconstruct(meter, window) for meter in sorted(self.quantum_du)]

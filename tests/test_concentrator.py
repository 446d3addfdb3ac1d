"""Concentrator stamping, link checks, and the channel rule and its loss statistics."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from risim.cli import main
from risim.concentrator import (
    DRAW_SCALE,
    ConcentratorConfig,
    broadcast,
    loss_threshold,
    receive,
)
from risim.domain import (
    ConfigError,
    NOMINAL_QUALITY_DU,
    MessageType,
    MeterMessage,
    MeterState,
    QualityVector,
    ResourceKind,
    concentrator_id,
    encode_frame,
    meter_id,
)
from risim.meter import MeterConfig
from risim.simulation import Building, ScenarioConfig, SimMeter
from risim.traces import TraceSpec

MID = meter_id(1)
MID_NAME = f"meter 1 [{MID:#x}]"
CID1 = concentrator_id(1)
CID2 = concentrator_id(2)


FRAME = encode_frame(MeterMessage(
    meter_id=MID,
    session=0,
    kind=ResourceKind.COLD_WATER,
    message_type=MessageType.QUANTUM_EVENT,
    quality=QualityVector(ResourceKind.COLD_WATER, NOMINAL_QUALITY_DU[ResourceKind.COLD_WATER]),
    state=MeterState(),
))


def test_reception_stamps_skewed_clock():
    cfg = ConcentratorConfig(id=CID1, clock_skew_ms=-250)
    report = receive(cfg, FRAME, 10_000)
    assert report.rx_time_ms == 9_750
    assert report.concentrator_id == CID1
    assert report.frame == FRAME


def test_skew_beyond_declared_bound_rejected():
    with pytest.raises(ConfigError):
        ConcentratorConfig(id=CID1, clock_skew_ms=1500, max_skew_ms=1000)
    # the bound itself is allowed
    ConcentratorConfig(id=CID1, clock_skew_ms=1000, max_skew_ms=1000)


def test_concentrator_id_namespace_enforced():
    with pytest.raises(ConfigError):
        ConcentratorConfig(id=MID)


def test_uplink_loss_must_be_probability():
    with pytest.raises(ConfigError):
        ConcentratorConfig(id=CID1, uplink_loss=1.5)


@pytest.mark.parametrize("loss, shown", [(True, "True"), ("0.1", "'0.1'"), (None, "None")])
def test_a_loss_that_is_not_a_number_is_a_config_error(loss, shown):
    """A library caller's loss is an int, float or Fraction: a bool, a string
    or None is refused with a ConfigError naming the concentrator or meter,
    for an uplink and for a link alike."""
    with pytest.raises(ConfigError) as err:
        ConcentratorConfig(id=CID1, uplink_loss=loss)
    assert str(err.value) == f"concentrator 1 [{CID1:#x}]: uplink loss must be a probability, got {shown}"
    with pytest.raises(ConfigError) as err:
        _scenario((CID1, loss))
    assert str(err.value) == f"{MID_NAME}: link loss must be a probability, got {shown}"


@pytest.mark.parametrize("field", ["clock_skew_ms", "max_skew_ms"])
@pytest.mark.parametrize("value, shown", [(True, "True"), (1.5, "1.5"), ("5", "'5'"),
                                          (None, "None")])
def test_a_skew_that_is_not_a_whole_number_is_a_config_error(field, value, shown):
    """A library caller's skew and skew bound are ints, as the scenario
    loader reads them: anything else is a ConfigError naming the concentrator."""
    with pytest.raises(ConfigError) as err:
        ConcentratorConfig(id=CID1, **{field: value})
    assert str(err.value) == f"concentrator 1 [{CID1:#x}]: {field}: expected an integer, got {shown}"


def _scenario(*links):
    """One idle meter with ``links`` and two declared concentrators."""
    meter = SimMeter(MeterConfig(MID, ResourceKind.COLD_WATER), TraceSpec("zero"), links)
    concs = (ConcentratorConfig(CID1), ConcentratorConfig(CID2))
    return ScenarioConfig(seed=0, horizon_ms=0, buildings=(Building((meter,), concs),))


def test_scenario_rejects_duplicate_link():
    with pytest.raises(ConfigError) as err:
        _scenario((CID1, 0.1), (CID1, 0.2))
    assert str(err.value) == f"{MID_NAME}: duplicate link to concentrator 1 [{CID1:#x}]"


def test_scenario_rejects_bad_link_loss():
    with pytest.raises(ConfigError) as err:
        _scenario((CID1, -0.1))
    assert str(err.value) == f"{MID_NAME}: link loss must be a probability, got -0.1"


def test_coverage_check_names_orphans():
    covered = _scenario((CID1, 0.0))
    orphan, other = (SimMeter(MeterConfig(meter_id(n), ResourceKind.GAS), TraceSpec("zero"), ())
                     for n in (98, 99))
    building = replace(covered.buildings[0], meters=(*covered.buildings[0].meters, orphan, other))
    with pytest.raises(ConfigError) as err:
        replace(covered, buildings=(building,))
    assert str(err.value) == (
        f"meters with no concentrator link: meter 98 [{meter_id(98):#x}], "
        f"meter 99 [{meter_id(99):#x}]")


def _run(tmp_path, name, scenario) -> dict[str, bytes]:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / name
    assert main(["run", str(path), "--out", str(out)]) == 0
    return {f: (out / f).read_bytes() for f in ("events.ndjson", "ledgers.ndjson", "metrics.csv")}


def test_broadcast_draws_in_concentrator_id_order(tmp_path):
    # links and concentrators listed in reverse are still drawn low id first,
    # so the random stream is consumed identically however the config was
    # written, and every artifact is byte-identical
    concentrators = [{"serial": n, "clock_skew_ms": 3 * n, "uplink_loss": loss}
                     for n, loss in ((1, 0.3), (2, 0), (3, 0.5))]
    meters = [
        {"serial": 1, "kind": "cold_water", "heartbeat_interval": "10min",
         "trace": {"kind": "constant", "params": {"rate": "30l/h"}},
         "links": [{"concentrator": n, "loss": loss}
                   for n, loss in ((1, 0.2), (2, 0.4), (3, 0.1))]},
        {"serial": 2, "kind": "gas", "heartbeat_interval": "7min",
         "trace": {"kind": "zero"},
         "links": [{"concentrator": n, "loss": 0.25} for n in (3, 1)]},
    ]
    forward = {"seed": 5, "horizon": "3h", "buildings": [
        {"concentrators": concentrators, "meters": meters}]}
    reverse = {"seed": 5, "horizon": "3h", "buildings": [{
        "concentrators": concentrators[::-1],
        "meters": [{**m, "links": m["links"][::-1]} for m in meters]}]}
    got = _run(tmp_path, "forward", forward)
    assert _run(tmp_path, "reverse", reverse) == got
    assert got["events.ndjson"].count(b',"uplink"]') > 0


def _links(*losses, uplink=0):
    """One link per loss, to concentrators 1, 2, ... in id order."""
    return tuple((concentrator_id(n), loss_threshold(loss), loss_threshold(uplink))
                 for n, loss in enumerate(losses, 1))


def test_broadcast_lossless_always_delivers():
    links = _links(0.0, 0.0)
    rng = random.Random(5)
    for _ in range(100):
        assert all(lost is None for _, lost in broadcast(links, rng))


def test_broadcast_certain_loss_never_delivers():
    links = _links(1.0, uplink=0.5)
    rng = random.Random(5)
    for _ in range(100):
        assert broadcast(links, rng) == [(CID1, "radio")]


def test_at_least_one_delivery_rate_matches_independence_law():
    # two independent links at loss 0.5 each: P(at least one) = 1 - 0.5^2
    # = 0.75; 10000 seeded trials sit within +/-0.02 of that
    links = _links(0.5, 0.5)
    rng = random.Random(20240817)
    trials = 10_000
    hits = sum(
        1 for _ in range(trials) if any(lost is None for _, lost in broadcast(links, rng))
    )
    assert abs(hits / trials - 0.75) < 0.02


def test_broadcast_draws_uplinks_after_every_radio_draw():
    # concentrators 1-4: lossy radio links, and lossy uplinks on 1, 2 and 4;
    # each emission draws the four radio links, then one uplink per heard
    # copy on a lossy uplink, both in concentrator-id order
    radio = (0.3, 0.5, 0.2, 0.4)
    uplinks = (0.5, 0.25, 0, 1)
    cids = [concentrator_id(n) for n in range(1, 5)]
    links = tuple((cid, loss_threshold(r), loss_threshold(u))
                  for cid, r, u in zip(cids, radio, uplinks))
    rng, ref = random.Random(11), random.Random(11)
    stages = set()
    for _ in range(500):
        heard = [ref.random() >= r for r in radio]
        want = []
        for cid, ok, u in zip(cids, heard, uplinks):
            if not ok:
                want.append((cid, "radio"))
            elif u > 0 and ref.random() < u:
                want.append((cid, "uplink"))
            else:
                want.append((cid, None))
        assert broadcast(links, rng) == want
        stages.update(lost for _, lost in want)
    assert stages == {None, "radio", "uplink"}
    assert rng.random() == ref.random()   # no draw more or fewer


# ---------------------------------------------------------------------------
# loss thresholds

def _draws_around(t, data) -> list[int]:
    """The draws on both sides of threshold ``t``, plus one drawn anywhere."""
    near = [k for k in (t - 1, t) if 0 <= k < DRAW_SCALE]
    return near + [data.draw(st.integers(0, DRAW_SCALE - 1))]


@given(loss=st.fractions(min_value=0, max_value=1), data=st.data())
def test_loss_threshold_loses_exactly_the_draws_below_the_loss(loss, data):
    t = loss_threshold(loss)
    for k in _draws_around(t, data):
        assert (k < t) == (Fraction(k, DRAW_SCALE) < loss)


@given(loss=st.floats(min_value=0, max_value=1), data=st.data())
def test_loss_threshold_decides_a_float_loss_as_a_float_compare(loss, data):
    t = loss_threshold(loss)
    for k in _draws_around(t, data):
        assert (k < t) == (k / DRAW_SCALE < loss)


def test_loss_threshold_endpoints():
    assert loss_threshold(0) == loss_threshold(0.0) == 0
    assert loss_threshold(1) == loss_threshold(1.0) == DRAW_SCALE


def test_broadcast_decides_each_draw_as_a_float_compare():
    losses = (0.01, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5)
    cids = [concentrator_id(n) for n in range(1, len(losses) + 1)]
    links = _links(*losses)
    rng, ref = random.Random(5), random.Random(5)
    for _ in range(500):
        want = [(cid, None if ref.random() >= loss else "radio")
                for cid, loss in zip(cids, losses)]
        assert broadcast(links, rng) == want

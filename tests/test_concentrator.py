"""Concentrator stamping, visibility, and channel loss statistics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from risim.concentrator import (
    DRAW_SCALE,
    ConcentratorConfig,
    VisibilityMap,
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

MID = meter_id(1)
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


def test_visibility_rejects_duplicate_link():
    with pytest.raises(ConfigError):
        VisibilityMap({MID: [(CID1, 0.1), (CID1, 0.2)]})


def test_visibility_rejects_bad_loss():
    with pytest.raises(ConfigError):
        VisibilityMap({MID: [(CID1, -0.1)]})


def test_coverage_check_names_orphans():
    vis = VisibilityMap({MID: [(CID1, 0.0)]})
    vis.require_coverage([MID])
    other = meter_id(99)
    with pytest.raises(ConfigError) as err:
        vis.require_coverage([MID, other])
    assert f"{other:#x}" in str(err.value)


def test_broadcast_draws_in_concentrator_id_order():
    # links listed out of order are still drawn low-id first, so the random
    # stream is consumed identically however the config was written
    vis_a = VisibilityMap({MID: [(CID2, 0.5), (CID1, 0.5)]})
    vis_b = VisibilityMap({MID: [(CID1, 0.5), (CID2, 0.5)]})
    out_a = broadcast(vis_a, MID, random.Random(123))
    out_b = broadcast(vis_b, MID, random.Random(123))
    assert out_a == out_b
    assert [cid for cid, _ in out_a] == [CID1, CID2]


def test_broadcast_lossless_always_delivers():
    vis = VisibilityMap({MID: [(CID1, 0.0), (CID2, 0.0)]})
    rng = random.Random(5)
    for _ in range(100):
        assert all(ok for _, ok in broadcast(vis, MID, rng))


def test_broadcast_certain_loss_never_delivers():
    vis = VisibilityMap({MID: [(CID1, 1.0)]})
    rng = random.Random(5)
    for _ in range(100):
        assert not any(ok for _, ok in broadcast(vis, MID, rng))


def test_at_least_one_delivery_rate_matches_independence_law():
    # two independent links at loss 0.5 each: P(at least one) = 1 - 0.5^2
    # = 0.75; 10000 seeded trials sit within +/-0.02 of that
    vis = VisibilityMap({MID: [(CID1, 0.5), (CID2, 0.5)]})
    rng = random.Random(20240817)
    trials = 10_000
    hits = sum(
        1 for _ in range(trials) if any(ok for _, ok in broadcast(vis, MID, rng))
    )
    assert abs(hits / trials - 0.75) < 0.02


def test_unknown_meter_has_no_links():
    vis = VisibilityMap({MID: [(CID1, 0.0)]})
    assert vis.links_for(meter_id(42)) == ()
    assert broadcast(vis, MID, random.Random(0)) != []


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
    vis = VisibilityMap({MID: list(zip(cids, losses))})
    rng, ref = random.Random(5), random.Random(5)
    for _ in range(500):
        want = [(cid, ref.random() >= loss) for cid, loss in zip(cids, losses)]
        assert broadcast(vis, MID, rng) == want

"""Elastic cluster: autoscaler decisions, migration plumbing, and the
2 → 4 → 2 scale-cycle e2e.

The unit half exercises :mod:`repro.cluster.elastic` as pure functions
(every hysteresis/cooldown/watermark path with hand-built samples and an
injected clock) plus the router's migration helpers in isolation.  The
e2e half runs a real subprocess fleet through a scale-out → scale-in
cycle under live traffic — SIGKILLing a migration *destination* mid-move
— and requires the reply streams to stay string-equal to a single
:class:`~repro.serve.SessionPool`, with zero sessions evicted or lost.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import (
    Autoscaler,
    Cluster,
    Router,
    quantile_from_buckets,
    reference_lines,
    workload_ticks,
)
from repro.cluster.journal import SessionRecord
from repro.interaction import DEFAULT_TIMEOUT

from .test_cluster import DT, assert_byte_identical, end_time

# -- quantile_from_buckets ---------------------------------------------------


def test_quantile_empty_buckets_is_zero():
    assert quantile_from_buckets([[0.001, 0], [None, 0]]) == 0.0


def test_quantile_picks_bucket_upper_bound():
    buckets = [[0.001, 90], [0.01, 9], [0.1, 1], [None, 0]]
    assert quantile_from_buckets(buckets, q=0.5) == 0.001
    assert quantile_from_buckets(buckets, q=0.99) == 0.01
    assert quantile_from_buckets(buckets, q=1.0) == 0.1


def test_quantile_overflow_bucket_reports_last_finite_bound():
    buckets = [[0.001, 1], [0.01, 1], [None, 98]]
    assert quantile_from_buckets(buckets, q=0.99) == 0.01


def test_quantile_rejects_bad_q():
    with pytest.raises(ValueError):
        quantile_from_buckets([[1.0, 1]], q=0.0)
    with pytest.raises(ValueError):
        quantile_from_buckets([[1.0, 1]], q=1.5)


# -- Autoscaler.decide -------------------------------------------------------


def hot_sample(shards=2):
    return {
        "shards": shards,
        "sessions": shards * 100,
        "sessions_per_shard": 100.0,
        "max_queue_depth": 0,
    }


def cold_sample(shards=4):
    return {
        "shards": shards,
        "sessions": shards,
        "sessions_per_shard": 1.0,
        "max_queue_depth": 0,
    }


def test_autoscaler_validates_watermarks():
    with pytest.raises(ValueError):
        Autoscaler(min_workers=0)
    with pytest.raises(ValueError):
        Autoscaler(min_workers=4, max_workers=2)
    with pytest.raises(ValueError):
        Autoscaler(low_sessions=64.0, high_sessions=64.0)
    with pytest.raises(ValueError):
        Autoscaler(confirm=0)


def test_scale_out_needs_a_confirm_streak():
    scaler = Autoscaler(confirm=3, cooldown=0.0)
    assert scaler.decide(hot_sample(), 0.0) is None
    assert scaler.decide(hot_sample(), 1.0) is None
    assert scaler.decide(hot_sample(), 2.0) == 3  # 2 shards -> 3
    assert scaler.decisions == 1


def test_streak_resets_when_the_signal_flaps():
    scaler = Autoscaler(confirm=2, cooldown=0.0)
    assert scaler.decide(hot_sample(), 0.0) is None
    # A healthy sample in between kills the streak...
    assert scaler.decide({"shards": 2, "sessions_per_shard": 32.0}, 1.0) is None
    assert scaler.decide(hot_sample(), 2.0) is None
    # ...so confirmation has to start over.
    assert scaler.decide(hot_sample(), 3.0) == 3


def test_direction_change_restarts_the_streak():
    scaler = Autoscaler(confirm=2, cooldown=0.0)
    assert scaler.decide(hot_sample(4), 0.0) is None
    assert scaler.decide(cold_sample(4), 1.0) is None  # flip: streak = 1
    assert scaler.decide(cold_sample(4), 2.0) == 3


def test_cooldown_holds_and_resets_the_streak():
    scaler = Autoscaler(confirm=1, cooldown=10.0)
    assert scaler.decide(hot_sample(2), 0.0) == 3
    # Inside the cooldown window nothing fires, however hot it looks.
    assert scaler.decide(hot_sample(3), 5.0) is None
    assert scaler.decide(hot_sample(3), 9.0) is None
    # After the window a fresh verdict is allowed.
    assert scaler.decide(hot_sample(3), 10.0) == 4


def test_scale_out_clamps_at_max_workers():
    scaler = Autoscaler(confirm=1, cooldown=0.0, max_workers=2)
    assert scaler.decide(hot_sample(2), 0.0) is None


def test_scale_in_clamps_at_min_workers():
    scaler = Autoscaler(confirm=1, cooldown=0.0, min_workers=4)
    assert scaler.decide(cold_sample(4), 0.0) is None
    assert scaler.decide(cold_sample(5), 1.0) == 4


def test_scale_in_requires_a_drained_queue():
    scaler = Autoscaler(confirm=1, cooldown=0.0, high_queue=256)
    backlogged = dict(cold_sample(4), max_queue_depth=65)  # > 256 // 4
    assert scaler.decide(backlogged, 0.0) is None
    assert scaler.decide(cold_sample(4), 1.0) == 3


def test_queue_depth_alone_triggers_scale_out():
    scaler = Autoscaler(confirm=1, cooldown=0.0, high_queue=8)
    sample = {"shards": 2, "sessions_per_shard": 1.0, "max_queue_depth": 9}
    assert scaler.decide(sample, 0.0) == 3


def test_p99_ceiling_triggers_scale_out_only_when_configured():
    sample = dict(cold_sample(2), p99_decision_seconds=0.5)
    # p99 watermark unset: the sample reads cold, but 2 == default min+1
    # so it scales in rather than out.
    assert Autoscaler(confirm=1, cooldown=0.0).decide(sample, 0.0) == 1
    scaler = Autoscaler(confirm=1, cooldown=0.0, high_p99=0.1)
    assert scaler.decide(sample, 0.0) == 3


def test_run_loop_feeds_samples_and_applies_verdicts():
    scaler = Autoscaler(confirm=1, cooldown=0.0, interval=0.01)
    applied = []

    async def run():
        async def scale_fn(workers):
            applied.append(workers)

        task = asyncio.create_task(scaler.run(lambda: hot_sample(2), scale_fn))
        deadline = asyncio.get_running_loop().time() + 30
        while not applied:
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.01)
        task.cancel()

    asyncio.run(run())
    assert applied[0] == 3


# -- router migration helpers ------------------------------------------------


def _record(key: str, first_seq: int | None) -> SessionRecord:
    record = SessionRecord(key, "k1", "w0")
    if first_seq is not None:
        record.entries.append((first_seq, '{"op": "down"}'))
    return record


def test_pinned_model_trichotomy():
    router = Router(["w0", "w1"])
    record = _record("k1:s1", 10)
    # No swap history at all: no pin needed.
    assert router._pinned_model(record) is None
    router._swap_history.append((5, "k2:u", "alt"))
    # History exists but nothing matches this key: still no pin.
    assert router._pinned_model(record) is None
    # A matching swap routed *after* the open: the session bound the
    # default model, and a warm destination must be told so.
    router._swap_history.append((20, "k1:s1", "alt"))
    assert router._pinned_model(record) == ""
    # A matching swap before the open pins its label.
    router._swap_history.append((3, "k1:", "gdp"))
    assert router._pinned_model(record) == "gdp"
    # Longest prefix wins over an earlier shorter one...
    router._swap_history.append((4, "k1:s1", "alt"))
    assert router._pinned_model(record) == "alt"
    # ...and the last write on the same prefix wins.
    router._swap_history.append((6, "k1:s1", "gdp"))
    assert router._pinned_model(record) == "gdp"


def test_load_sample_excludes_retired_and_draining_shards():
    router = Router(["w0", "w1", "w2"])
    router.retired.add("w2")
    router.draining.add("w1")
    sample = router.load_sample()
    assert sample == {
        "shards": 1,
        "sessions": 0,
        "sessions_per_shard": 0.0,
        "max_queue_depth": 0,
    }
    router.sessions["k1:s1"] = _record("k1:s1", 0)
    assert router.load_sample()["sessions_per_shard"] == 1.0


def test_clients_cannot_send_internal_migration_ops():
    # ``release``, ``pin`` and ``expire`` are router->worker ops; a
    # client sending them must get an error, not a forwarded line.
    async def run():
        router = Router(["w0"])
        await router.start()
        try:
            host, port = router.address
            reader, writer = await asyncio.open_connection(host, port)

            async def ask(line: bytes) -> dict:
                writer.write(line + b"\n")
                await writer.drain()
                return json.loads(await asyncio.wait_for(reader.readline(), 10))

            for line in (
                b'{"op": "release", "stroke": "s1"}',
                b'{"op": "pin", "stroke": "s1", "model": "alt"}',
                b'{"op": "expire", "stroke": "s1", "t": 0.5}',
            ):
                reply = await ask(line)
                assert reply["kind"] == "error"
                assert "internal op" in reply["reason"]
            # Scale needs a positive integer worker count and a
            # supervisor to apply it.
            for line in (
                b'{"op": "scale"}',
                b'{"op": "scale", "workers": 0}',
                b'{"op": "scale", "workers": true}',
                b'{"op": "scale", "workers": "four"}',
            ):
                reply = await ask(line)
                assert reply["kind"] == "error"
                assert "positive workers count" in reply["reason"]
            reply = await ask(b'{"op": "scale", "workers": 4}')
            assert reply["kind"] == "error"
            assert "no supervisor" in reply["reason"]
            writer.close()
            await writer.wait_closed()
        finally:
            await router.stop()

    asyncio.run(run())


# -- end to end --------------------------------------------------------------


async def _admin(host, port, line: str) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(line.encode() + b"\n")
    await writer.drain()
    reply = json.loads(await asyncio.wait_for(reader.readline(), 30))
    writer.close()
    await writer.wait_closed()
    return reply


def _live(cluster) -> set:
    return {
        s
        for s in cluster.router.links
        if s not in cluster.router.retired and s not in cluster.router.draining
    }


async def _wait_live(cluster, n: int) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 60
    while len(_live(cluster)) != n or cluster.router.draining:
        assert loop.time() < deadline, (_live(cluster), n)
        await asyncio.sleep(0.02)


def test_scale_cycle_2_4_2_with_destination_kill(
    recognizer_path, cluster_recognizer, cluster_workload
):
    """The acceptance run: live traffic through 2 -> 4 -> 2 workers.

    Mid-stream the fleet scales out to four shards (two joins, each a
    rebalance that live-migrates open sessions), one migration
    *destination* is SIGKILLed right after sessions land on it, and the
    fleet then scales back in to two (two drain-by-migration retires).
    The reply streams must be byte-identical to a single pool, with
    every journaled session reaching terminal — nothing evicted,
    nothing dropped.
    """
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = end_time(ticks)
    reference = reference_lines(
        cluster_recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )
    out_at = len(ticks) // 3
    in_at = 2 * len(ticks) // 3

    async def run():
        from repro.cluster import drive_cluster

        async with Cluster(
            recognizer_path,
            workers=2,
            min_workers=1,
            max_workers=6,
        ) as cluster:
            host, port = cluster.address
            loop = asyncio.get_running_loop()

            async def before_tick(i, t):
                if i == out_at:
                    reply = await _admin(
                        host, port, '{"op": "scale", "workers": 4}'
                    )
                    assert reply == {
                        "kind": "scale", "workers": 4, "status": "started",
                    }
                    # Wait for a migration to land on a *new* shard,
                    # then SIGKILL that destination while its sessions
                    # are mid-stroke.  Replay must heal the loss.
                    deadline = loop.time() + 60
                    victim = None
                    while victim is None:
                        assert loop.time() < deadline
                        for record in cluster.router.sessions.values():
                            if record.shard in ("w2", "w3"):
                                victim = record.shard
                                break
                        await asyncio.sleep(0)
                    ups = cluster.router.links[victim].ups
                    assert cluster.kill(victim) is not None
                    await cluster.wait_recovered(victim, ups)
                    await _wait_live(cluster, 4)
                    await cluster.wait_all_up()
                if i == in_at:
                    reply = await _admin(
                        host, port, '{"op": "scale", "workers": 2}'
                    )
                    assert reply["status"] == "started"
                    await _wait_live(cluster, 2)

            async def before_barrier():
                await cluster.wait_all_up()

            replies, stats = await drive_cluster(
                host,
                port,
                ticks,
                end_t=end_t,
                before_tick=before_tick,
                before_barrier=before_barrier,
            )
            status = await _admin(host, port, '{"op": "cluster"}')
            return replies, stats, status, cluster.metrics.snapshot()

    replies, stats, status, snapshot = asyncio.run(run())
    assert_byte_identical(replies, reference)
    # Nothing was evicted to make the topology change happen.
    assert not any(
        json.loads(line)["kind"] == "evict"
        for lines in replies.values()
        for line in lines
    )
    # The cycle actually happened: two joins, two retires, sessions
    # moved both ways, and the killed destination was replayed.
    counters = snapshot["counters"]
    assert counters["cluster.joins"] == 2
    assert counters["cluster.drains"] == 2
    assert counters["cluster.migrations"] >= 2
    assert counters["cluster.worker_restarts"] >= 1
    assert counters["cluster.replays"] >= 1
    assert snapshot["histograms"]["cluster.migration_seconds"]["count"] == (
        counters["cluster.migrations"]
    )
    retired = {s for s, info in status["shards"].items() if info["retired"]}
    assert len(retired) == 2
    # Every journaled session reached terminal — zero dropped.
    assert stats["cluster"]["sessions"] == 0


def test_autoscaler_scales_a_live_cluster_out(recognizer_path):
    """The wired-in loop, not just ``decide``: a one-worker fleet with a
    low session watermark grows itself once traffic arrives."""
    scaler = Autoscaler(
        min_workers=1,
        max_workers=2,
        high_sessions=0.5,
        low_sessions=0.1,
        interval=0.02,
        confirm=2,
        cooldown=60.0,
    )

    async def run():
        async with Cluster(
            recognizer_path,
            workers=1,
            min_workers=1,
            max_workers=2,
            autoscale=scaler,
        ) as cluster:
            host, port = cluster.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b'{"op": "down", "stroke": "s0", "x": 0, "y": 0, "t": 0.0}\n'
                b'{"op": "tick", "t": 0.0}\n'
            )
            await writer.drain()
            await _wait_live(cluster, 2)
            await cluster.wait_all_up()
            # Finish the stroke on the (possibly migrated) session.
            writer.write(
                b'{"op": "move", "stroke": "s0", "x": 15, "y": 0, "t": 0.1}\n'
                b'{"op": "up", "stroke": "s0", "x": 30, "y": 0, "t": 0.2}\n'
                b'{"op": "tick", "t": 0.2}\n'
            )
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            await writer.wait_closed()
            return reply, cluster.metrics.snapshot()

    reply, snapshot = asyncio.run(run())
    assert reply["stroke"] == "s0"
    assert reply["kind"] not in ("evict", "error")
    assert scaler.decisions == 1
    assert snapshot["counters"]["cluster.joins"] == 1

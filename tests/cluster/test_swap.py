"""Cluster hot-swap: routing, version pinning, exactly-once crash replay.

The swap travels the same single client connection as the strokes (the
router namespaces swap users per client exactly like stroke keys), so
these tests drive the cluster with a small variant of ``drive_cluster``
that can inject raw protocol lines ahead of a chosen tick.

The load-bearing claims:

* a swap rebinds one client user's *future* sessions fleet-wide while
  every other stroke's reply stream stays string-equal to the no-swap
  single-pool reference;
* the client sees exactly one ack, synthesized by the router with the
  *pinned* ``name@version`` (worker acks are absorbed);
* a SIGKILL of a shard that owns swapped sessions is invisible: the
  journal replays the swap before the replayed sessions, and the full
  reply map is byte-identical to a crash-free swapped run.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster import Cluster, HashRing, reference_lines, workload_ticks
from repro.interaction import DEFAULT_TIMEOUT
from repro.serve import ModelRegistry, ServeOptions, encode_swap

DT = 0.01


def end_time(ticks) -> float:
    return len(ticks) * DT + DEFAULT_TIMEOUT + DT


def shard_of(stroke: str, workers: int) -> str:
    return HashRing([f"w{i}" for i in range(workers)]).lookup(f"k1:{stroke}")


async def drive_with_lines(
    host,
    port,
    ticks,
    *,
    end_t,
    inject=None,
    before_tick=None,
    before_barrier=None,
    barrier_timeout: float = 120.0,
):
    """``drive_cluster`` plus raw lines injected ahead of chosen ticks.

    ``inject`` maps a tick index to a list of request dicts written
    verbatim before that tick's op group — how a swap rides the stroke
    stream at a deterministic position.  Non-stroke replies (swap acks,
    errors) land under key ``""`` like in ``drive_cluster``.
    """
    inject = inject or {}
    reader, writer = await asyncio.open_connection(host, port)
    replies: dict[str, list[str]] = {}
    stats: dict | None = None
    done = asyncio.Event()

    async def read_replies() -> None:
        nonlocal stats
        while True:
            raw = await reader.readline()
            if not raw:
                break
            obj = json.loads(raw)
            if obj.get("kind") == "stats":
                stats = obj
                done.set()
                break
            replies.setdefault(obj.get("stroke", ""), []).append(
                raw.decode().rstrip("\n")
            )

    read_task = asyncio.get_running_loop().create_task(read_replies())
    try:
        for i, (t, group) in enumerate(ticks):
            if before_tick is not None:
                await before_tick(i, t)
            out = [json.dumps(extra) for extra in inject.get(i, ())]
            out.extend(
                json.dumps({"op": name, "stroke": key, "x": x, "y": y, "t": t})
                for name, key, x, y in group
            )
            out.append(json.dumps({"op": "tick", "t": t}))
            writer.write(("\n".join(out) + "\n").encode())
            await writer.drain()
        tail = [
            json.dumps({"op": "tick", "t": end_t}),
            json.dumps({"op": "sweep", "max_idle": 0.0}),
        ]
        writer.write(("\n".join(tail) + "\n").encode())
        await writer.drain()
        if before_barrier is not None:
            await before_barrier()
        writer.write(b'{"op": "stats"}\n')
        await writer.drain()
        await asyncio.wait_for(done.wait(), timeout=barrier_timeout)
    finally:
        read_task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return replies, stats


@pytest.fixture(scope="session")
def swap_registry_path(directions_recognizer, tmp_path_factory):
    """A registry holding the swap candidate, as a worker-shippable path."""
    root = tmp_path_factory.mktemp("cluster-swap") / "registry"
    version = ModelRegistry(root).publish(
        "alt", directions_recognizer, metadata={}
    ).version
    return str(root), version


def recog_classes(lines) -> list[str]:
    return [
        json.loads(line)["class"]
        for line in lines
        if json.loads(line)["kind"] == "recog"
    ]


SWAP_USER = "c0g"  # prefixes both of client c0's strokes: c0g0, c0g1


def test_swap_rebinds_user_and_preserves_other_streams(
    recognizer_path,
    cluster_recognizer,
    cluster_workload,
    directions_recognizer,
    swap_registry_path,
):
    registry_root, version = swap_registry_path
    # The detector the test rests on: the candidate names no class the
    # base model knows, so every post-swap decision is attributable.
    assert not set(directions_recognizer.class_names) & set(
        cluster_recognizer.class_names
    )
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = end_time(ticks)
    reference = reference_lines(
        cluster_recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )
    swapped_strokes = {s for s in reference if s.startswith(SWAP_USER)}
    assert swapped_strokes  # the workload really contains client c0
    swap = {"op": "swap", "user": SWAP_USER, "model": "alt", "t": 0.0}

    async def run():
        async with Cluster(
            recognizer_path,
            workers=4,
            options=ServeOptions(registry=registry_root),
        ) as cluster:
            host, port = cluster.address
            replies, stats = await drive_with_lines(
                host, port, ticks, end_t=end_t, inject={0: [swap]}
            )
            return replies, stats, cluster.metrics.snapshot()

    replies, stats, snapshot = asyncio.run(run())
    # Exactly one ack, router-synthesized, version pinned.
    assert replies.pop("") == [encode_swap(SWAP_USER, f"alt@{version}", 0.0)]
    # Worker acks were absorbed, one per live shard.
    assert snapshot["counters"]["cluster.swap_acks_dropped"] == 4
    assert snapshot["counters"]["cluster.swaps_routed"] == 1
    # Every stroke of the swapped user was decided by the candidate...
    assert set(replies) == set(reference)
    for stroke in swapped_strokes:
        classes = recog_classes(replies[stroke])
        assert classes, stroke
        assert all(
            c in directions_recognizer.class_names for c in classes
        ), stroke
    # ...and everyone else's stream is byte-identical to the no-swap
    # single-pool reference.
    for stroke in sorted(set(reference) - swapped_strokes):
        assert replies[stroke] == reference[stroke], stroke
    assert stats["cluster"]["sessions"] == 0


def test_swap_survives_worker_crash_exactly_once(
    recognizer_path, cluster_workload, swap_registry_path
):
    registry_root, version = swap_registry_path
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = end_time(ticks)
    swap = {"op": "swap", "user": SWAP_USER, "model": "alt", "t": 0.0}
    # Kill the shard that owns the swapped user's *second* gesture: its
    # session opens after the restart, so a correct run proves the
    # journal replayed the swap ahead of the replayed/future sessions.
    victim = shard_of(f"{SWAP_USER}1", 4)
    mid = len(ticks) // 2

    async def run(crash: bool):
        async with Cluster(
            recognizer_path,
            workers=4,
            options=ServeOptions(registry=registry_root),
        ) as cluster:
            host, port = cluster.address
            ups_before = {}

            async def before_tick(i, t):
                if crash and i == mid:
                    await cluster.wait_all_up()
                    ups_before["n"] = cluster.router.links[victim].ups
                    assert cluster.kill(victim) is not None

            async def before_barrier():
                if crash:
                    await cluster.wait_recovered(victim, ups_before["n"])
                    await cluster.wait_all_up()

            replies, stats = await drive_with_lines(
                host,
                port,
                ticks,
                end_t=end_t,
                inject={0: [swap]},
                before_tick=before_tick,
                before_barrier=before_barrier,
            )
            return replies, stats, cluster.metrics.snapshot()

    clean, _, _ = asyncio.run(run(crash=False))
    crashed, stats, snapshot = asyncio.run(run(crash=True))
    # The crash actually happened and was healed by replay.
    assert snapshot["counters"]["cluster.worker_restarts"] >= 1
    assert snapshot["counters"]["cluster.replays"] >= 1
    # Exactly one client-facing ack even though the swap was re-applied.
    ack = [encode_swap(SWAP_USER, f"alt@{version}", 0.0)]
    assert clean.pop("") == ack
    assert crashed.pop("") == ack
    # Byte-identical reply map — swapped user included — crash and all.
    assert set(crashed) == set(clean)
    for stroke in sorted(clean):
        assert crashed[stroke] == clean[stroke], stroke
    assert stats["cluster"]["sessions"] == 0


def test_registry_less_cluster_rejects_swap(recognizer_path):
    swap = {"op": "swap", "user": "u", "model": "alt", "t": 0.0}
    ticks = [(0.0, [])]

    async def run():
        async with Cluster(recognizer_path, workers=2) as cluster:
            host, port = cluster.address
            replies, _ = await drive_with_lines(
                host, port, ticks, end_t=0.1, inject={0: [swap]}
            )
            return replies

    replies = asyncio.run(run())
    (line,) = replies[""]
    reply = json.loads(line)
    assert reply["kind"] == "error"
    assert "no registry" in reply["reason"]

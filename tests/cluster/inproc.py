"""In-process cluster harness for the differential fuzz suite.

Spinning real worker *subprocesses* per hypothesis example is far too
slow (and makes shrinking miserable), so :class:`InProcessCluster` runs
the same data plane — a real :class:`~repro.cluster.router.Router` in
front of N real :class:`~repro.serve.GestureServer` instances — inside
one event loop, over real TCP sockets.  Nothing is mocked: lp1
framing, journaling, replay, migration, drain, join/scale, and
swap broadcast all run the production code paths.  Only the supervisor
is absent; its duties (restart-on-death, spawn-on-join,
terminate-on-retire) are played by :meth:`crash`, :meth:`join`, and
:meth:`drain`, which drive the router through the exact
``worker_down`` → ``worker_up`` / rebalance / retire choreography the
supervisor would.

:func:`drive_script` generalises ``drive_cluster`` from "tick groups"
to an event *script* — ops, barriers, sweeps, swaps, raw (malformed or
non-canonical) lines, crashes, drains, joins, scale ops, connection
churn — so a fuzzer can interleave faults and elastic topology changes
with traffic at arbitrary positions.
:func:`reference_script` consumes the same script against a single
:class:`~repro.serve.SessionPool`, ignoring the fault events (the
byte-identity invariant says they must be invisible), and predicts the
router's non-decision replies (error lines, swap acks, drain acks)
byte-for-byte.
"""

from __future__ import annotations

import asyncio
import json

from repro.cluster import Router
from repro.interaction import DEFAULT_TIMEOUT
from repro.serve import (
    GestureServer,
    ProtocolError,
    SessionPool,
    decode_payload,
    encode_decision,
    encode_error,
    encode_swap,
)

__all__ = [
    "InProcessCluster",
    "churn_connection",
    "drive_script",
    "reference_script",
]


class InProcessCluster:
    """A router and N in-process GestureServer workers, one event loop."""

    def __init__(
        self,
        recognizer,
        workers: int = 2,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        registry=None,
    ):
        self.recognizer = recognizer
        self.timeout = timeout
        self.registry = registry
        self.shards = tuple(f"w{i}" for i in range(workers))
        self.router = Router(self.shards, registry=registry)
        self.router.drain_hook = self.drain
        self.router.scale_hook = self.scale_to
        self.servers: dict[str, GestureServer] = {}
        self._next_worker = workers
        self._scale_lock = asyncio.Lock()

    async def start(self) -> None:
        await self.router.start()
        for shard in self.shards:
            await self._up(shard)

    async def stop(self) -> None:
        await self.router.stop()
        for server in self.servers.values():
            await server.stop()
        self.servers.clear()

    async def __aenter__(self) -> "InProcessCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return self.router.address

    async def _up(self, shard: str) -> None:
        server = GestureServer(
            self.recognizer,
            port=0,
            timeout=self.timeout,
            registry=self.registry,
        )
        await server.start()
        self.servers[shard] = server
        host, port = server.address
        await self.router.worker_up(shard, host, port)

    async def crash(self, shard: str) -> None:
        """Kill one worker's state and bring up a fresh one.

        ``worker_down`` runs *first* — it severs the router-side link,
        so replies the dying worker produced but the router never read
        are lost, exactly as with a SIGKILL.  The fresh ``worker_up``
        then runs the real journal replay.
        """
        await self.router.worker_down(shard)
        old = self.servers.pop(shard, None)
        if old is not None:
            await old.stop()
        await self._up(shard)

    async def drain(self, shard: str) -> None:
        """The harness drain-by-migration, minus the subprocess kill."""
        if shard in self.router.draining or shard in self.router.retired:
            return
        self.router.draining.add(shard)
        await self.router.quiesce()
        self.router.migrate_off(shard)
        await self.router.worker_down(shard)
        server = self.servers.pop(shard, None)
        if server is not None:
            await server.stop()
        self.router.retired.add(shard)
        self.router.draining.discard(shard)

    async def join(self, shard: str | None = None) -> str:
        """Scale out by one in-process worker, mirroring Cluster.join."""
        if shard is None:
            while shard is None or shard in self.router.links:
                shard = f"w{self._next_worker}"
                self._next_worker += 1
        self.router.add_shard(shard)
        await self._up(shard)
        await self.router.quiesce()
        self.router.rebalance(self.router.ring.with_shard(shard))
        return shard

    async def scale_to(self, workers: int) -> None:
        """Walk the live fleet to ``workers``, mirroring Cluster.scale_to."""
        target = max(1, workers)
        async with self._scale_lock:
            while True:
                live = [
                    s
                    for s in self.router.links
                    if s not in self.router.retired
                    and s not in self.router.draining
                ]
                if len(live) < target:
                    await self.join()
                elif len(live) > target:
                    await self.drain(live[-1])
                else:
                    return

    async def wait_retired(self, shard: str, timeout: float = 60.0) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while shard not in self.router.retired:
            if loop.time() >= deadline:
                raise TimeoutError(f"{shard} never retired")
            await asyncio.sleep(0.01)


async def churn_connection(host: str, port: int) -> None:
    """One short-lived extra client: unknown op, garbage, hang up.

    Exercises connection churn without perturbing the primary stream —
    replies are per-connection, and neither line below touches the
    shared clock or any session.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b'{"op": "zap"}\nnot json!\n')
        await writer.drain()
        first = json.loads(await reader.readline())
        assert first["kind"] == "error", first
        assert first["reason"] == "unknown op: 'zap'", first
        second = json.loads(await reader.readline())
        assert second["kind"] == "error", second
        assert second["reason"].startswith("bad json"), second
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def drive_script(
    cluster: InProcessCluster, script, *, barrier_timeout: float = 120.0
):
    """Play an event script over one client connection; collect replies.

    Events (tuples, first element is the kind):

    - ``("ops", t, group)`` — one tick group of ``(op, stroke, x, y)``
    - ``("tick", t)`` / ``("sweep", max_idle)`` — barriers
    - ``("swap", user, model, t)`` — a model swap request
    - ``("raw", line)`` — a verbatim line (malformed or non-canonical)
    - ``("crash", shard)`` / ``("drain", shard)`` — faults
    - ``("join",)`` — scale out by one worker (live rebalance migration)
    - ``("scale", n)`` — the ``{"op": "scale"}`` admin request
    - ``("wait_workers", n)`` — block until the live fleet counts ``n``
    - ``("churn",)`` — an unrelated connection opens, errs, closes
    - ``("wait_retired", shard)`` — block until a drain completes

    Ends with the usual ``stats`` completion barrier.  Returns the
    per-stroke reply dict (non-decision replies land under ``""``).
    """
    host, port = cluster.address
    reader, writer = await asyncio.open_connection(host, port)
    replies: dict[str, list[str]] = {}
    done = asyncio.Event()

    async def read_replies() -> None:
        while True:
            raw = await reader.readline()
            if not raw:
                break
            obj = json.loads(raw)
            if obj.get("kind") == "stats":
                done.set()
                break
            replies.setdefault(obj.get("stroke", ""), []).append(
                raw.decode().rstrip("\n")
            )

    read_task = asyncio.get_running_loop().create_task(read_replies())

    async def send(*lines: str) -> None:
        writer.write(("\n".join(lines) + "\n").encode())
        await writer.drain()

    try:
        for event in script:
            kind = event[0]
            if kind == "ops":
                _, t, group = event
                if group:
                    await send(
                        *(
                            json.dumps(
                                {
                                    "op": name,
                                    "stroke": key,
                                    "x": x,
                                    "y": y,
                                    "t": t,
                                }
                            )
                            for name, key, x, y in group
                        )
                    )
            elif kind == "tick":
                await send(json.dumps({"op": "tick", "t": event[1]}))
            elif kind == "sweep":
                await send(
                    json.dumps({"op": "sweep", "max_idle": event[1]})
                )
            elif kind == "swap":
                _, user, model, t = event
                await send(
                    json.dumps(
                        {"op": "swap", "user": user, "model": model, "t": t}
                    )
                )
            elif kind == "raw":
                await send(event[1])
            elif kind == "crash":
                await cluster.crash(event[1])
            elif kind == "drain":
                await send(json.dumps({"op": "drain", "shard": event[1]}))
            elif kind == "join":
                await cluster.join()
            elif kind == "scale":
                await send(
                    json.dumps({"op": "scale", "workers": event[1]})
                )
            elif kind == "wait_workers":
                target = event[1]
                loop = asyncio.get_running_loop()
                deadline = loop.time() + barrier_timeout
                while True:
                    live = [
                        s
                        for s in cluster.router.links
                        if s not in cluster.router.retired
                        and s not in cluster.router.draining
                    ]
                    if len(live) == target:
                        break
                    if loop.time() >= deadline:
                        raise TimeoutError(
                            f"fleet never reached {target} workers"
                        )
                    await asyncio.sleep(0.01)
            elif kind == "churn":
                await churn_connection(host, port)
            elif kind == "wait_retired":
                await cluster.wait_retired(event[1])
            else:  # pragma: no cover - scripted by the test author
                raise ValueError(f"unknown script event: {event!r}")
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
    return replies


def _non_op_reply(line: str):
    """Predict the router's reply for a line outside the canonical shape.

    The router parses and validates every such line once, with the
    same json error text and the same ``decode_payload`` messages, so
    the expected error bytes need no hand-maintained table.  Returns
    ``(reply, None)`` for error lines and ``(None, request)`` when the
    line is a *valid* session op in another spelling — the router
    forwards it as the canonical op line, and the reference must apply
    it to the pool.
    """
    try:
        payload = json.loads(line)
    except ValueError as exc:
        return encode_error(f"bad json: {exc}"), None
    try:
        request = decode_payload(payload)
    except ProtocolError as exc:
        return encode_error(str(exc)), None
    if request.op in ("release", "pin", "expire"):
        # Migration internals: valid protocol, but the router refuses
        # them from clients with this error.
        return (
            encode_error(
                f"internal op: {request.op}",
                stroke=request.stroke,
                t=request.t,
            ),
            None,
        )
    return None, request


def reference_script(
    recognizer,
    script,
    *,
    registry=None,
    timeout: float = DEFAULT_TIMEOUT,
    max_sessions: int = 4096,
) -> dict[str, list[str]]:
    """What a single pool — and the router's own replies — say.

    Crash and churn events are skipped: the invariant under test is
    precisely that they leave no trace in the reply bytes.  Drains
    contribute only their ack line; routing changes are invisible."""
    pool = SessionPool(
        recognizer, timeout=timeout, batched=True, max_sessions=max_sessions
    )
    replies: dict[str, list[str]] = {}
    latest = float("-inf")

    def emit(decisions) -> None:
        for d in decisions:
            replies.setdefault(d.key, []).append(encode_decision(d, d.key))

    def misc(line: str) -> None:
        replies.setdefault("", []).append(line)

    for event in script:
        kind = event[0]
        if kind == "ops":
            _, t, group = event
            if group:
                pool.submit(group, t)
                latest = max(latest, t)
        elif kind == "tick":
            latest = max(latest, event[1])
            emit(pool.advance_to(latest))
        elif kind == "sweep":
            if latest > float("-inf"):
                emit(pool.advance_to(latest))
            emit(pool.evict_idle(event[1]))
        elif kind == "swap":
            _, user, model, t = event
            name, _, version = model.partition("@")
            if not version:
                version = registry.latest_version(name)
            pinned = f"{name}@{version}"
            pool.swap_model(
                user, registry.load(name, version), t, label=pinned
            )
            misc(encode_swap(user, pinned, t))
        elif kind == "raw":
            reply, request = _non_op_reply(event[1])
            if reply is not None:
                misc(reply)
            else:
                pool.submit(
                    [(request.op, request.stroke, request.x, request.y)],
                    request.t,
                )
                latest = max(latest, request.t)
        elif kind == "drain":
            misc(
                json.dumps(
                    {"kind": "drain", "shard": event[1], "status": "started"}
                )
            )
        elif kind == "scale":
            misc(
                json.dumps(
                    {
                        "kind": "scale",
                        "workers": event[1],
                        "status": "started",
                    }
                )
            )
        # crash / join / churn / wait_workers / wait_retired: invisible
        # by construction — topology is not allowed to touch the bytes.
    return replies

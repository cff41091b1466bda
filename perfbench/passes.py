"""One timed pass of a workload, in a fresh process.

    python3 perfbench/passes.py KIND WORKLOAD SEED

KIND is one of:

* ``ref``     — the traffic for WORKLOAD at SEED and the reference
  outputs for it (untimed);
* ``pool``    — the in-process ``SessionPool`` pass (``pool-notes``);
* ``pool-traced`` — the same, with the profiler and per-call timers;
* ``tcp``     — one pass against a freshly launched ``repro cluster``;
* ``replay`` / ``replay-traced`` — the TCP workload's exact op lines
  replayed in process through the worker's code path (framing, decode,
  pool, encode), untimed per layer or timed per layer.

Passes other than ``ref`` read the traffic and the reference (the
``ref`` pass's output) from stdin before they start timing, and print one JSON line: what they measured and whether
their outputs matched the reference.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from time import perf_counter, perf_counter_ns

from common import ROOT, calib_us, child_env, emit, quantile, use_src, vm_hwm_mb
from workloads import (
    DT,
    EXAMPLES,
    TIMEOUT,
    TRAIN_SEED,
    WORKLOADS,
    causing_tick,
    encode_ticks,
    recognition_quality,
    train,
    training_examples,
    from_ticks,
    traffic,
)

use_src()

STARTUP_TIMEOUT = 60.0  # launch -> ready line
DRIVE_TIMEOUT = 90.0  # first write -> stats barrier reply
STOP_TIMEOUT = 20.0  # SIGINT -> exit


def _decision_rows(decisions) -> list:
    return [
        [d.key, d.kind, d.t, d.class_name, d.eager, d.points_seen,
         d.total_points, d.reason]
        for d in decisions
    ]


def _latency_summary(samples_ms: list) -> dict:
    if not samples_ms:
        raise RuntimeError("no decisions to time")
    return {
        "p50_ms": quantile(samples_ms, 0.5),
        "p99_ms": quantile(samples_ms, 0.99),
        "samples": len(samples_ms),
    }


def _section(snapshot: dict, name: str) -> dict:
    return snapshot.get(name) or {"count": 0, "total_us": 0.0, "units": 0}


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def _pool_layers(profile: dict, ticks_us: list, pool_us: float, points: int,
                 timeouts: int, sessions_peak: int, train_s: float) -> dict:
    """Per-layer figures below the pool's API, from a PerfProfiler snapshot
    plus the bench-side timers around the pool calls (``ticks_us``: pool
    time per tick, 0 for a tick without ops)."""
    feature = _section(profile, "feature_update")
    fused = _section(profile, "fused_eval")
    full = _section(profile, "full_eval")
    fallback = _section(profile, "exact_fallback")
    sections_us = sum(s["total_us"] for s in profile.values())
    rows = fused["units"] + full["units"]
    ticks_us = [us for us in ticks_us if us > 0]  # ticks that carried ops
    return {
        "serve.bank.feature_us_per_point": _per(feature["total_us"], feature["units"]),
        "serve.batch.fused_eval_us_per_row": _per(fused["total_us"], fused["units"]),
        "serve.batch.rows_per_tick": _per(rows, len(ticks_us)),
        "serve.batch.fallback_share": _per(fallback["units"], rows),
        "eager.full_eval_us_per_call": _per(
            full["total_us"] + fallback["total_us"],
            full["count"] + fallback["count"],
        ),
        "eager.train_s": train_s,
        "serve.pool.tick_us_p50": quantile(ticks_us, 0.5),
        "serve.pool.tick_us_p99": quantile(ticks_us, 0.99),
        "serve.pool.self_us_per_op": _per(pool_us - sections_us, points),
        "serve.pool.timeouts": timeouts,
        "serve.pool.sessions_peak": sessions_peak,
    }


# -- pool-notes ---------------------------------------------------------------


def ref_pool(spec, tr) -> list:
    """The sequential pool's decision stream: the batched pool must match."""
    from repro.serve import SessionPool

    pool = SessionPool(
        train(training_examples(spec)),
        batched=False,
        max_sessions=spec.clients + 1,
        timeout=TIMEOUT,
    )
    out = []
    for t, group in tr.ticks:
        if group:
            pool.submit(group, t)
        out.extend(pool.advance_to(t))
    out.extend(pool.advance_to(tr.end_t))
    out.extend(pool.evict_idle(0.0))
    return _decision_rows(out)


def pool_pass(spec, tr, reference, traced: bool) -> dict:
    from repro.obs import PerfProfiler, PoolObserver
    from repro.serve import SessionPool

    examples = training_examples(spec)
    calib = calib_us()
    gc.collect()
    t0 = perf_counter()
    recognizer = train(examples)
    t1 = perf_counter()
    profiler = PerfProfiler() if traced else None
    pool = SessionPool(
        recognizer,
        batched=True,
        max_sessions=spec.clients + 1,
        timeout=TIMEOUT,
        observer=PoolObserver(profiler=profiler) if traced else None,
    )
    setup_s = perf_counter() - t0
    hwm_before = vm_hwm_mb()
    log = []
    latency_ms = []
    ticks_us = []
    pool_ns = client_ns = 0
    sessions_peak = 0
    start = perf_counter()
    if not traced:
        for t, group in tr.ticks:
            due = perf_counter()
            if group:
                pool.submit(group, t)
            decided = pool.advance_to(t)
            if decided:
                ms = (perf_counter() - due) * 1e3
                log.extend(decided)
                latency_ms.extend([ms] * len(decided))
    else:
        gap_ns = []
        ready = perf_counter_ns()
        for t, group in tr.ticks:
            a = perf_counter_ns()
            if group:
                pool.submit(group, t)
            decided = pool.advance_to(t)
            b = perf_counter_ns()
            if decided:
                log.extend(decided)
                latency_ms.extend([(b - a) / 1e6] * len(decided))
            n = len(pool)
            if n > sessions_peak:
                sessions_peak = n
            ticks_us.append((b - a) / 1e3 if group else 0.0)
            pool_ns += b - a
            gap_ns.append(a - ready)
            ready = perf_counter_ns()
            client_ns += ready - b
    log.extend(pool.advance_to(tr.end_t))
    log.extend(pool.evict_idle(0.0))
    elapsed = perf_counter() - start
    growth_mb = vm_hwm_mb() - hwm_before

    rows = json.loads(json.dumps(_decision_rows(log)))
    ok = rows == reference
    points = tr.n_points
    ops = tr.n_ops
    out = {
        "ok": ok,
        "detail": None if ok else _first_difference(rows, reference),
        "ops": ops,
        "errors": sum(1 for d in log if d.kind == "error"),
        "points": points,
        "elapsed_s": elapsed,
        "setup_s": setup_s,
        "calib_us": calib,
        "rss_mb": growth_mb,
        "latency": _latency_summary(latency_ms),
        "quality": recognition_quality(
            [(d.key, d.class_name, d.eager, d.points_seen)
             for d in log if d.kind == "recog"],
            tr,
        ),
    }
    if traced:
        pool_us = pool_ns / 1e3
        layers = _pool_layers(
            profiler.snapshot(),
            ticks_us,
            pool_us,
            points,
            sum(1 for d in log if d.kind == "recog" and d.reason == "timeout"),
            sessions_peak,
            t1 - t0,
        )
        wall_us = elapsed * 1e6
        # Closed loop: a tick is due when the previous one returned.
        layers["client.late_p99_ms"] = quantile(gap_ns, 0.99) / 1e6
        layers["client.busy_share"] = client_ns / 1e3 / wall_us
        layers["trace.unattributed_pct"] = (
            100.0 * (wall_us - pool_us - client_ns / 1e3) / wall_us
        )
        out["layers"] = layers
    return out


def _first_difference(rows, reference) -> str:
    for i, (a, b) in enumerate(zip(rows, reference)):
        if a != b:
            return f"decision {i}: got {a}, expected {b}"
    return f"{len(rows)} decisions, expected {len(reference)}"


# -- the TCP workloads ----------------------------------------------------------


def ref_tcp(spec, tr) -> dict:
    """What one SessionPool replies, per stroke, to the same stream."""
    from repro.cluster import reference_lines

    return reference_lines(
        train(training_examples(spec)), tr.ticks, end_t=tr.end_t,
        timeout=TIMEOUT,
    )


def _score_replies(lines, tr, reference) -> tuple[dict, dict, list]:
    """Group reply lines per stroke and check them against the reference.

    Returns ``(check, quality, replies)``: ``check`` counts mismatched
    strokes, missing and error replies; ``replies`` are the decoded
    lines, in arrival order.
    """
    got: dict = {}
    replies = []
    protocol_errors = errors = 0
    for line in lines:
        text = line.decode()
        obj = json.loads(text)
        replies.append(obj)
        stroke = obj.get("stroke", "")
        if obj.get("kind") == "error":
            errors += 1
            protocol_errors += not stroke
        got.setdefault(stroke, []).append(text)
    mismatched = [s for s in reference if got.get(s) != reference[s]]
    mismatched += [s for s in got if s not in reference]
    missing = sum(
        max(0, len(reference[s]) - len(got.get(s, ()))) for s in reference
    )
    check = {
        "ok": not mismatched,
        "mismatched_strokes": len(mismatched),
        "missing_replies": missing,
        "error_replies": errors,
        "protocol_errors": protocol_errors,
        "example": mismatched[:1],
    }
    quality = recognition_quality(
        [(o["stroke"], o["class"], o["eager"], o["points_seen"])
         for o in replies if o.get("kind") == "recog"],
        tr,
    )
    return check, quality, replies


def _launch_cluster(spec):
    """Start `repro cluster` with one worker; return (proc, port, setup_s)."""
    cmd = [
        sys.executable, "-m", "repro.cli", "cluster",
        "--family", spec.family,
        "--examples", str(EXAMPLES),
        "--seed", str(TRAIN_SEED),
        "--workers", "1",
        "--port", "0",
    ]
    launched = perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(STARTUP_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        for raw in proc.stdout:
            line = raw.decode(errors="replace")
            if line.startswith("cluster:"):
                setup_s = perf_counter() - launched
                address = line.split(" on ", 1)[1].split()[0]
                return proc, int(address.rsplit(":", 1)[1]), setup_s
    finally:
        watchdog.cancel()
    proc.wait()
    raise RuntimeError(f"cluster exited before ready (code {proc.returncode})")


def _worker_pid(port: int) -> int:
    """Ask the router (admin op ``cluster``) for its worker's pid."""
    with socket.create_connection(("127.0.0.1", port), timeout=STARTUP_TIMEOUT) as sock:
        sock.sendall(b'{"op": "cluster"}\n')
        with sock.makefile("rb") as reply:
            return json.loads(reply.readline())["shards"]["w0"]["pid"]


def _pin(router_pid: int, worker_pid: int) -> None:
    """One core for the router and this client, another for the worker.

    Unpinned, the scheduler moves the three processes across the two
    cores of a small host from pass to pass, and the paced latencies
    swing by 2-4x with it; pinned they hold still.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    os.sched_setaffinity(router_pid, {cpus[0]})
    os.sched_setaffinity(0, {cpus[0]})
    os.sched_setaffinity(worker_pid, {cpus[1]})


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _stop_cluster(proc, worker_pid) -> None:
    """SIGINT the router (it retires its worker), and wait for both."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    if worker_pid:
        deadline = time.monotonic() + STOP_TIMEOUT
        while _alive(worker_pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if _alive(worker_pid):
            try:
                os.kill(worker_pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            while _alive(worker_pid) and time.monotonic() < deadline + 5:
                time.sleep(0.02)


class _Reader(threading.Thread):
    """Collects reply lines with their arrival times; stops at stats."""

    def __init__(self, sock):
        super().__init__(daemon=True)
        self.sock = sock
        self.chunks = []  # (arrival perf_counter, [line, ...])
        self.stats_line = None
        self.error = None

    def run(self):
        buf = b""
        try:
            while True:
                data = self.sock.recv(1 << 16)
                now = perf_counter()
                if not data:
                    return
                lines = (buf + data).split(b"\n")
                buf = lines.pop()
                if lines and lines[-1].startswith(b'{"kind": "stats"'):
                    self.stats_line = lines.pop()
                    self.chunks.append((now, lines))
                    return
                self.chunks.append((now, lines))
        except OSError as exc:
            self.error = repr(exc)


def _drive(sock, chunks, tail, paced: bool, dt: float):
    """Write the pre-encoded stream; return per-tick due times (the tail
    last), how late the generator wrote each tick, and its time blocked
    in ``sendall``.

    Paced, a tick is due on its 100 Hz slot.  Closed, a tick is due the
    moment the previous write returned, so lateness is the generator's
    own overhead between writes.
    """
    due = [0.0] * (len(chunks) + 1)
    late = []
    blocked = 0.0
    start = ready = perf_counter()
    for k, chunk in enumerate(chunks + [tail]):
        if paced:
            ready = start + k * dt
            wait = ready - perf_counter()
            if wait > 0:
                time.sleep(wait)
        before = perf_counter()
        sock.sendall(chunk)
        after = perf_counter()
        due[k] = ready
        late.append(before - ready)
        blocked += after - before
        ready = after
    return start, due, late, blocked


def tcp_pass(spec, tr, reference) -> dict:
    chunks, tail = encode_ticks(tr)
    tick_ts = [t for t, _ in tr.ticks] + [tr.end_t]
    calib = calib_us()
    gc.collect()
    proc, port, setup_s = _launch_cluster(spec)
    worker_pid = None
    try:
        worker_pid = _worker_pid(port)
        _pin(proc.pid, worker_pid)
        with socket.create_connection(
            ("127.0.0.1", port), timeout=DRIVE_TIMEOUT
        ) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = _Reader(sock)
            cpu0 = time.process_time()
            reader.start()
            start, due, late, blocked = _drive(sock, chunks, tail, spec.paced, DT)
            reader.join(DRIVE_TIMEOUT)
            cpu = time.process_time() - cpu0
        if reader.stats_line is None:
            raise RuntimeError(f"no stats barrier reply ({reader.error})")
        done = reader.chunks[-1][0] if reader.chunks else perf_counter()
        stats = json.loads(reader.stats_line)
        router_mb = vm_hwm_mb(proc.pid)
        worker_mb = vm_hwm_mb(worker_pid)
    finally:
        _stop_cluster(proc, worker_pid)

    lines = [line for _, batch in reader.chunks for line in batch]
    arrival = [at for at, batch in reader.chunks for _ in batch]
    check, quality, replies = _score_replies(lines, tr, reference)
    latency_ms = [
        (at - due[causing_tick(tick_ts, obj["t"])]) * 1e3
        for at, obj in zip(arrival, replies)
    ]
    wall = done - start
    points = tr.n_points
    ops = tr.n_ops
    router = stats["cluster"]["router"]
    worker_busy = stats["cluster"]["worker_busy_s"]
    inbox = stats["metrics"]["histograms"]["server.inbox_batch"]
    return {
        "ok": check["ok"],
        "detail": None if check["ok"] else check,
        "ops": ops,
        "errors": check["error_replies"] + check["missing_replies"],
        "points": points,
        "elapsed_s": wall,
        "setup_s": setup_s,
        "calib_us": calib,
        "rss_mb": router_mb + worker_mb,
        "latency": _latency_summary(latency_ms),
        "quality": quality,
        "live": {
            "serve.server.busy_us_per_op": worker_busy * 1e6 / ops,
            "serve.server.busy_share": worker_busy / wall,
            "serve.server.inbox_batch_p50": _histogram_p50(inbox),
            "cluster.router.client_in_us_per_op": router["client_in_s"] * 1e6 / ops,
            "cluster.router.worker_in_us_per_op": router["worker_in_s"] * 1e6 / ops,
            "cluster.router.busy_share": router["busy_s"] / wall,
            "transport.us_per_op": (wall - router["busy_s"] - worker_busy)
            * 1e6 / ops,
            "client.late_p99_ms": quantile(late, 0.99) * 1e3,
            "client.drain_wait_share": blocked / wall,
            "client.busy_share": cpu / wall,
            "mem.router_rss_mb": router_mb,
            "mem.worker_rss_mb": worker_mb,
        },
    }


def _histogram_p50(snapshot: dict) -> float:
    """Upper bound of the bucket holding the median observation."""
    half = snapshot["count"] / 2.0
    seen = 0
    for edge, n in snapshot["buckets"]:
        seen += n
        if seen >= half:
            return float(edge) if edge is not None else float(snapshot["max"])
    return 0.0


# -- in-process replay of the TCP workloads ---------------------------------------


class _Feed:
    """A stream reader that hands over whatever bytes were put in it."""

    def __init__(self):
        self.data = b""

    async def read(self, _n):
        data, self.data = self.data, b""
        return data


def _read_frames(frames, feed, data) -> list:
    """Run ``FrameReader.next_batch`` over ``data`` without an event loop
    (the feed never blocks, so the coroutine finishes in one step)."""
    feed.data = data
    coro = frames.next_batch()
    try:
        coro.send(None)
    except StopIteration as stop:
        return [payload for kind, payload in stop.value if kind == "line"]
    coro.close()
    raise RuntimeError("FrameReader waited for more bytes than were sent")


class _Hop:
    """The worker's side of one connection: apply decoded requests to
    the pool the way ``GestureServer`` does, clock barriers included."""

    def __init__(self, pool):
        self.pool = pool
        self.latest = float("-inf")

    def apply(self, req, decided: list) -> None:
        pool = self.pool
        op = req.op
        if op in ("tick", "sweep"):
            if req.t > self.latest:
                self.latest = req.t
            decided.extend(pool.advance_to(self.latest))
            if op == "sweep":
                decided.extend(pool.evict_idle(req.max_idle))
        elif op == "down":
            pool.down(req.stroke, req.x, req.y, req.t)
        elif op == "move":
            pool.move(req.stroke, req.x, req.y, req.t)
        else:
            pool.up(req.stroke, req.x, req.y, req.t)


def replay_pass(spec, tr, reference, traced: bool) -> dict:
    """The worker hop in one process: router-side lp1 encode, worker-side
    frame read, ``decode_request``, the pool, ``encode_decision``, and
    the reply frames back through a router-side reader.  Untraced, the
    loop reads no clock; traced, every stage is timed."""
    from repro.obs import PerfProfiler, PoolObserver
    from repro.serve import (
        FrameReader,
        SessionPool,
        decode_request,
        encode_decision,
        encode_frames,
    )

    chunks, tail = encode_ticks(tr)
    payloads = [chunk.split(b"\n")[:-1] for chunk in chunks]
    payloads.append(tail.split(b"\n")[:2])  # end tick + sweep
    examples = training_examples(spec)
    calib = calib_us()
    gc.collect()
    t0 = perf_counter()
    recognizer = train(examples)
    train_s = perf_counter() - t0
    profiler = PerfProfiler() if traced else None
    hop = _Hop(SessionPool(
        recognizer,
        batched=True,
        timeout=TIMEOUT,
        observer=PoolObserver(profiler=profiler) if traced else None,
    ))
    to_worker, to_router = _Feed(), _Feed()
    worker_in = FrameReader(to_worker)
    router_in = FrameReader(to_router)
    replies: dict = {}
    n_ops = n_replies = 0
    frame_ns = read_ns = decode_ns = pool_ns = encode_ns = 0
    ticks_us = []
    sessions_peak = 0
    start = perf_counter()
    if not traced:
        for batch in payloads:
            frames = _read_frames(worker_in, to_worker, encode_frames(batch))
            n_ops += len(frames)
            decided = []
            for frame in frames:
                hop.apply(decode_request(frame), decided)
            if decided:
                back = _read_frames(router_in, to_router, encode_frames(
                    [encode_decision(d, d.key).encode() for d in decided]
                ))
                n_replies += len(back)
                for d, line in zip(decided, back):
                    replies.setdefault(d.key, []).append(line.decode())
    else:
        for batch in payloads:
            a = perf_counter_ns()
            data = encode_frames(batch)
            b = perf_counter_ns()
            frames = _read_frames(worker_in, to_worker, data)
            c = perf_counter_ns()
            frame_ns += b - a
            read_ns += c - b
            n_ops += len(frames)
            decided = []
            tick_ns = 0
            for frame in frames:
                a = perf_counter_ns()
                req = decode_request(frame)
                b = perf_counter_ns()
                hop.apply(req, decided)
                c = perf_counter_ns()
                decode_ns += b - a
                tick_ns += c - b
            pool_ns += tick_ns
            ticks_us.append(tick_ns / 1e3)
            sessions_peak = max(sessions_peak, len(hop.pool))
            if decided:
                a = perf_counter_ns()
                lines = [encode_decision(d, d.key).encode() for d in decided]
                b = perf_counter_ns()
                data = encode_frames(lines)
                c = perf_counter_ns()
                back = _read_frames(router_in, to_router, data)
                e = perf_counter_ns()
                encode_ns += b - a
                frame_ns += c - b
                read_ns += e - c
                n_replies += len(back)
                for d, line in zip(decided, back):
                    replies.setdefault(d.key, []).append(line.decode())
    elapsed = perf_counter() - start

    mismatched = [s for s in reference if replies.get(s) != reference[s]]
    mismatched += [s for s in replies if s not in reference]
    points = tr.n_points
    out = {
        "ok": not mismatched,
        "detail": None if not mismatched else {"example": mismatched[:1]},
        "ops": n_ops,
        "errors": sum(
            1 for lines in replies.values() for line in lines
            if line.startswith('{"kind": "error"')
        ),
        "points": points,
        "elapsed_s": elapsed,
        "calib_us": calib,
    }
    if traced:
        timeouts = sum(
            1 for lines in replies.values() for line in lines
            if '"reason": "timeout"' in line
        )
        layers = _pool_layers(
            profiler.snapshot(),
            ticks_us,
            pool_ns / 1e3,
            points,
            timeouts,
            sessions_peak,
            train_s,
        )
        frames = n_ops + n_replies
        layers.update({
            "serve.protocol.decode_us_per_op": decode_ns / 1e3 / n_ops,
            "serve.protocol.encode_us_per_reply": _per(encode_ns / 1e3, n_replies),
            "serve.framing.encode_us_per_frame": frame_ns / 1e3 / frames,
            "serve.framing.read_us_per_frame": read_ns / 1e3 / frames,
        })
        wall_us = elapsed * 1e6
        spans_us = (frame_ns + read_ns + decode_ns + pool_ns + encode_ns) / 1e3
        layers["trace.unattributed_pct"] = 100.0 * (wall_us - spans_us) / wall_us
        out["layers"] = layers
    return out


def main(argv) -> int:
    kind, name, seed = argv[0], argv[1], int(argv[2])
    spec = WORKLOADS[name]
    if kind == "ref":
        tr = traffic(spec, seed)
        ref = ref_pool if spec.transport == "pool" else ref_tcp
        emit({
            "ticks": tr.ticks,
            "reference": ref(spec, tr),
            "ops": tr.n_ops,
        })
        return 0
    given = json.load(sys.stdin)
    tr = from_ticks(spec, given["ticks"])
    reference = given["reference"]
    if kind in ("pool", "pool-traced"):
        result = pool_pass(spec, tr, reference, kind == "pool-traced")
    elif kind == "tcp":
        result = tcp_pass(spec, tr, reference)
    elif kind in ("replay", "replay-traced"):
        result = replay_pass(spec, tr, reference, kind == "replay-traced")
    else:
        raise SystemExit(f"unknown pass kind {kind!r}")
    result["kind"] = kind
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

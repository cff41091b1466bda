"""Cluster benchmark: scaling, profiled breakdown, crash recovery,
and the invariance check.

The sharded service's claims, measured:

* **byte-identity** — the per-stroke reply lines of the 1/2/4-worker
  cluster are string-equal to both a single :class:`GestureServer` and
  the in-process reference pool, for the identical tick cadence;
* **throughput** — ops/sec through the router at 1, 2 and 4 workers
  against the single-process TCP baseline (the identical worker
  subprocess, driven directly with no router in front), with a profiled
  router/worker/transport breakdown per worker count (``router_s`` is
  the router's data-plane busy time, ``worker_s`` the fleet's summed
  pump busy time, ``transport_s`` the remainder: syscalls, framing,
  scheduling).  Per-stage µs/op make regressions attributable to a
  stage, not just visible in the total.

  Two floors are asserted: the 1-worker cluster must stay within 0.85x
  of the single-process baseline *on any host* (the router's fast
  paths — splice rewriting, memoized routing, coalesced lp1 writes —
  exist to make the extra hop nearly free), and 4 workers must reach
  >= 2x on hosts with at least 4 CPUs (skipped below that: a 1-core
  container cannot demonstrate parallelism; the measured numbers and
  the CPU count are published regardless, so they are honest either
  way);
* **crash recovery** — wall time from SIGKILLing a worker to the
  supervisor's replacement being respawned, reconnected, and replayed.

Results go to ``BENCH_cluster.json`` at the repo root.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import pytest
from conftest import write_bench_json, write_report

from repro.cluster import Cluster, drive_cluster, reference_lines, workload_ticks
from repro.cluster.worker import worker_command, worker_env
from repro.eager import train_eager_recognizer
from repro.interaction import DEFAULT_TIMEOUT
from repro.serve import generate_workload
from repro.synth import GestureGenerator, gdp_templates

CLIENTS = 96
GESTURES_PER_CLIENT = 2
EXAMPLES = 12
SEED = 9
DT = 0.01
WORKER_COUNTS = (1, 2, 4)
# One drive lasts about a hundred milliseconds, and the host's
# throughput wobbles ±10% run to run — far too noisy for a single
# sample.  Every configuration is driven REPEATS times against a fresh
# server/cluster (clocks only move forward, so a run cannot be
# replayed into a used fleet) and the *median* run is reported: a
# min-of-N would compare two distributions by their lucky tails, while
# the median is a robust estimator of what each configuration actually
# sustains.
REPEATS = 5


def _median_run(runs):
    """The (elapsed, stats) sample with the median elapsed time."""
    return sorted(runs, key=lambda r: r[0])[len(runs) // 2]


@pytest.fixture(scope="module")
def cluster_bench(tmp_path_factory):
    templates = gdp_templates()
    strokes = GestureGenerator(templates, seed=SEED).generate_strokes(EXAMPLES)
    recognizer = train_eager_recognizer(strokes).recognizer
    path = tmp_path_factory.mktemp("bench_cluster") / "recognizer.json"
    recognizer.save(path)
    workload = generate_workload(
        templates,
        clients=CLIENTS,
        gestures_per_client=GESTURES_PER_CLIENT,
        seed=SEED + 1,
    )
    ticks = workload_ticks(workload, dt=DT)
    end_t = len(ticks) * DT + DEFAULT_TIMEOUT + DT
    return recognizer, str(path), ticks, end_t


async def _timed_drive(host: str, port: int, ticks, end_t: float):
    start = time.perf_counter()
    replies, stats = await drive_cluster(host, port, ticks, end_t=end_t)
    return replies, stats, time.perf_counter() - start


def _breakdown(total_s: float, router_s: float, worker_s: float, ops: int):
    """One stage-attributed timing dict; transport is the remainder."""
    transport_s = max(0.0, total_s - router_s - worker_s)
    scale = 1e6 / ops if ops else 0.0
    return {
        "total_s": round(total_s, 4),
        "router_s": round(router_s, 4),
        "worker_s": round(worker_s, 4),
        "transport_s": round(transport_s, 4),
        "router_us_per_op": round(router_s * scale, 2),
        "worker_us_per_op": round(worker_s * scale, 2),
        "transport_us_per_op": round(transport_s * scale, 2),
    }


def test_cluster_numbers(cluster_bench):
    recognizer, path, ticks, end_t = cluster_bench
    reference = reference_lines(
        recognizer, ticks, end_t=end_t, timeout=DEFAULT_TIMEOUT
    )
    points = sum(len(group) for _, group in ticks)

    # Single-process TCP baseline: the *identical* worker subprocess
    # the cluster runs — same argv, same observer, same framing
    # support — driven directly with no router in between.  Measuring
    # the proxy means inserting it in front of the same backend:
    # driving an in-process loopback server instead would credit the
    # baseline with zero context switches and book the client/server
    # process separation (which every deployment pays) as router
    # overhead.  Its "worker" time is the server's own pump busy time;
    # there is no router stage.
    async def baseline():
        proc = await asyncio.create_subprocess_exec(
            *worker_command(path, "baseline"),
            env=worker_env(),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
        )
        try:
            ready = json.loads(await proc.stdout.readline())
            assert ready.get("event") == "ready", ready
            return await _timed_drive(
                ready["host"], ready["port"], ticks, end_t
            )
        finally:
            proc.terminate()
            await proc.wait()

    runs = []
    for _ in range(REPEATS):
        replies, stats, elapsed = asyncio.run(baseline())
        assert replies == reference
        runs.append((elapsed, stats))
    baseline_s, stats = _median_run(runs)
    baseline_breakdown = _breakdown(
        baseline_s, 0.0, stats.get("busy_s", 0.0), points
    )

    cluster_s: dict = {}
    breakdowns: dict = {}
    for n in WORKER_COUNTS:

        async def run(workers=n):
            async with Cluster(path, workers=workers) as cluster:
                await cluster.wait_all_up()
                host, port = cluster.address
                return await _timed_drive(host, port, ticks, end_t)

        runs = []
        for _ in range(REPEATS):
            replies, stats, elapsed = asyncio.run(run())
            assert replies == reference, (
                f"{n}-worker replies not byte-identical"
            )
            runs.append((elapsed, stats))
        cluster_s[n], stats = _median_run(runs)
        fleet = stats.get("cluster", {})
        breakdowns[n] = _breakdown(
            cluster_s[n],
            fleet.get("router", {}).get("busy_s", 0.0),
            fleet.get("worker_busy_s", 0.0),
            points,
        )

    # Crash recovery: SIGKILL one of two workers, time until the
    # replacement is respawned, reconnected, and its replay enqueued.
    async def recovery():
        async with Cluster(path, workers=2) as cluster:
            await cluster.wait_all_up()
            ups = cluster.router.links["w0"].ups
            start = time.perf_counter()
            assert cluster.kill("w0") is not None
            await cluster.wait_recovered("w0", ups)
            return time.perf_counter() - start

    recovery_s = asyncio.run(recovery())

    cpus = os.cpu_count() or 1
    baseline_pps = points / baseline_s if baseline_s else 0.0
    pps = {n: points / s if s else 0.0 for n, s in cluster_s.items()}
    speedup_1 = pps[1] / baseline_pps if baseline_pps else 0.0
    speedup_4 = pps[4] / baseline_pps if baseline_pps else 0.0

    def fmt(n):
        b = breakdowns[n]
        return (
            f"{n} worker(s): {pps[n]:,.0f} ops/s "
            f"({pps[n] / baseline_pps:.2f}x) "
            f"[router {b['router_us_per_op']:.0f} / worker "
            f"{b['worker_us_per_op']:.0f} / transport "
            f"{b['transport_us_per_op']:.0f} us/op]\n"
        )

    write_report(
        "cluster",
        f"Sharded cluster ({CLIENTS} clients, {points} ops, {cpus} cpus)\n"
        f"baseline (1 process): {baseline_pps:,.0f} ops/s "
        f"[worker {baseline_breakdown['worker_us_per_op']:.0f} / transport "
        f"{baseline_breakdown['transport_us_per_op']:.0f} us/op]\n"
        + "".join(fmt(n) for n in WORKER_COUNTS)
        + f"crash recovery: {recovery_s * 1000:.0f} ms\n"
        "replies byte-identical to the single pool at every worker count",
    )
    write_bench_json(
        "cluster",
        params={
            "clients": CLIENTS,
            "gestures_per_client": GESTURES_PER_CLIENT,
            "examples_per_class": EXAMPLES,
            "seed": SEED,
            "ops": points,
            "worker_counts": list(WORKER_COUNTS),
            "cpus": cpus,
        },
        results={
            "baseline_ops_per_sec": round(baseline_pps, 1),
            "baseline_breakdown": baseline_breakdown,
            "cluster_ops_per_sec": {
                str(n): round(pps[n], 1) for n in WORKER_COUNTS
            },
            "cluster_breakdown": {
                str(n): breakdowns[n] for n in WORKER_COUNTS
            },
            "speedup_1_worker": round(speedup_1, 3),
            "speedup_4_workers": round(speedup_4, 3),
            "crash_recovery_s": round(recovery_s, 4),
            "byte_identical": True,
        },
    )
    # The router-overhead floor holds on any host: one worker through
    # the router must stay within 0.85x of the no-router baseline.
    assert speedup_1 >= 0.85, (
        f"1 worker reached {pps[1]:,.0f} ops/s vs baseline "
        f"{baseline_pps:,.0f} = {speedup_1:.2f}x, expected >= 0.85x"
    )
    if cpus < 4:
        pytest.skip(
            f"only {cpus} CPU(s): byte-identity and the 1-worker floor "
            "asserted above, but a parallel speedup cannot be "
            "demonstrated on this machine"
        )
    assert speedup_4 >= 2.0, (
        f"4 workers reached {pps[4]:,.0f} ops/s vs baseline "
        f"{baseline_pps:,.0f} = {speedup_4:.2f}x, expected >= 2.0x"
    )

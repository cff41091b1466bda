"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pool-notes --seed 1 --seconds 30 --trace 0

Every timed pass runs in a fresh process (``passes.py``), so no state
carries over from one pass to the next.  The reference outputs are
computed once per run, untimed, and every pass is checked against them;
a pass whose outputs differ counts all its ops as failed.  Passes are
repeated until ``--seconds`` have been spent measuring, and each metric
is the median over passes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics (see README.md).  The last line of stdout is the
result as JSON; a human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from common import ROOT, SRC, TMP, child_env, fingerprint, median, tail_label
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
PASS_TIMEOUT = 100.0
AWAKE_SECONDS = 175.0  # spinners stop on their own after this
MIN_PASSES = 3  # per pass kind, even if --seconds runs out first
MAX_SECONDS = 110.0  # ...but no new round after this, so a run ends in time

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "accuracy_pct": "%",
    "eager_pct": "%",
    "seen_pct": "%",
}

PER_LAYER = {
    "serve.bank.feature_us_per_point": "us",
    "serve.batch.fused_eval_us_per_row": "us",
    "serve.batch.rows_per_tick": "count",
    "serve.batch.fallback_share": "ratio",
    "eager.full_eval_us_per_call": "us",
    "eager.train_s": "s",
    "serve.pool.tick_us_p50": "us",
    "serve.pool.tick_us_p99": "us",
    "serve.pool.self_us_per_op": "us",
    "serve.pool.timeouts": "count",
    "serve.pool.sessions_peak": "count",
    "serve.protocol.decode_us_per_op": "us",
    "serve.protocol.encode_us_per_reply": "us",
    "serve.framing.encode_us_per_frame": "us",
    "serve.framing.read_us_per_frame": "us",
    "serve.server.busy_us_per_op": "us",
    "serve.server.busy_share": "ratio",
    "serve.server.inbox_batch_p50": "count",
    "cluster.router.client_in_us_per_op": "us",
    "cluster.router.worker_in_us_per_op": "us",
    "cluster.router.busy_share": "ratio",
    "transport.us_per_op": "us",
    "client.late_p99_ms": "ms",
    "client.drain_wait_share": "ratio",
    "client.busy_share": "ratio",
    "mem.router_rss_mb": "MB",
    "mem.worker_rss_mb": "MB",
    "host.calib_us": "us",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_pass(kind: str, workload: str, seed: int, reference: bytes | None):
    """One pass in a fresh process; returns its result dict or None.

    The pass runs in its own session, so a pass that hangs is killed
    together with the cluster processes it started.
    """
    cmd = [sys.executable, str(HERE / "passes.py"), kind, workload, str(seed)]
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(reference, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{kind} pass timed out after {PASS_TIMEOUT:.0f}s")
        return None
    except BaseException:  # interrupted: take the pass's processes down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        log(f"{kind} pass failed (exit {proc.returncode}): " + " | ".join(tail))
        return None
    return json.loads(lines[-1])


class Passes:
    """Runs passes until the time budget is spent; tallies correctness."""

    def __init__(self, workload: str, seed: int, reference: bytes, ops: int):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.planned_ops = ops  # charged as failed when a pass dies
        self.attempted = 0
        self.failed = 0
        self.errors = 0
        self.results: dict[str, list] = {}

    def run(self, kind: str) -> None:
        result = run_pass(kind, self.workload, self.seed, self.reference)
        if result is None:
            self.attempted += self.planned_ops
            self.failed += self.planned_ops
            return
        self.attempted += result["ops"]
        self.errors += result["errors"]
        if result["ok"]:
            self.failed += result["errors"]
        else:
            log(f"{kind} pass outputs differ from the reference: {result['detail']}")
            self.failed += result["ops"]
        # Kept either way: its timings were measured, and the run is
        # already marked incorrect through `failed`.
        self.results.setdefault(kind, []).append(result)
        figures = [f"{result['points'] / result['elapsed_s']:.0f} points/s"]
        if "latency" in result:
            lat = result["latency"]
            figures.append(
                f"decision p50 {lat['p50_ms']:.3f} ms, p99 {lat['p99_ms']:.3f} ms "
                f"over {lat['samples']} replies"
            )
        if "setup_s" in result:
            figures.append(f"setup {result['setup_s']:.3f} s")
        figures.append(f"calib {result['calib_us']:.0f} us")
        log(f"{kind} pass: " + "; ".join(figures))

    def cycle(self, kinds, seconds: float) -> None:
        """Repeat ``kinds`` in turn until ``seconds`` have passed and each
        kind has run at least MIN_PASSES times (unless that would take
        the run past MAX_SECONDS)."""
        start = time.perf_counter()
        rounds = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (rounds >= MIN_PASSES or elapsed >= MAX_SECONDS):
                return
            for kind in kinds:
                self.run(kind)
            rounds += 1

    def of(self, kind: str) -> list:
        return self.results.get(kind, [])


def end_to_end(results: list) -> tuple[dict, str]:
    latency = [r["latency"] for r in results]
    samples = min(x["samples"] for x in latency)
    metrics = {
        "setup_s": median(r["setup_s"] for r in results),
        "points_per_s": median(r["points"] / r["elapsed_s"] for r in results),
        "decision_p50_ms": median(x["p50_ms"] for x in latency),
        "decision_p99_ms": median(x["p99_ms"] for x in latency),
        "peak_rss_mb": median(r["rss_mb"] for r in results),
    }
    for key in ("accuracy_pct", "eager_pct", "seen_pct"):
        metrics[key] = median(r["quality"][key] for r in results)
    note = (
        f"latency: median over {len(results)} passes of each pass's p50/p99, "
        f"at least {samples} decisions per pass "
        f"(highest supported percentile: {tail_label(samples)})"
    )
    return metrics, note


def per_layer(workload: str, passes: Passes) -> dict:
    spec = WORKLOADS[workload]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if spec.transport == "pool":
        traced, plain = passes.of("pool-traced"), passes.of("pool")
        calib = passes.of("pool") + traced
    else:
        traced, plain = passes.of("replay-traced"), passes.of("replay")
        live = passes.of("tcp")
        calib = live + traced + plain
        for key in live[0]["live"] if live else ():
            metrics[key] = median(r["live"][key] for r in live)
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = median(r["layers"][key] for r in traced)
    if traced and plain:
        fast = median(r["points"] / r["elapsed_s"] for r in plain)
        slow = median(r["points"] / r["elapsed_s"] for r in traced)
        metrics["trace.overhead_pct"] = 100.0 * (fast - slow) / fast
    if calib:
        metrics["host.calib_us"] = median(r["calib_us"] for r in calib)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A terminated run still stops the processes it started (finally
    # blocks below), instead of leaving them behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program to measure: {SRC / 'repro'} is missing")
        return 2
    # Byte-compile once up front, so no pass pays for it in its setup.
    compileall.compile_dir(str(SRC), quiet=2)
    TMP.mkdir(exist_ok=True)
    try:
        with cpus_awake():
            return measure(args)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


@contextmanager
def cpus_awake():
    """Keep every CPU this run may use from halting (see awake.py)."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "awake.py"), str(cpu), str(AWAKE_SECONDS)]
        )
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        yield
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait()


def measure(args) -> int:
    spec = WORKLOADS[args.workload]
    host = fingerprint()
    log(f"host: {json.dumps(host)}")
    ref = run_pass("ref", args.workload, args.seed, None)
    if ref is None:
        log("could not compute the reference outputs")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    passes = Passes(args.workload, args.seed, json.dumps(ref).encode(), ref["ops"])

    if args.trace == 0:
        kind = "pool" if spec.transport == "pool" else "tcp"
        passes.cycle([kind], args.seconds)
        results = passes.of(kind)
        units = END_TO_END
    elif spec.transport == "pool":
        passes.cycle(["pool", "pool-traced"], args.seconds)
        results = passes.of("pool-traced")
        units = PER_LAYER
    else:
        passes.cycle(["tcp", "replay-traced", "replay"], args.seconds)
        results = passes.of("replay-traced") + passes.of("tcp")
        units = PER_LAYER

    correct = passes.failed == 0 and bool(results)
    metrics = {}
    if results:
        if args.trace == 0:
            values, note = end_to_end(results)
            log(note)
        else:
            values = per_layer(args.workload, passes)
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        for name, m in metrics.items():
            log(f"{args.workload:>10} {name:<40} {m['value']:>14.6g} {m['unit']}")
    error_rate = passes.errors / passes.attempted if passes.attempted else 1.0
    log(
        f"{args.workload}: error_rate {error_rate:.6g} "
        f"({passes.errors} error/missing replies over {passes.attempted} ops); "
        f"{passes.failed} ops failed; passes: "
        + ", ".join(f"{k} x{len(v)}" for k, v in passes.results.items())
    )
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, passes.attempted),
        "failed": passes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fleet-wide quality telemetry: worker histograms merge in ``stats``.

With ``Cluster(options=ServeOptions(quality=True))`` every worker attaches a
:class:`~repro.obs.QualityMonitor` to its own pool; the monitor's
registry-collector hook folds its staged decisions before each worker
snapshots its metrics for a ``stats`` reply, and the router merges the
per-worker snapshots.  The assertions here close the observability
loop end to end: the merged counters and per-class ``quality.*``
histograms over a sharded fleet equal (counts exactly, float sums to
merge-order rounding) what one in-process pool reports for the same
workload, and sampling partitions the fleet's decisions exactly.
"""

from __future__ import annotations

import asyncio
import math

from repro.cluster import Cluster, drive_cluster, workload_ticks
from repro.interaction import DEFAULT_TIMEOUT
from repro.obs import MetricsRegistry, PoolObserver, QualityMonitor
from repro.serve import ServeOptions, run_load

DT = 0.01


def _cluster_stats(recognizer_path, ticks, end_t, **options) -> dict:
    async def run():
        async with Cluster(
            recognizer_path, workers=3, options=ServeOptions(**options)
        ) as cluster:
            host, port = cluster.address
            _, stats = await drive_cluster(host, port, ticks, end_t=end_t)
            return stats

    return asyncio.run(run())


def _reference_quality(recognizer, workload, **monitor_kw) -> dict:
    metrics = MetricsRegistry()
    quality = QualityMonitor(recognizer, metrics=metrics, **monitor_kw)
    run_load(
        recognizer,
        workload,
        collect=True,
        observer=PoolObserver(metrics=metrics, quality=quality),
    )
    return metrics.snapshot()


def _quality_histograms(snapshot: dict) -> dict:
    return {
        name: h
        for name, h in snapshot.get("histograms", {}).items()
        if name.startswith("quality.")
    }


def test_fleet_stats_merge_quality_histograms(
    recognizer_path, cluster_recognizer, cluster_workload
):
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = len(ticks) * DT + DEFAULT_TIMEOUT + DT
    stats = _cluster_stats(recognizer_path, ticks, end_t, quality=True)
    merged = stats["metrics"]
    reference = _reference_quality(cluster_recognizer, cluster_workload)

    assert (
        merged["counters"]["quality.decisions"]
        == reference["counters"]["quality.decisions"]
        > 0
    )
    merged_q = _quality_histograms(merged)
    reference_q = _quality_histograms(reference)
    # Same classes decided fleet-wide as in one pool (the decisions are
    # byte-identical), so the same histogram names exist on both sides.
    assert set(merged_q) == set(reference_q)
    assert any(name.startswith("quality.margin.") for name in merged_q)
    assert any(name.startswith("quality.eagerness.") for name in merged_q)
    for name, h in merged_q.items():
        ref = reference_q[name]
        # Counts and bucket tallies are integers: exact across any
        # sharding.  Each value lands in the same bucket on whichever
        # worker scored it because the per-decision floats are
        # bit-identical; only the cross-worker *sum* may differ from
        # the single pool's by float-addition order.
        assert h["count"] == ref["count"], name
        assert h["buckets"] == ref["buckets"], name
        assert math.isclose(
            h["sum"], ref["sum"], rel_tol=1e-9, abs_tol=1e-12
        ), name
        assert h["min"] == ref["min"] and h["max"] == ref["max"], name


def test_fleet_sampling_partitions_decisions_exactly(
    recognizer_path, cluster_workload, cluster_recognizer
):
    """sample=0.5 across the fleet: scored + sampled-out == everything.

    The hash is keyed on the session id alone, so which worker holds a
    session cannot change its membership — the two counters partition
    the unsampled run's decision count exactly.
    """
    ticks = workload_ticks(cluster_workload, dt=DT)
    end_t = len(ticks) * DT + DEFAULT_TIMEOUT + DT
    total = _reference_quality(cluster_recognizer, cluster_workload)[
        "counters"
    ]["quality.decisions"]
    stats = _cluster_stats(
        recognizer_path, ticks, end_t,
        quality=True, quality_sample=0.5, quality_seed=3,
    )
    counters = stats["metrics"]["counters"]
    scored = counters["quality.decisions"]
    skipped = counters["quality.sampled_out"]
    assert scored + skipped == total
    assert 0 < scored < total

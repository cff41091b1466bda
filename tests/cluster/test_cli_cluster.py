"""CLI wiring: ``loadgen --cluster`` runs real workers and verifies
byte-identity itself; incompatible observer and worker flags fail fast."""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import Cluster, drive_cluster
from repro.serve import ServeOptions

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_loadgen_cluster_verifies_byte_identity(capsys):
    code = main(
        [
            "loadgen",
            "--cluster", "2",
            "--clients", "4",
            "--gestures", "1",
            "--examples", "8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "cluster: 2 workers" in out
    assert "byte-identical" in out
    assert "MISMATCH" not in out


def test_loadgen_cluster_rejects_per_pool_observers(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "loadgen",
                "--cluster", "2",
                "--trace", str(tmp_path / "trace.ndjson"),
            ]
        )
    assert "--cluster" in str(exc.value)


def test_cluster_subcommand_needs_one_recognizer_source():
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--workers", "2"])
    assert "exactly one" in str(exc.value)


def test_serve_model_cache_requires_a_registry():
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "serve",
                "--family", "directions",
                "--examples", "2",
                "--model-cache", "2",
            ]
        )
    assert "--registry" in str(exc.value)


def test_cluster_rejects_inverted_scale_bounds(tmp_path):
    # Cluster.__init__ validates the bounds before any worker spawns;
    # the CLI surfaces that as a clean error, not a live fleet.
    with pytest.raises(ValueError, match="max_workers"):
        main(
            [
                "cluster",
                "--family", "directions",
                "--examples", "2",
                "--min-workers", "4",
                "--max-workers", "2",
            ]
        )



def test_cluster_without_metrics_replies_null_metrics(recognizer_path):
    # --no-metrics reaches every worker, not only the router: the fleet
    # stats reply then has no snapshot to merge.
    async def run():
        async with Cluster(
            recognizer_path, workers=2, options=ServeOptions(metrics=False)
        ) as cluster:
            host, port = cluster.address
            return await drive_cluster(host, port, [(0.0, [])])

    _, stats = asyncio.run(run())
    assert stats["kind"] == "stats"
    assert stats["metrics"] is None


@pytest.mark.parametrize(
    "flags, missing",
    [
        (["--model-cache", "2"], "--registry"),
        (["--quality", "--no-metrics"], "metrics"),
    ],
)
def test_cluster_rejects_bad_worker_flags_before_spawning(flags, missing):
    # Each worker would exit on these flags and be respawned forever,
    # so the cluster must refuse them up front instead of hanging.
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "cluster",
            "--family", "directions", "--examples", "2", "--port", "0",
            *flags,
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1, proc.stdout
    assert "cluster:" not in proc.stdout
    assert missing in proc.stderr

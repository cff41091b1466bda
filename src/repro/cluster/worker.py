"""One cluster worker: a :class:`~repro.serve.GestureServer` subprocess.

A worker is deliberately nothing new — it runs the exact single-process
serve stack on its own core, loaded from a saved recognizer file, and
speaks the exact serve protocol (in lp1 frames to its router: a
connection's first byte names its framing).  Everything
cluster-specific lives in the router and supervisor; a worker cannot
tell whether its peer is a router or a plain client, which is what
keeps the sharded decisions bit-identical to the single-process ones.

The supervisor protocol is one JSON line per event on stdout:

* ``{"event": "ready", "shard": ..., "port": ..., "pid": ...}`` once
  the server is listening (``--port 0`` picks a free port; the ready
  line is how the supervisor learns which);
* ``{"event": "hb"}`` every ``--heartbeat`` seconds of wall time — the
  supervisor declares a silent worker hung and recycles it.

A worker whose stdout pipe breaks (its supervisor died) exits, so an
orphaned fleet reaps itself.  Run directly for debugging::

    python -m repro.cluster.worker --recognizer model.json --shard w0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path

from ..serve.options import ServeOptions

__all__ = ["build_parser", "main", "worker_command"]

DEFAULT_HEARTBEAT = 2.0


def worker_command(
    recognizer: str,
    shard: str,
    options: ServeOptions = ServeOptions(),
    *,
    heartbeat: float = DEFAULT_HEARTBEAT,
) -> list[str]:
    """The argv the supervisor spawns for one worker (on a free port)."""
    return [
        sys.executable,
        "-m",
        "repro.cluster.worker",
        "--recognizer",
        str(recognizer),
        "--shard",
        shard,
        "--heartbeat",
        str(heartbeat),
        *options.argv(),
    ]


def worker_env() -> dict:
    """The child environment: the parent's, with this package importable."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


async def _amain(args: argparse.Namespace, options: ServeOptions) -> int:
    from ..eager import EagerRecognizer

    recognizer = EagerRecognizer.load(args.recognizer)
    server = options.server(
        recognizer, options.observer(recognizer), host=args.host, port=args.port
    )
    await server.start()
    host, port = server.address
    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stopping.set)
    print(
        json.dumps(
            {
                "event": "ready",
                "shard": args.shard,
                "host": host,
                "port": port,
                "pid": os.getpid(),
            }
        ),
        flush=True,
    )
    try:
        while not stopping.is_set():
            try:
                await asyncio.wait_for(
                    stopping.wait(), timeout=args.heartbeat
                )
            except asyncio.TimeoutError:
                pass
            else:
                break
            try:
                print(json.dumps({"event": "hb"}), flush=True)
            except (BrokenPipeError, OSError):
                break  # supervisor is gone; die with it
    finally:
        await server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.worker",
        description="one shard of the gesture-recognition cluster",
    )
    parser.add_argument("--recognizer", required=True, help="saved recognizer JSON")
    parser.add_argument("--shard", required=True, help="this worker's shard name")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument("--heartbeat", type=float, default=DEFAULT_HEARTBEAT)
    ServeOptions.add_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    options = ServeOptions.from_args(args, workers=True)
    try:
        return asyncio.run(_amain(args, options))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())

"""The serving layer: many concurrent eager recognitions, batched.

The reproduction proper (``repro.eager``, ``repro.interaction``) is
single-user by construction — one mouse, one interaction at a time,
advanced point by point.  This package turns the same recognizer into a
multi-tenant streaming service:

* :class:`FeatureBank` — Rubine's incremental features for thousands of
  in-flight strokes at once, held in flat numpy arrays;
* :class:`BatchEvaluator` — all per-class linear discriminants (full
  classifier and AUC) evaluated with one matrix product per tick, with
  a sequential fallback that makes batched decisions provably identical
  to the per-session path;
* :class:`SessionPool` — lifecycle, the paper's 200 ms motionless
  timeout (virtual-clock driven), and decision emission;
* :class:`ModelRegistry` — versioned, content-addressed storage of
  trained recognizers;
* :class:`GestureServer` — an asyncio front end speaking
  newline-delimited JSON over TCP, plus the same API in-process;
* :class:`ServeOptions` — the serving flags, declared once for
  ``repro serve``, ``repro cluster`` and the cluster worker;
* :mod:`repro.serve.loadgen` — the load harness behind
  ``benchmarks/bench_serve_throughput.py`` and ``repro-gestures loadgen``.
"""

from .bank import FeatureBank
from .batch import BatchEvaluator
from .framing import (
    DEFAULT_MAX_FRAME,
    FRAME_MAGIC,
    FrameReader,
    encode_frame,
    encode_frames,
)
from .lines import LineReader
from .loadgen import (
    LoadResult,
    compare_modes,
    family_templates,
    generate_workload,
    run_load,
)
from .pool import DEFAULT_IDLE_TIMEOUT, Decision, SessionPool
from .protocol import (
    ProtocolError,
    Request,
    decode_payload,
    decode_request,
    encode_decision,
    encode_error,
    encode_stats,
    encode_swap,
)
from .options import ServeOptions
from .registry import ModelRegistry, ModelVersion
from .server import Channel, DEFAULT_MAX_LINE, GestureServer

__all__ = [
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_FRAME",
    "DEFAULT_MAX_LINE",
    "FRAME_MAGIC",
    "BatchEvaluator",
    "Channel",
    "Decision",
    "FeatureBank",
    "FrameReader",
    "GestureServer",
    "LineReader",
    "LoadResult",
    "ModelRegistry",
    "ModelVersion",
    "ProtocolError",
    "Request",
    "ServeOptions",
    "SessionPool",
    "compare_modes",
    "decode_payload",
    "decode_request",
    "encode_decision",
    "encode_error",
    "encode_frame",
    "encode_frames",
    "encode_stats",
    "encode_swap",
    "family_templates",
    "generate_workload",
    "run_load",
]

"""The NDJSON wire protocol spoken by :class:`~repro.serve.GestureServer`.

One JSON object per line, in both directions.

Requests (client → server)::

    {"op": "down", "stroke": "s1", "x": 10, "y": 20, "t": 0.00}
    {"op": "move", "stroke": "s1", "x": 14, "y": 21, "t": 0.01}
    {"op": "up",   "stroke": "s1", "x": 30, "y": 40, "t": 0.25}
    {"op": "tick", "t": 0.50}
    {"op": "sweep", "max_idle": 30.0}
    {"op": "stats"}
    {"op": "swap", "user": "alice", "model": "gdp-alice@ab12cd34ef56", "t": 0.60}

``down``/``move``/``up`` mirror :class:`~repro.serve.SessionPool`
operations; ``stroke`` is the client's id for one gesture (the server
namespaces it per connection, so clients cannot collide).  ``tick``
advances the server's virtual clock — timeouts fire from the
timestamps clients supply, never from the server's wall clock, so a
recorded interaction replays identically.  ``sweep`` asks the server to
evict every session idle for at least ``max_idle`` seconds of virtual
time (``max_idle`` defaults to ``0.0`` — evict everything idle at all)
— the remote form of :meth:`~repro.serve.SessionPool.evict_idle` that a
drain or an end-of-run cleanup needs; evicted sessions get ``evict``
replies.  ``stats`` asks for a metrics snapshot; ``t`` is optional on
``sweep`` and ``stats`` and defaults to ``0.0`` (a no-op for the
monotone virtual clock), so polling stats never moves time.

``tick`` and ``sweep`` are also *clock barriers*: the server applies
everything received before them, then advances time (then sweeps), at
the request's position in the input order — behaviour is a function of
the line sequence alone, never of how lines happened to coalesce into
read batches.

``swap`` rebinds a *user* — a client-chosen id that prefixes session
keys — to a registry model (``name`` or ``name@version``), for sessions
opened after the swap's position in line order; sessions already
in flight keep the model they pinned at open, and all other users'
byte streams are untouched (see :meth:`~repro.serve.SessionPool.
swap_model`).  The server acks with a ``swap`` reply carrying the
resolved ``name@version``.

Three further ops are *internal* — the cluster router speaks them to
its workers during live session migration and rejects them from
clients: ``release`` (``{"op": "release", "stroke": "s1"}``) silently
forgets a session that migrated away (acked with ``{"kind":
"released", ...}``, never a decision); ``pin`` (``{"op": "pin",
"stroke": "s1", "model": "name@version"}``) one-shot-pins the model the
stroke's *next* session open must bind — how a migrated session keeps
the historical model it opened under, even though the destination
pool's per-user assignments have since moved on (``model: ""`` pins the
default); and ``expire`` (``{"op": "expire", "stroke": "s1", "t":
0.2}``) is a barrier scoped to one session that never moves the clock:
it times the stroke out if it has been motionless for ``timeout`` at
``t`` (:meth:`~repro.serve.SessionPool.expire`) — how a migrated
journal's clock markers replay into a destination whose clock already
stands past them.

Replies (server → client)::

    {"kind": "recog", "stroke": "s1", "class": "delete", "eager": true,
     "points_seen": 12, "total_points": 12, "t": 0.11, "reason": "eager"}
    {"kind": "error", "stroke": "s1", "reason": "duplicate down", "t": 0.0}
    {"kind": "stats", "t": 0.5, "sessions": 3, "channels": 2,
     "metrics": {"counters": {...}, "histograms": {...}}}

``kind`` is one of ``recog`` / ``manip`` / ``commit`` / ``evict`` /
``error`` / ``stats`` (see :class:`~repro.serve.Decision` and
:meth:`repro.obs.MetricsRegistry.snapshot`); ``metrics`` is ``null``
when the server runs without a metrics registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .pool import Decision

__all__ = [
    "ProtocolError",
    "Request",
    "decode_payload",
    "decode_request",
    "encode_decision",
    "encode_error",
    "encode_stats",
    "encode_swap",
]

_OPS = (
    "down",
    "move",
    "up",
    "tick",
    "sweep",
    "stats",
    "swap",
    "release",
    "pin",
    "expire",
)

# Ops that may omit ``t`` (it defaults to 0.0, a virtual-clock no-op).
_OPTIONAL_T = ("sweep", "stats", "release", "pin")


class ProtocolError(ValueError):
    """A request line that cannot be understood."""


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    op: str  # "down" | "move" | "up" | "tick" | "sweep" | "stats" | "swap"
    t: float
    stroke: str = ""
    x: float = 0.0
    y: float = 0.0
    max_idle: float = 0.0  # sweep only
    user: str = ""  # swap only: the session-key prefix to rebind
    model: str = ""  # swap only: registry "name" or "name@version"


def decode_request(line: str | bytes) -> Request:
    """Parse one NDJSON request line, validating shape and types."""
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad json: {exc}") from None
    return decode_payload(payload)


def decode_payload(payload) -> Request:
    """Validate one already-parsed request object.

    The validation (and every error message) is exactly
    :func:`decode_request`'s — split out so a caller that already had
    to ``json.loads`` the line for its own routing (the cluster router)
    does not parse it twice.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a json object")
    op = payload.get("op")
    if op not in _OPS:
        raise ProtocolError(f"unknown op: {op!r}")
    try:
        t = float(payload["t"])
    except KeyError:
        if op not in _OPTIONAL_T:
            raise ProtocolError("missing or non-numeric t") from None
        t = 0.0
    except (TypeError, ValueError):
        raise ProtocolError("missing or non-numeric t") from None
    if op == "sweep":
        try:
            max_idle = float(payload.get("max_idle", 0.0))
        except (TypeError, ValueError):
            raise ProtocolError("non-numeric max_idle") from None
        if max_idle < 0.0:
            raise ProtocolError("max_idle must be >= 0")
        return Request(op=op, t=t, max_idle=max_idle)
    if op in ("tick", "stats"):
        return Request(op=op, t=t)
    if op == "swap":
        user = payload.get("user")
        model = payload.get("model")
        if not isinstance(user, str) or not user:
            raise ProtocolError("missing swap user")
        if not isinstance(model, str) or not model:
            raise ProtocolError("missing swap model")
        return Request(op=op, t=t, user=user, model=model)
    stroke = payload.get("stroke")
    if not isinstance(stroke, str) or not stroke:
        raise ProtocolError("missing stroke id")
    if op == "release" or op == "expire":
        # Internal (router → worker only): silently forget a session
        # that migrated away, or time one session out at ``t`` without
        # moving the clock.  Neither carries a point.
        return Request(op=op, t=t, stroke=stroke)
    if op == "pin":
        # Internal (router → worker only): one-shot model pin for the
        # stroke's *next* session open.  ``model`` may be "" (default
        # model) — unlike swap, which always names a registry model.
        model = payload.get("model", "")
        if not isinstance(model, str):
            raise ProtocolError("missing pin model")
        return Request(op=op, t=t, stroke=stroke, model=model)
    try:
        x = float(payload["x"])
        y = float(payload["y"])
    except (KeyError, TypeError, ValueError):
        raise ProtocolError("missing or non-numeric x/y") from None
    return Request(op=op, t=t, stroke=stroke, x=x, y=y)


def encode_decision(decision: Decision, stroke: str) -> str:
    """Encode one pool decision as a reply line (without the newline)."""
    return json.dumps(
        {
            "kind": decision.kind,
            "stroke": stroke,
            "class": decision.class_name,
            "eager": decision.eager,
            "points_seen": decision.points_seen,
            "total_points": decision.total_points,
            "t": decision.t,
            "reason": decision.reason,
        }
    )


def encode_swap(user: str, model: str, t: float) -> str:
    """Encode a swap acknowledgement (without the newline).

    ``model`` is the *resolved* ``name@version`` — a client that swapped
    to a bare name learns exactly which version now serves its user.
    One shared encoder keeps the direct server's ack and the cluster
    router's synthesized ack byte-equal.
    """
    return json.dumps({"kind": "swap", "user": user, "model": model, "t": t})


def encode_error(reason: str, stroke: str = "", t: float = 0.0) -> str:
    """Encode a protocol-level error reply (without the newline)."""
    return json.dumps(
        {"kind": "error", "stroke": stroke, "reason": reason, "t": t}
    )


def encode_stats(
    metrics: dict | None,
    *,
    t: float,
    sessions: int,
    channels: int,
    profile: dict | None = None,
    busy_s: float | None = None,
) -> str:
    """Encode a metrics-snapshot reply (without the newline).

    ``metrics`` is a :meth:`repro.obs.MetricsRegistry.snapshot` dict, or
    ``None`` when the server runs unobserved.  ``profile`` is a
    :meth:`repro.obs.PerfProfiler.snapshot` dict; the key is only
    present when a profiler is attached (``serve --profile``), keeping
    the reply unchanged for existing clients otherwise.  ``busy_s`` is
    the server's cumulative pump busy time (recognition work, as
    opposed to transport); present whenever the server reports it —
    the cluster benchmark's router/worker/transport breakdown reads it.
    """
    payload = {
        "kind": "stats",
        "t": t,
        "sessions": sessions,
        "channels": channels,
        "metrics": metrics,
    }
    if profile is not None:
        payload["profile"] = profile
    if busy_s is not None:
        payload["busy_s"] = busy_s
    return json.dumps(payload)

"""Per-session op journals: the router's crash-recovery ground truth.

A worker's sessions live in its memory; when the supervisor restarts a
crashed worker that memory is gone.  The router therefore journals, per
live session, every line it routed — plus *clock markers*: a session's
decisions depend not only on its own operations but on where the shared
virtual clock stood between them (a motionless timeout fires when the
clock passes ``last_point + timeout``; a later move can only rescue the
session if it arrives *before* that advance).

Workers advance their clocks **only at tick/sweep barriers** (see
:meth:`~repro.serve.GestureServer._apply`), so the clock journaled in a
marker is the router's *broadcast* clock — the highest barrier actually
sent to workers before the op — never a value inferred from other
sessions' op timestamps.  Journaling op-derived clock values would be
unsound: an op's timestamp reaches the worker on the op line itself and
is folded into the clock at the *next* barrier, after the op applied; a
marker replayed *before* the op would fire a motionless timeout the
live worker never fired, and the restarted worker's replies would
diverge from the delivered prefix.

Rather than journal every broadcast barrier into every session, a
record lazily inserts one marker carrying the highest broadcast clock
reached since its previous entry — enough, because intermediate
advances between two consecutive ops of one session cannot change its
decisions (a timeout either fired at the first advance past the
horizon, with its timestamp pinned to ``last_point + timeout``
regardless, or it fires just the same at the highest value; advances at
or below the session's own last timestamp — subsumed by the record's
``clock_mark`` — can never reach its horizon at all).

A live migration replays one session into a *warm* destination, whose
clock already stands at the fleet's present — past every marker in the
journal.  Replayed as ticks, the first marker would advance nothing and
judge the migrated session against the present, timing it out on its
first point.  Migration therefore replays markers *scoped*: each becomes
an ``expire`` for the session alone, judged at the marker's own value
(:meth:`~repro.serve.SessionPool.expire`), which is exactly what the
tick did on the source.

Every entry carries a router-global sequence number.  Replay merges the
live records of a shard back into one stream in sequence order — the
original interleaving of ops and clock advances — and the restarted
worker, whose pump honours tick barriers in line order, walks the exact
decision path the crashed one did.  Decisions the router already
forwarded are suppressed by count (:attr:`SessionRecord.skip`); the
journal of a session is dropped the moment it reaches a terminal
decision (``commit`` or ``evict``), so journal memory tracks live
sessions only.
"""

from __future__ import annotations

import json
from heapq import merge

__all__ = ["SessionRecord", "replay_lines"]

# A journal holds routed session ops and tick markers only; markers are
# the lines that start with this prefix.
_MARKER = '{"op": "tick", '


class SessionRecord:
    """One live session's route, journal, and delivery cursor."""

    __slots__ = ("key", "client", "shard", "delivered", "skip", "clock_mark", "entries")

    def __init__(self, key: str, client: str, shard: str):
        self.key = key  # namespaced "client:stroke"
        self.client = client
        self.shard = shard
        self.delivered = 0  # replies already forwarded to the client
        self.skip = 0  # replayed replies still to suppress
        self.clock_mark = float("-inf")  # clock at the last journal entry
        self.entries: list[tuple[int, str]] = []  # (seq, line), seq ascending

    def journal(
        self,
        seq: int,
        line: str,
        clock: float,
        t: float,
        clock_line: str | None = None,
    ) -> int:
        """Append one routed op line; returns the next free sequence number.

        ``clock`` is the *broadcast* clock before this op — the highest
        tick/sweep barrier the router has sent to workers; if it moved
        past this record's last entry, a tick marker is inserted first
        so replay reproduces the advance at this position.  ``t`` is the
        op's own timestamp; it raises ``clock_mark`` (suppressing later
        markers at or below it) because a barrier advance that cannot
        exceed the session's last activity can never fire its timeout.

        ``clock_line`` is an optional pre-encoded marker for ``clock``:
        the router encodes it once per barrier instead of once per
        journalled op (markers are per *record*, so one barrier can
        otherwise cost thousands of identical ``json.dumps`` calls).
        """
        if clock > self.clock_mark:
            self.entries.append(
                (
                    seq,
                    clock_line
                    if clock_line is not None
                    else json.dumps({"op": "tick", "t": clock}),
                )
            )
            seq += 1
        self.entries.append((seq, line))
        self.clock_mark = max(clock, t)
        return seq + 1


def replay_lines(
    records, extras=(), final_t: float | None = None, *, scoped: bool = False
) -> list[str]:
    """Merge session journals back into one stream, in original order.

    ``records`` are the live :class:`SessionRecord` values of one shard;
    ``extras`` are shard-global ``(seq, line)`` entries (e.g. ``sweep``
    requests that arrived while the worker was down).  A trailing tick
    to ``final_t`` restores the worker's clock to the fleet's present,
    firing any timeouts that came due after the last journaled entry.
    ``scoped`` replays each record's clock markers as ``expire`` lines
    for that session alone — the form a warm (migration) destination
    needs.
    """
    streams = [_scoped(r) if scoped else r.entries for r in records]
    if extras:
        streams.append(sorted(extras))
    lines = [line for _, line in merge(*streams)]
    if final_t is not None and final_t != float("-inf"):
        lines.append(json.dumps({"op": "tick", "t": final_t}))
    return lines


def _scoped(record: SessionRecord) -> list[tuple[int, str]]:
    """``record``'s entries with each clock marker scoped to the session."""
    return [
        (
            seq,
            json.dumps(
                {"op": "expire", "stroke": record.key, "t": json.loads(line)["t"]}
            )
            if line.startswith(_MARKER)
            else line,
        )
        for seq, line in record.entries
    ]

"""Journal and replay-merge semantics (pure, no processes)."""

from __future__ import annotations

import json

from repro.cluster import SessionRecord, replay_lines


def op(stroke: str, name: str = "move", t: float = 0.0) -> str:
    return json.dumps({"op": name, "stroke": stroke, "x": 1, "y": 2, "t": t})


def kinds(lines: list) -> list:
    return [json.loads(line)["op"] for line in lines]


def test_journal_inserts_clock_marker_when_clock_moved():
    r = SessionRecord("k1:s1", "k1", "w0")
    seq = r.journal(0, op("k1:s1", "down", 0.1), clock=0.1, t=0.1)
    # First entry: the clock stood at 0.1 before the down, so replay
    # must advance there first.
    assert kinds([line for _, line in r.entries]) == ["tick", "down"]
    # Clock unchanged since the record's mark: no new marker.
    seq = r.journal(seq, op("k1:s1", "move", 0.11), clock=0.1, t=0.11)
    assert kinds([line for _, line in r.entries]) == ["tick", "down", "move"]
    # Clock jumped (other sessions kept time moving): marker inserted
    # carrying the highest value reached before this op.
    r.journal(seq, op("k1:s1", "move", 0.5), clock=0.48, t=0.5)
    assert kinds([line for _, line in r.entries]) == [
        "tick", "down", "move", "tick", "move",
    ]
    marker = json.loads(r.entries[3][1])
    assert marker == {"op": "tick", "t": 0.48}


def test_journal_no_marker_at_negative_infinity():
    # Before any tick the router clock is -inf; nothing to mark.
    r = SessionRecord("k1:s1", "k1", "w0")
    r.journal(0, op("k1:s1", "down"), clock=float("-inf"), t=0.0)
    assert kinds([line for _, line in r.entries]) == ["down"]


def test_replay_merges_by_global_sequence():
    a = SessionRecord("k1:s1", "k1", "w0")
    b = SessionRecord("k1:s2", "k1", "w0")
    seq = a.journal(0, op("k1:s1", "down", 0.0), clock=0.0, t=0.0)
    seq = b.journal(seq, op("k1:s2", "down", 0.0), clock=0.0, t=0.0)
    seq = a.journal(seq, op("k1:s1", "move", 0.2), clock=0.1, t=0.2)
    seq = b.journal(seq, op("k1:s2", "up", 0.3), clock=0.2, t=0.3)
    lines = replay_lines([a, b], final_t=0.4)
    strokes = [json.loads(line).get("stroke") for line in lines]
    ops = kinds(lines)
    # Original interleaving restored — each record carries its own lazy
    # markers (a redundant advance is a no-op) — plus one trailing tick
    # to the present.
    assert ops == [
        "tick", "down", "tick", "down", "tick", "move", "tick", "up", "tick",
    ]
    assert strokes == [
        None, "k1:s1", None, "k1:s2", None, "k1:s1", None, "k1:s2", None,
    ]
    assert json.loads(lines[-1]) == {"op": "tick", "t": 0.4}


def test_replay_includes_extras_in_order():
    a = SessionRecord("k1:s1", "k1", "w0")
    seq = a.journal(0, op("k1:s1", "down", 0.0), clock=0.0, t=0.0)
    sweep = json.dumps({"op": "sweep", "max_idle": 0.0})
    extras = [(seq, sweep)]
    lines = replay_lines([a], extras=extras, final_t=None)
    assert kinds(lines) == ["tick", "down", "sweep"]


def test_replay_without_final_t_appends_nothing():
    a = SessionRecord("k1:s1", "k1", "w0")
    a.journal(0, op("k1:s1", "down", 0.0), clock=0.0, t=0.0)
    assert kinds(replay_lines([a])) == ["tick", "down"]
    assert kinds(replay_lines([a], final_t=float("-inf"))) == ["tick", "down"]


def test_scoped_replay_turns_markers_into_session_expires():
    # Migration replays into a warm destination: each marker becomes an
    # expire for the migrating session, at the marker's own value.
    a = SessionRecord("k1:s1", "k1", "w0")
    seq = a.journal(0, op("k1:s1", "down", 0.0), clock=0.0, t=0.0)
    a.journal(seq, op("k1:s1", "move", 0.1), clock=0.08, t=0.1)
    lines = replay_lines([a], final_t=0.3, scoped=True)
    assert kinds(lines) == ["expire", "down", "expire", "move", "tick"]
    assert json.loads(lines[2]) == {"op": "expire", "stroke": "k1:s1", "t": 0.08}
    assert json.loads(lines[-1]) == {"op": "tick", "t": 0.3}
    # Unscoped (crash) replay is unchanged.
    assert kinds(replay_lines([a])) == ["tick", "down", "tick", "move"]

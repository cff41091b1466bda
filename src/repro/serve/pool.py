"""A pool of concurrent eager-recognition sessions.

The reproduction's interactive layer runs *one* two-phase interaction at
a time — one mouse, one :class:`~repro.interaction.GestureHandler`.  The
:class:`SessionPool` runs thousands, keyed by an arbitrary stroke id,
with the same semantics per session:

* ``down`` starts a session and contributes the first gesture point
  (exactly as ``GestureHandler.begin`` does);
* ``move`` while undecided contributes a point and may trigger eager
  recognition (the paper's D, then C);
* holding still for ``timeout`` seconds of virtual time classifies the
  prefix collected so far (the paper's 200 ms motionless timeout);
* ``up`` while undecided classifies the full gesture (no point is
  appended for the release, matching ``GestureHandler.end``), and always
  commits — the session ends and its resources are reclaimed;
* input after the decision is the manipulation phase: it refreshes the
  session's activity but emits nothing — the client received the class
  in the ``recog`` decision and applies its gesture semantics locally,
  so echoing every manipulation point back would be pure chatter.

Recognition outcomes are reported as :class:`Decision` values (kinds
``recog``, ``commit``, ``evict``, ``error``); malformed operations
(duplicate ``down``, unknown key, pool exhaustion) produce per-session
``error`` decisions and never disturb other sessions.  :meth:`kill`
force-terminates one session (fault injection's hammer) with an
``evict`` decision, again without touching its neighbours.

The pool is observable but never observes itself: pass an
:class:`~repro.obs.PoolObserver` (or anything with the same hook
methods) as ``observer`` and the pool reports ticks, decisions, session
opens, and batched-evaluation rounds to it.  With ``observer=None`` —
the default — every hook site is a single ``is not None`` test on the
cold side of the branch, so the hot path allocates nothing and runs at
full speed.

Time is virtual throughout (:class:`~repro.events.VirtualClock`):
operations carry timestamps, and :meth:`SessionPool.advance_to` both
applies buffered input and fires motionless timeouts, so identical input
produces identical decision streams on every run.  Timeouts are
evaluated when time advances: buffered operations are applied first,
then any undecided session whose last point is at least ``timeout`` old
fires, its decision stamped at ``last_t + timeout``.

Two execution modes, one contract.  ``batched=False`` advances each
session through its own :class:`~repro.eager.EagerSession` — the
reference path.  ``batched=True`` keeps all feature state in a
:class:`~repro.serve.bank.FeatureBank` and decides every session with
one matrix product per round via
:class:`~repro.serve.batch.BatchEvaluator`; rows the evaluator cannot
*prove* unaffected by vectorization are re-decided here by replaying the
stored gesture prefix through the scalar path.  The decision streams of
the two modes are identical, element for element.

Hot model swaps (:meth:`SessionPool.swap_model`) bind a key *prefix* —
in serving terms, a user — to a different recognizer.  A session pins
its model when it opens and keeps it until commit, so a swap takes
effect for the user's next stroke, never mid-gesture; every other
session's decision stream is byte-identical to a run without the swap,
because batched evaluation partitions rows by model and the evaluator's
decisions are provably independent of batch composition (risky rows
fall back to the scalar path).  Until the first swap is applied the
pool runs the single-model fast path untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..eager import EagerRecognizer, EagerSession
from ..events import VirtualClock
from ..features import replay_vector
from ..geometry import Point
from ..interaction import DEFAULT_TIMEOUT
from .bank import FeatureBank
from .batch import BatchEvaluator

__all__ = ["DEFAULT_IDLE_TIMEOUT", "Decision", "SessionPool"]

# Sessions that have gone this long without any input are presumed
# abandoned by their client and may be evicted.
DEFAULT_IDLE_TIMEOUT = 30.0

# Entry tags used inside a processing round (see _run_round).
_ERROR, _DECIDED, _FINISH, _COMMIT, _KILL, _RELEASE = 0, 1, 2, 3, 4, 5


@dataclass(frozen=True)
class Decision:
    """One event on a session's output stream."""

    key: str
    kind: str  # "recog" | "commit" | "evict" | "error"
    t: float
    class_name: str | None = None
    eager: bool = False
    points_seen: int = 0
    total_points: int = 0
    reason: str = ""


class _PoolModel:
    """One recognizer resident in the pool, with its batched evaluator.

    Sessions reference a ``_PoolModel`` (pinned at open), and swaps to
    the same recognizer object share one instance — many users swapping
    to one registry-cached candidate cost one evaluator, not N.
    """

    __slots__ = ("recognizer", "evaluator", "label")

    def __init__(self, recognizer: EagerRecognizer, evaluator, label: str):
        self.recognizer = recognizer
        self.evaluator = evaluator
        self.label = label


class _Session:
    """Mutable per-stroke state; gesture points stop at the decision."""

    __slots__ = (
        "key",
        "slot",
        "points",
        "eseq",
        "decided",
        "class_name",
        "eager",
        "decided_points",
        "count",
        "manip",
        "last_t",
        "stamp",
        "model",
    )

    def __init__(self, key: str, t: float):
        self.key = key
        self.stamp = 0
        self.model: _PoolModel | None = None
        self.slot: int | None = None
        self.points: list = []  # Point (sequential) or (x, y, t) (batched)
        self.eseq: EagerSession | None = None
        self.decided = False
        self.class_name: str | None = None
        self.eager = False
        self.decided_points = 0
        self.count = 0
        # Manipulation-phase samples after the decision: together with
        # decided_points this is the whole stroke — the denominator of
        # the paper's eagerness measure (quality telemetry only; the
        # Decision stream still reports gesture points).
        self.manip = 0
        self.last_t = t


class SessionPool:
    """Thousands of concurrent eager recognitions over one recognizer."""

    def __init__(
        self,
        recognizer: EagerRecognizer,
        *,
        clock: VirtualClock | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_sessions: int = 4096,
        batched: bool = True,
        observer=None,
        max_models: int | None = None,
        model_loader=None,
    ):
        self.recognizer = recognizer
        self.clock = clock if clock is not None else VirtualClock()
        self.timeout = timeout
        self.max_sessions = max_sessions
        self.batched = batched
        self.observer = observer
        # Optional extensions carried by the observer (duck-typed, both
        # default-off): a QualityMonitor fed decided prefixes, and a
        # PerfProfiler timing the hot sections.  Cached here so the hook
        # sites stay one `is not None` test each.
        self._quality = getattr(observer, "quality", None)
        self._profiler = getattr(observer, "profiler", None)
        # Hot-swap hook, optional like the extensions above.
        self._on_swap = getattr(observer, "model_swapped", None)
        self._sessions: dict[str, _Session] = {}
        # Insertion-ordered view of sessions still collecting a gesture:
        # the motionless-timeout scan never visits decided sessions.
        self._undecided: dict[str, _Session] = {}
        # With quality attached the bank maintains its scalar-theta
        # sidecar, so decided prefixes get O(1) bit-exact feature
        # vectors instead of per-decision scalar replays.
        self._bank = (
            FeatureBank(max_sessions, quality=self._quality is not None)
            if batched
            else None
        )
        self._evaluator = BatchEvaluator(recognizer) if batched else None
        if self._evaluator is not None:
            self._evaluator.profiler = self._profiler
        # Model table for hot swaps.  `_assign` maps a key prefix to the
        # model its new sessions pin; `_model_cache` (keyed by recognizer
        # object identity) shares one evaluator across prefixes swapped
        # to the same recognizer.  `_swapped` gates the grouped-eval
        # path: until a swap is applied, evaluation is the single-model
        # fast path, byte for byte.  `_min_floor` is the smallest
        # min_points over every resident model — the candidate prefilter
        # bound; per-session thresholds re-check exactly.
        self._default_model = _PoolModel(recognizer, self._evaluator, "")
        self._model_cache: dict[int, _PoolModel] = {
            id(recognizer): self._default_model
        }
        self._assign: dict[str, _PoolModel | str] = {}
        self._swapped = False
        self._min_floor = recognizer.min_points
        # Bound on *swapped-in* models resident at once (the default
        # model is never counted or evicted).  Past the bound the
        # least-recently-used model is dropped and its prefix
        # assignments degrade to label strings; `_model_for` reloads a
        # marker through `model_loader` (label -> recognizer) on the
        # next session open, so eviction never changes a decision —
        # registry models are content-addressed and reload bit-equal.
        if max_models is not None and model_loader is None:
            raise ValueError("max_models needs a model_loader to reload from")
        self._max_models = max_models
        self._model_loader = model_loader
        self.model_evictions = 0
        # One-shot model pins consumed at the key's next session open —
        # how a migrated-in session keeps the model it originally
        # opened under, regardless of swaps applied here since.
        self._pins: dict[str, _PoolModel] = {}
        # Slot -> session table, so the candidate scan after a batched
        # tick recovers sessions without any per-operation bookkeeping.
        self._slot_session: list = [None] * max_sessions if batched else []
        self._ops: list[tuple] = []  # (t, ops-chunk) pairs
        self._round_id = 0
        # Lower bound on any undecided session's last activity: the
        # motionless-timeout scan can be skipped entirely while
        # ``now - timeout`` has not reached it (it may be stale-low,
        # which only costs a scan, never misses one).
        self._scan_floor = float("inf")

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, key: str) -> bool:
        return key in self._sessions

    # -- buffered input ------------------------------------------------------

    def down(self, key: str, x: float, y: float, t: float) -> None:
        """Button press: start the session keyed ``key``."""
        self._ops.append((t, (("down", key, x, y),)))

    def move(self, key: str, x: float, y: float, t: float) -> None:
        """Mouse sample for an existing session."""
        self._ops.append((t, (("move", key, x, y),)))

    def up(self, key: str, x: float, y: float, t: float) -> None:
        """Button release: decide if needed, then commit and end."""
        self._ops.append((t, (("up", key, x, y),)))

    def kill(self, key: str, t: float) -> None:
        """Force-terminate session ``key`` at ``t`` (fault injection).

        The session is dropped with an ``evict`` decision (reason
        ``"killed"``); killing a key with no session is a silent no-op,
        so fault schedules need not know which strokes are still alive.
        Ordered with the other buffered operations: input for the key
        already buffered ahead of the kill is still applied first.
        """
        self._ops.append((t, (("kill", key, 0.0, 0.0),)))

    def release(self, key: str, t: float) -> None:
        """Silently forget session ``key`` (live migration handoff).

        Unlike :meth:`kill` no decision is emitted — the session now
        lives elsewhere and its byte stream must come from there alone.
        Ordered with the other buffered operations; releasing a key
        with no session is a silent no-op.
        """
        self._ops.append((t, (("release", key, 0.0, 0.0),)))

    def pin(self, key: str, recognizer, t: float, label: str = "") -> None:
        """One-shot model pin for ``key``'s *next* session open.

        The pin binds exactly one future session of exactly this key to
        ``recognizer`` (``None`` pins the default model), overriding the
        prefix assignments a :meth:`swap_model` would consult, then
        expires.  Buffered and ordered like every other operation.
        """
        self._ops.append((t, (("pin", key, recognizer, label),)))

    def swap_model(
        self,
        prefix: str,
        recognizer: EagerRecognizer,
        t: float,
        label: str = "",
    ) -> None:
        """Bind every session key starting with ``prefix`` to ``recognizer``.

        Buffered and ordered with the other operations: the swap takes
        effect at its position in the input sequence, for sessions that
        *open* from then on.  Sessions already in flight — with or
        without buffered input ahead of the swap — finish on the model
        they pinned at open, so no gesture is ever judged by two
        different classifiers.  The longest matching prefix wins when
        several bind one key; swapping the empty prefix rebinds every
        future session.  ``label`` is carried to the observer's
        ``model_swapped`` hook (e.g. the registry ``name@version``).
        """
        self._ops.append((t, (("swap", prefix, recognizer, label),)))

    def submit(self, ops, t: float) -> None:
        """Bulk-submit one tick of ``(kind, key, x, y)`` operations at ``t``.

        Equivalent to calling :meth:`down`/:meth:`move`/:meth:`up` once
        per element, without the per-operation overhead — the shape load
        generators and replay drivers want.
        """
        self._ops.append((t, ops))

    # -- processing ----------------------------------------------------------

    def flush(self) -> list[Decision]:
        """Apply all buffered operations; return the decisions they caused.

        Input is consumed in *rounds* of at most one operation per
        session, in arrival order — the batched tick feeds each feature
        slot at most one point, exactly like the per-session loop; a
        session's second operation waits for the next round — and
        decisions are emitted in that same order in both modes.
        """
        out = self._drain()
        obs = self.observer
        if obs is not None and out:
            obs.decisions(out)
        return out

    def _drain(self) -> list[Decision]:
        """Run buffered operations to completion (no observer callout)."""
        out: list[Decision] = []
        chunks = self._ops
        self._ops = []
        obs = self.observer
        if obs is not None:
            obs.tick(
                sum(len(chunk) for _, chunk in chunks),
                len(chunks),
                len(self._sessions),
            )
        while chunks:
            chunks = self._run_round(chunks, out)
        return out

    def advance_to(self, t: float) -> list[Decision]:
        """Apply buffered input, move virtual time to ``t``, fire timeouts."""
        out = self._drain()
        # One clock read per tick: the advance's return value is the
        # `now` every timeout below is judged against.  Re-reading the
        # clock here could observe a later time (a shared clock advanced
        # between the two reads) and fire timeouts for sessions created
        # within this very tick before their dwell has elapsed.
        now = self.clock.advance_to(t)
        horizon = now - self.timeout
        if horizon < self._scan_floor:
            obs = self.observer
            if obs is not None and out:
                obs.decisions(out)
            return out
        expired = []
        floor = float("inf")
        for s in self._undecided.values():
            if s.last_t <= horizon:
                expired.append(s)
            elif s.last_t < floor:
                floor = s.last_t
        self._scan_floor = floor
        if expired:
            self._time_out(expired, out)
        obs = self.observer
        if obs is not None and out:
            obs.decisions(out)
        return out

    def expire(self, key: str, t: float) -> list[Decision]:
        """Apply buffered input, then time out ``key`` alone if due at ``t``.

        A barrier scoped to one session that never moves the clock: the
        session fires exactly as :meth:`advance_to` would fire it at
        ``t``, and no other session is judged.  This is how a session
        migrated into a *warm* pool replays its journal's clock markers
        against its own history, even though this pool's clock already
        stands past them.
        """
        out = self._drain()
        session = self._undecided.get(key)
        if session is not None and session.last_t <= t - self.timeout:
            self._time_out([session], out)
        obs = self.observer
        if obs is not None and out:
            obs.decisions(out)
        return out

    def _time_out(self, expired: list[_Session], out: list[Decision]) -> None:
        """Decide ``expired`` on their prefixes: motionless-timeout recogs."""
        quality = self._quality
        names = self._classify_full(expired)
        for session, name in zip(expired, names):
            self._decide(session, name, eager=False)
            decision = Decision(
                key=session.key,
                kind="recog",
                t=session.last_t + self.timeout,
                class_name=name,
                eager=False,
                points_seen=session.count,
                total_points=session.count,
                reason="timeout",
            )
            out.append(decision)
            if quality is not None:
                quality.decided(
                    session.points, decision, self._quality_vector(session)
                )

    def evict_idle(self, max_idle: float = DEFAULT_IDLE_TIMEOUT) -> list[Decision]:
        """Drop sessions with no input for ``max_idle`` seconds of virtual time."""
        out = self._drain()
        now = self.clock.now
        stale = [
            s for s in self._sessions.values() if now - s.last_t >= max_idle
        ]
        quality = self._quality
        for session in stale:
            if self.batched and not session.decided:
                session.count = self._bank.count_of(session.slot)
            self._remove(session)
            out.append(
                Decision(
                    key=session.key,
                    kind="evict",
                    t=now,
                    class_name=session.class_name,
                    eager=session.eager,
                    points_seen=session.decided_points,
                    total_points=session.count,
                    reason="idle",
                )
            )
            if quality is not None:
                quality.closed(
                    session.key, session.decided_points + session.manip
                )
        obs = self.observer
        if obs is not None and out:
            obs.decisions(out)
        return out

    # -- one round -----------------------------------------------------------

    def _run_round(self, chunks: list[tuple], out: list[Decision]) -> list[tuple]:
        """Process one round of chunked input; return the deferred chunks.

        First pass, in arrival order: lifecycle + feeds.  The hot path
        (a move on an undecided session) is kept as lean as possible;
        anything that will emit a decision is recorded with its round
        position so the emission pass can interleave eager decisions
        with ups/errors in exact arrival order.  A session that already
        consumed an operation this round (its ``stamp`` matches) has the
        rest of its operations deferred to the next round.
        """
        sessions = self._sessions
        batched = self.batched
        min_points = self._min_floor
        stamp = self._round_id = self._round_id + 1
        sget = sessions.get
        obs = self.observer
        # Entries interleave with feeds in arrival order; each records
        # how many feeds preceded it, which is all the emission pass
        # needs to restore exact arrival order (an operation is either
        # a feed or an entry, never both).
        entries: list[tuple] = []  # (feeds-before, tag, ...)
        fed_slots: list[int] = []
        fed_points: list[tuple] = []  # shared with session.points
        finish_sessions: list[_Session] = []
        deferred: list[tuple] = []

        for t, chunk in chunks:
            later: list | None = None
            for op in chunk:
                kind, key, x, y = op
                if kind == "swap":
                    # x = recognizer, y = label (see swap_model); applied
                    # at this position in arrival order, so the swap
                    # governs sessions opened from here on.
                    self._apply_swap(key, x, y, t)
                    continue
                if kind == "pin":
                    # x = recognizer (None = default), y = label.
                    self._apply_pin(key, x, y)
                    continue
                session = sget(key)
                if session is None:
                    if kind != "down":
                        # killing or releasing a dead key: no-op
                        if kind != "kill" and kind != "release":
                            entries.append(
                                (len(fed_slots), _ERROR, key, t, "unknown stroke")
                            )
                        continue
                    if len(sessions) >= self.max_sessions:
                        entries.append(
                            (len(fed_slots), _ERROR, key, t, "pool full")
                        )
                        continue
                    session = _Session(key, t)
                    session.stamp = stamp
                    pinned = self._pins.pop(key, None) if self._pins else None
                    session.model = (
                        pinned
                        if pinned is not None
                        else self._model_for(key)
                        if self._swapped
                        else self._default_model
                    )
                    if batched:
                        session.slot = self._bank.open_slot()
                        self._slot_session[session.slot] = session
                    else:
                        session.eseq = session.model.recognizer.session()
                    sessions[key] = session
                    self._undecided[key] = session
                    if t < self._scan_floor:
                        self._scan_floor = t
                    if obs is not None:
                        obs.session_started(key, t)
                elif session.stamp != stamp:
                    session.stamp = stamp
                    if session.decided:
                        if kind == "up":
                            entries.append(
                                (len(fed_slots), _COMMIT, session, t)
                            )
                        elif kind == "kill":
                            entries.append(
                                (len(fed_slots), _KILL, session, t)
                            )
                        elif kind == "release":
                            entries.append(
                                (len(fed_slots), _RELEASE, session, t)
                            )
                        else:
                            # Manipulation phase: refresh activity and
                            # count the sample toward the whole stroke.
                            session.last_t = t
                            session.manip += 1
                        continue
                    if kind != "move":
                        if kind == "up":
                            finish_sessions.append(session)
                            entries.append(
                                (len(fed_slots), _FINISH, session, t)
                            )
                        elif kind == "kill":
                            entries.append(
                                (len(fed_slots), _KILL, session, t)
                            )
                        elif kind == "release":
                            entries.append(
                                (len(fed_slots), _RELEASE, session, t)
                            )
                        else:
                            entries.append(
                                (
                                    len(fed_slots),
                                    _ERROR,
                                    key,
                                    t,
                                    "duplicate down",
                                )
                            )
                        continue
                else:
                    if later is None:
                        later = []
                        deferred.append((t, later))
                    later.append(op)
                    continue

                # A gesture point: a down's press point or an undecided move.
                session.last_t = t
                if batched:
                    pt = (x, y, t)
                    session.points.append(pt)
                    fed_slots.append(session.slot)
                    fed_points.append(pt)
                else:
                    session.count = session.count + 1
                    point = Point(x, y, t)
                    session.points.append(point)
                    decided = session.eseq.add_point(point)
                    if decided is not None:
                        entries.append(
                            (len(fed_slots), _DECIDED, session, t, decided)
                        )

        # Batched math: one vectorized tick, then one feature gather and
        # one fused matrix product over every eager candidate (a fed
        # session with enough points — found from the bank's counts, not
        # per-operation bookkeeping) and every finishing session.
        unamb_rows: list[int] = []
        eval_sessions: list[_Session] = []
        cand = None  # candidates' indices into the fed arrays
        names: list[str] = []
        n_unambiguous = 0
        if batched:
            timing = obs is not None
            prof = self._profiler
            t_start = perf_counter() if timing else 0.0
            n_fallbacks = 0
            n_rows = 0
            n_eval = 0
            if fed_slots:
                slot_arr = np.array(fed_slots)
                fed_x, fed_y, fed_t = zip(*fed_points)
                t_feed = perf_counter() if prof is not None else 0.0
                new_counts = self._bank.add_points(
                    slot_arr, np.array(fed_x), np.array(fed_y), np.array(fed_t)
                )
                if prof is not None:
                    prof.add(
                        "feature_update",
                        perf_counter() - t_feed,
                        len(fed_slots),
                    )
                cand = np.flatnonzero(new_counts >= min_points)
                n_eval = len(cand)
                if n_eval:
                    cand_slots = slot_arr[cand]
                    table = self._slot_session
                    eval_sessions = [table[s] for s in cand_slots.tolist()]
                    if self._swapped:
                        # min_points is the floor over all resident
                        # models; re-check each candidate against its
                        # own model's threshold.
                        keep = [
                            j
                            for j, s in enumerate(eval_sessions)
                            if new_counts[cand[j]]
                            >= s.model.recognizer.min_points
                        ]
                        if len(keep) != n_eval:
                            cand = cand[keep]
                            cand_slots = slot_arr[cand]
                            eval_sessions = [eval_sessions[j] for j in keep]
                            n_eval = len(cand)
            if n_eval or finish_sessions:
                if finish_sessions:
                    finish_slots = np.array([s.slot for s in finish_sessions])
                    row_slots = (
                        np.concatenate([cand_slots, finish_slots])
                        if n_eval
                        else finish_slots
                    )
                else:
                    row_slots = cand_slots
                features, counts, guard_risk = self._bank.features(row_slots)
                rows = eval_sessions + finish_sessions
                if self._swapped:
                    (
                        unambiguous,
                        auc_risky,
                        full_winners,
                        full_risky,
                    ) = self._eval_rows_grouped(
                        rows, features, counts, guard_risk
                    )
                else:
                    (
                        unambiguous,
                        auc_risky,
                        full_winners,
                        full_risky,
                    ) = self._evaluator.combined_decisions(
                        features, counts, guard_risk
                    )
                if n_eval:
                    eager_unambiguous = unambiguous[:n_eval]
                    auc_replays = np.flatnonzero(auc_risky[:n_eval])
                    n_fallbacks += len(auc_replays)
                    if len(auc_replays):
                        t_fb = perf_counter() if prof is not None else 0.0
                        for i in auc_replays:
                            eager_unambiguous[i] = eval_sessions[
                                i
                            ].model.recognizer.auc.is_unambiguous(
                                replay_vector(eval_sessions[i].points)
                            )
                        if prof is not None:
                            prof.add(
                                "exact_fallback",
                                perf_counter() - t_fb,
                                len(auc_replays),
                            )
                    unamb_rows = np.flatnonzero(eager_unambiguous).tolist()
                # Full classification: unambiguous candidates (in row
                # order), then finishers — `names` keeps that layout.
                n_unambiguous = len(unamb_rows)
                full_names = self._evaluator.full_names
                swapped = self._swapped
                n_rows = len(rows)
                for r_i in unamb_rows + list(range(n_eval, n_rows)):
                    if full_risky[r_i]:
                        n_fallbacks += 1
                        names.append(self._fallback_full(rows[r_i]))
                    elif swapped:
                        names.append(
                            rows[r_i].model.evaluator.full_names[
                                full_winners[r_i]
                            ]
                        )
                    else:
                        names.append(full_names[full_winners[r_i]])
            if timing and (fed_slots or n_rows):
                obs.batch_round(
                    len(fed_slots), n_rows, n_fallbacks, perf_counter() - t_start
                )

        # Emission pass: merge eager decisions with the recorded entries
        # back into exact arrival order.  Candidate j's feed index is
        # cand[j]; an entry recorded after f feeds precedes feed f.
        entry_i = 0
        n_entries = len(entries)
        next_finish = iter(names[n_unambiguous:])
        quality = self._quality
        for k, j in enumerate(unamb_rows):
            p = cand[j]
            while entry_i < n_entries and entries[entry_i][0] <= p:
                self._emit(entries[entry_i], out, next_finish)
                entry_i += 1
            session = eval_sessions[j]
            self._decide(session, names[k], eager=True)
            decision = self._recog(session, session.last_t, "eager")
            out.append(decision)
            if quality is not None:
                quality.decided(
                    session.points,
                    decision,
                    self._bank.quality_state(session.slot),
                )
        while entry_i < n_entries:
            self._emit(entries[entry_i], out, next_finish)
            entry_i += 1
        return deferred

    def _emit(self, entry: tuple, out: list[Decision], next_finish) -> None:
        """Emit one recorded round entry in arrival-order position."""
        tag = entry[1]
        quality = self._quality
        if tag == _ERROR:
            _, _, key, t, reason = entry
            out.append(Decision(key=key, kind="error", t=t, reason=reason))
        elif tag == _DECIDED:
            _, _, session, t, name = entry
            self._decide(session, name, eager=True)
            decision = self._recog(session, t, "eager")
            out.append(decision)
            if quality is not None:
                quality.decided(
                    session.points, decision, session.eseq.feature_vector
                )
        elif tag == _FINISH:
            _, _, session, t = entry
            if self.batched:
                name = next(next_finish)
            else:
                name = session.eseq.finish()
            self._decide(session, name, eager=False)
            decision = self._recog(session, t, "up")
            out.append(decision)
            if quality is not None:
                quality.decided(
                    session.points, decision, self._quality_vector(session)
                )
            self._remove(session)
            out.append(self._commit(session, t))
            if quality is not None:
                quality.closed(
                    session.key, session.decided_points + session.manip
                )
        elif tag == _COMMIT:
            _, _, session, t = entry
            self._remove(session)
            out.append(self._commit(session, t))
            if quality is not None:
                quality.closed(
                    session.key, session.decided_points + session.manip
                )
        elif tag == _KILL:
            _, _, session, t = entry
            if self.batched and not session.decided:
                session.count = self._bank.count_of(session.slot)
            self._remove(session)
            out.append(
                Decision(
                    key=session.key,
                    kind="evict",
                    t=t,
                    class_name=session.class_name,
                    eager=session.eager,
                    points_seen=session.decided_points,
                    total_points=session.count,
                    reason="killed",
                )
            )
            if quality is not None:
                quality.closed(
                    session.key, session.decided_points + session.manip
                )
        else:  # _RELEASE: the session migrated away — forget, emit nothing
            _, _, session, _t = entry
            self._remove(session)
            if quality is not None:
                quality.closed(
                    session.key, session.decided_points + session.manip
                )

    # -- helpers -------------------------------------------------------------

    def _resident_model(
        self, recognizer: EagerRecognizer, label: str
    ) -> _PoolModel:
        """The shared ``_PoolModel`` for ``recognizer``, LRU-maintained."""
        cache = self._model_cache
        model = cache.get(id(recognizer))
        if model is None:
            evaluator = BatchEvaluator(recognizer) if self.batched else None
            if evaluator is not None:
                evaluator.profiler = self._profiler
            model = _PoolModel(recognizer, evaluator, label)
            cache[id(recognizer)] = model
            self._evict_models()
        else:
            model.label = label
            if self._max_models is not None and model is not self._default_model:
                # Refresh recency: dict order is the LRU order.
                cache[id(recognizer)] = cache.pop(id(recognizer))
        if recognizer.min_points < self._min_floor:
            self._min_floor = recognizer.min_points
        return model

    def _evict_models(self) -> None:
        """Drop least-recently-used swapped-in models past the bound.

        Assignments to an evicted model degrade to its label string;
        :meth:`_model_for` reloads the label through ``model_loader`` on
        the next session open.  Sessions in flight keep their direct
        model reference, so eviction never touches a live gesture.
        ``_min_floor`` is left alone — stale-low only over-selects
        candidates (each is re-checked against its own model's exact
        threshold); raising it could miss a decision.
        """
        bound = self._max_models
        if bound is None:
            return
        cache = self._model_cache
        default = self._default_model
        while len(cache) - (id(self.recognizer) in cache) > bound:
            victim = None
            for mid, model in cache.items():
                if model is not default:
                    victim = (mid, model)
                    break
            if victim is None:
                return
            mid, model = victim
            del cache[mid]
            self.model_evictions += 1
            for prefix, assigned in self._assign.items():
                if assigned is model:
                    self._assign[prefix] = model.label

    def _apply_swap(
        self, prefix: str, recognizer: EagerRecognizer, label: str, t: float
    ) -> None:
        self._assign[prefix] = self._resident_model(recognizer, label)
        self._swapped = True
        if self._on_swap is not None:
            self._on_swap(prefix, label, t)

    def _apply_pin(self, key: str, recognizer, label: str) -> None:
        if recognizer is None:
            self._pins[key] = self._default_model
            return
        self._pins[key] = self._resident_model(recognizer, label)
        # A pinned non-default model must route evaluation through the
        # grouped path even if no swap ever ran here.
        self._swapped = True

    def _model_for(self, key: str) -> _PoolModel:
        """The model a session opening under ``key`` pins (longest prefix)."""
        best: _PoolModel | str = self._default_model
        best_len = -1
        for prefix, model in self._assign.items():
            if len(prefix) > best_len and key.startswith(prefix):
                best, best_len = model, len(prefix)
        if type(best) is str:
            # An evicted assignment: reload the label and re-materialize
            # every prefix that degraded to it.
            recognizer = self._model_loader(best)
            model = self._resident_model(recognizer, best)
            for prefix, assigned in self._assign.items():
                if assigned == best and type(assigned) is str:
                    self._assign[prefix] = model
            return model
        if self._max_models is not None and best is not self._default_model:
            cache = self._model_cache
            mid = id(best.recognizer)
            if mid in cache:
                cache[mid] = cache.pop(mid)
        return best

    def _decide(self, session: _Session, name: str, eager: bool) -> None:
        if self.batched:
            # Batched feeds don't maintain the per-session counter; the
            # bank's count (points fed so far) is materialized into the
            # session at decision time, after which it never changes —
            # manipulation-phase input is not counted in either mode.
            session.count = self._bank.count_of(session.slot)
        session.decided = True
        session.class_name = name
        session.eager = eager
        session.decided_points = session.count
        self._undecided.pop(session.key, None)

    def _recog(self, session: _Session, t: float, reason: str) -> Decision:
        return Decision(
            key=session.key,
            kind="recog",
            t=t,
            class_name=session.class_name,
            eager=session.eager,
            points_seen=session.decided_points,
            total_points=session.count,
            reason=reason,
        )

    def _commit(self, session: _Session, t: float) -> Decision:
        return Decision(
            key=session.key,
            kind="commit",
            t=t,
            class_name=session.class_name,
            eager=session.eager,
            points_seen=session.decided_points,
            total_points=session.count,
        )

    def _remove(self, session: _Session) -> None:
        del self._sessions[session.key]
        self._undecided.pop(session.key, None)
        if session.slot is not None:
            self._slot_session[session.slot] = None
            self._bank.close_slot(session.slot)
            session.slot = None

    def _quality_vector(self, session: _Session):
        """The decided prefix's feature snapshot, without a scalar replay.

        Batched mode reads the bank's quality sidecar as a raw
        accumulator tuple (O(1) per call; the monitor assembles it
        lazily); sequential mode reads the eager session's own
        incremental vector.  Both are bit-identical to
        :func:`~repro.features.replay_vector` once assembled — that
        identity is what lets :class:`~repro.obs.QualityMonitor` stay
        attached in production without re-walking every decided prefix.
        """
        if self.batched:
            return self._bank.quality_state(session.slot)
        return session.eseq.feature_vector

    def _fallback_full(self, session: _Session) -> str:
        """One exact-fallback full classification, profiled when attached."""
        prof = self._profiler
        t_start = perf_counter() if prof is not None else 0.0
        name = session.model.recognizer.full_classifier.classify_features(
            replay_vector(session.points)
        )
        if prof is not None:
            prof.add("exact_fallback", perf_counter() - t_start)
        return name

    def _eval_rows_grouped(self, rows, features, counts, guard_risk):
        """Combined decisions with rows partitioned by pinned model.

        Each group is sliced out, decided by its own model's evaluator,
        and scattered back into full-length result arrays.  Because the
        evaluator's discrete decisions never depend on which other rows
        share a batch (risky rows are exact-replayed), the default
        model's group decides exactly as it would have in an unpartition-
        ed, swap-free batch — the hot-swap byte-identity invariant.
        """
        n = len(rows)
        unambiguous = np.zeros(n, dtype=bool)
        auc_risky = np.zeros(n, dtype=bool)
        full_winners = np.zeros(n, dtype=np.intp)
        full_risky = np.zeros(n, dtype=bool)
        groups: dict[int, list[int]] = {}
        for i, session in enumerate(rows):
            groups.setdefault(id(session.model), []).append(i)
        for indices in groups.values():
            model = rows[indices[0]].model
            idx = np.asarray(indices, dtype=np.intp)
            u, a, w, f = model.evaluator.combined_decisions(
                features[idx], counts[idx], guard_risk[idx]
            )
            unambiguous[idx] = u
            auc_risky[idx] = a
            full_winners[idx] = w
            full_risky[idx] = f
        return unambiguous, auc_risky, full_winners, full_risky

    def _classify_full(self, sessions: list[_Session]) -> list[str]:
        """Full-classifier verdicts on current prefixes (timeout path)."""
        if not self.batched:
            return [
                s.model.recognizer.full_classifier.classify_features(
                    replay_vector(s.points)
                )
                for s in sessions
            ]
        slots = np.array([s.slot for s in sessions])
        features, counts, guard_risk = self._bank.features(slots)
        if self._swapped:
            names: list = [None] * len(sessions)
            risky = np.zeros(len(sessions), dtype=bool)
            groups: dict[int, list[int]] = {}
            for i, session in enumerate(sessions):
                groups.setdefault(id(session.model), []).append(i)
            for indices in groups.values():
                model = sessions[indices[0]].model
                idx = np.asarray(indices, dtype=np.intp)
                group_names, group_risky = model.evaluator.full_decisions(
                    features[idx], counts[idx], guard_risk[idx]
                )
                for k, i in enumerate(indices):
                    names[i] = group_names[k]
                risky[idx] = group_risky
        else:
            names, risky = self._evaluator.full_decisions(
                features, counts, guard_risk
            )
        replays = np.flatnonzero(risky)
        for i in replays:
            names[i] = self._fallback_full(sessions[i])
        obs = self.observer
        if obs is not None:
            obs.timeout_round(len(sessions), len(replays))
        return names

"""Recognition-quality telemetry: is the *recognizer* healthy?

PR 2's observer answers mechanical questions (how many decisions, how
big the batches).  :class:`QualityMonitor` answers the questions the
paper's evaluation reasons about:

* **classification margin** — how far the winning class's linear
  evaluation sits above the runner-up's.  Shrinking margins mean the
  classifier is being asked to make closer calls than it was trained
  for (the quantity the §4.6 bias-tweak procedure manipulates).
* **Mahalanobis rejection distance** — the squared distance from the
  decided feature vector to the winning class's training mean under the
  pooled covariance.  Rubine rejects gestures with ``d^2 > 0.5 F^2``;
  the monitor counts those as ``quality.outliers``.
* **feature drift** — per class, the running mean of ``d^2 / F``.  A
  *complete* in-distribution gesture has expectation ≈ 1 (``E[d^2] = F``
  under the training Gaussian); an eager decision measures a truncated
  prefix against the full-gesture mean, which inflates the level (there
  is no observable "rest of the gesture" — post-decision motion is
  manipulation, not gesture).  The score is therefore a *relative*
  signal: compare a class against its own history or against its peers
  under the same traffic mix, not against an absolute 1.0.
* **eager-trigger progress** — the fraction of the stroke consumed
  before the AUC judged it unambiguous (the paper's eagerness measure,
  figures 9–10).  Known only once the stroke *ends*, so it is recorded
  when the session commits, not when it decides.
* **ambiguous dwell** — virtual seconds from the first point to the
  decision: how long the user waited for an answer.

Every number is defined by the scalar replay of the decided gesture
prefix through :class:`~repro.features.IncrementalFeatures` — the same
arbiter the batched evaluator's exact-fallback uses — so the numbers
are bit-identical across the pool's batched and sequential modes and
independent of any attached tracer.  The serving layer no longer *pays*
for that replay, though: :meth:`QualityMonitor.decided` accepts the
decided prefix's feature ``vector`` precomputed by the caller — the
pool's batched mode hands over the raw O(1)
:meth:`~repro.serve.bank.FeatureBank.quality_state` snapshot (assembled
via :func:`~repro.features.vector_from_snapshot` only when scored);
sequential mode reads the live :class:`~repro.eager.EagerSession`
state — and both sources are proven bit-identical to the replay by
property tests.
``vector=None`` still replays — the reference path, and the
compatibility path for callers that only have points.  The monitor is
pure read-only observation: it never touches the recognizer's state and
is only ever *called*, never consulted, by the serving layer.

For fleets that cannot afford 100 % coverage, ``sample=`` keeps quality
on a deterministic fraction of sessions: membership is a keyed hash of
the session id (:func:`session_sampled`), so it is replay-stable,
platform-stable, and independent of which worker — or which incarnation
of a worker, across a SIGKILL and journal replay — scores the session.
Sampled-out decisions cost one hash and one counter increment
(``quality.sampled_out``); sampled-in trace records carry their
``sample_rate`` so ``repro analyze`` can report it and scale counts.

Like the rest of :mod:`repro.obs`, this module imports nothing from
:mod:`repro.serve`; the pool hands it plain point sequences, duck-typed
decision records, and plain feature arrays.
"""

from __future__ import annotations

from hashlib import blake2b

from ..features import fold_turn_angles, replay_vector, vector_from_snapshot

__all__ = ["QualityMonitor", "session_sampled"]

import numpy as np

# Sampling compares a 64-bit keyed hash against rate * 2^64.
_SAMPLE_SCALE = 1 << 64

_NEG_INF = float("-inf")

# Staging backstop: if nothing scrapes the metrics for this many
# decisions, flush inline so staged capture stays bounded (~300 bytes a
# decision).  Any periodic scrape — a cluster heartbeat, a dashboard —
# drains far earlier.
_MAX_STAGED = 8192


def session_sampled(key: str, rate: float, seed: int = 0) -> bool:
    """Is session ``key`` in the deterministic quality sample?

    The membership test is ``blake2b(f"{seed}:{key}")``'s first 8 bytes
    read as an integer, against ``rate * 2^64`` — a pure function of
    ``(seed, rate, key)``.  No process state, no RNG stream, no
    platform dependence: a cluster replaying a session after a SIGKILL,
    a different worker after a reshard, or an offline re-run all make
    the identical choice, which is what keeps sampled traces coherent
    fleet-wide.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = blake2b(f"{seed}:{key}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") < int(rate * _SAMPLE_SCALE)

# Bucket ladders sized to what each quantity actually spans.
_MARGIN_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0,
)
# Squared Mahalanobis distances concentrate around F (= 13); Rubine's
# rejection threshold 0.5 F^2 sits at 84.5.
_MAHAL_BUCKETS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)
# Ambiguous dwell in virtual seconds; the motionless timeout is 0.2 s.
_DWELL_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0, 2.5,
)
_EAGERNESS_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _assemble(state: tuple) -> np.ndarray:
    """A :meth:`FeatureBank.quality_state` snapshot, as a feature vector.

    Replays the scalar ``atan2`` fold over the snapshot's logged
    turning products, then the scalar assembly over its deltas — both
    pure :mod:`repro.features` functions, bit-identical to the replay.
    """
    angle, abs_angle, sharp = fold_turn_angles(state[7], state[8])
    return vector_from_snapshot(
        *state[:7], angle, abs_angle, sharp, *state[9:]
    )


class QualityMonitor:
    """Per-decision recognition-quality metrics, trace records, drift.

    Attach through :class:`~repro.obs.PoolObserver` (``quality=``).  The
    pool calls two hooks:

    * :meth:`decided` with the decided prefix and the ``recog`` decision
      — the dwell is measured and the decision staged; its margin and
      distance are scored at the next :meth:`flush`;
    * :meth:`closed` when the session reaches a terminal event, with the
      stroke's total point count — eagerness needs the whole stroke.

    ``metrics`` and ``tracer`` are both optional: metrics-only is the
    always-on configuration, tracer-only is what the golden analyze
    tests use, and neither still accumulates :meth:`drift_scores`.

    ``sample`` (with ``sample_seed``) keeps a deterministic fraction of
    sessions, keyed on the session id (see :func:`session_sampled`);
    ``sample=1.0`` — the default — scores everything and stamps
    nothing, byte-compatible with pre-sampling traces.
    """

    def __init__(
        self,
        recognizer,
        metrics=None,
        tracer=None,
        *,
        sample: float = 1.0,
        sample_seed: int = 0,
    ):
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be within [0, 1], got {sample}")
        full = recognizer.full_classifier
        self._linear = full.linear
        self._columns = full.feature_indices  # None = all 13
        self._metric = full.metric
        self._means = full.means
        self._dim = self._metric.dim
        # Pre-bound pieces of the per-decision pipeline.  The margin
        # and distance are computed with the *same operations* (in the
        # same order, on the same operands) as LinearClassifier
        # .evaluations and MahalanobisMetric.squared_distance, minus
        # their per-call validation — identical bits, less overhead.
        self._weights = self._linear.weights
        self._constants = self._linear.constants
        self._inv = self._metric.inverse_covariance
        # Per-decision scratch and Python-side constants.  The class
        # constants are added score-by-score inside the two-largest
        # scan (a Python float add is the same IEEE operation as
        # ``np.add`` applies elementwise), and the matvec results land
        # in preallocated buffers — both shave fixed numpy dispatch
        # cost off a path that runs once per decision.
        self._constants_list = self._constants.tolist()
        self._n_classes = len(self._constants_list)
        self._score_buf = np.empty(self._n_classes)
        self._diff_buf = np.empty(self._dim)
        self._row_buf = np.empty(self._dim)
        self.sample_rate = float(sample)
        self.sample_seed = int(sample_seed)
        self._sample_all = sample >= 1.0
        self._sample_threshold = int(sample * _SAMPLE_SCALE)
        self._seed_prefix = f"{sample_seed}:".encode()
        # Rubine's rejection rule, applied to what the serving layer
        # actually classified (the decided prefix): an input further
        # than 0.5 F^2 from its winner's mean "probably looks nothing
        # like" that class and would be rejected in the paper's
        # click-and-classify mode.
        self._outlier_sq = 0.5 * self._dim * self._dim
        self.metrics = metrics
        self.tracer = tracer
        # The per-decision math is *deferred*: decided() stages the
        # decision with its feature vector — a couple of appends — and
        # flush() runs the margin/distance pipeline when the numbers
        # are actually read.  Reads stay consistent because the
        # registry invokes flush as a pre-snapshot collector,
        # drift_scores() flushes first, and with a tracer attached
        # closed() flushes before it emits the session's record — at
        # the close, in event order, where the golden traces pin it.
        # The FIFO replay keeps every accumulation in decision order,
        # so the results are bit-identical to scoring each decision as
        # it happened.
        # Staged entries are ``[decision, dwell, features]``; flush()
        # replaces the features with their ``(margin, d_sq)`` score.
        self._staged: list[list] = []
        self._staged_closed: list[tuple] = []
        # key -> its staged entry, completed (and emitted) at close time.
        self._pending: dict[str, list] = {}
        # class -> [decisions, sum of d^2] for drift_scores().
        self._drift: dict[str, list] = {}
        # class -> (margin.observe, mahal_sq.observe); label -> observe.
        self._class_obs: dict[str, tuple] = {}
        self._eager_obs: dict[str, object] = {}
        self._dwell_obs: dict[str, object] = {}
        if metrics is not None:
            self._inc_decisions = metrics.counter("quality.decisions").inc
            self._inc_outliers = metrics.counter("quality.outliers").inc
            self._inc_sampled_out = metrics.counter(
                "quality.sampled_out"
            ).inc
            register = getattr(metrics, "register_collector", None)
            if register is not None:
                register(self.flush)

    # -- hooks (called by the pool) ------------------------------------------

    def decided(self, points, decision, vector=None) -> None:
        """A session decided: measure the dwell and stage the decision.

        ``vector`` is the decided prefix's feature vector — or the raw
        accumulator snapshot tuple of
        :meth:`~repro.serve.bank.FeatureBank.quality_state`, assembled
        lazily through :func:`~repro.features.vector_from_snapshot` —
        when the caller already holds it (the pool's O(1) vectorized
        sources, proven bit-identical to the replay); ``None`` replays
        the prefix (:func:`~repro.features.replay_vector`) — the reference
        formulation, and the path for callers that only have points.
        """
        key = decision.key
        if not self._sample_all:
            digest = blake2b(
                self._seed_prefix + key.encode(), digest_size=8
            ).digest()
            if int.from_bytes(digest, "big") >= self._sample_threshold:
                if self.metrics is not None:
                    self._inc_sampled_out()
                return
        features = replay_vector(points) if vector is None else vector
        first = points[0]
        dwell = decision.t - (first[2] if type(first) is tuple else first.t)
        # Capture only: the vector (or raw snapshot tuple) is already
        # fresh — every source hands over a new object — so staging is
        # a couple of appends.  Assembly, masking and scoring all
        # happen in flush(), at read time.
        entry = [decision, dwell, features]
        self._staged.append(entry)
        self._pending[key] = entry
        if len(self._staged) >= _MAX_STAGED:
            self.flush()

    def flush(self) -> None:
        """Score and account every staged decision (idempotent, FIFO).

        Invoked automatically before each metrics snapshot (the
        registry collector hook), by :meth:`drift_scores`, and — with a
        tracer attached — by :meth:`closed` before it emits; callers
        holding none of these can invoke it directly.  Replaying in
        decision order makes every float accumulation identical to
        having scored each decision as it happened.
        """
        staged = self._staged
        closed = self._staged_closed
        if staged:
            self._staged = []
            score = self._score
            account = self._account
            for entry in staged:
                decision, dwell, features = entry
                margin, d_sq = entry[2] = score(features)
                account(
                    decision.class_name, decision.reason, margin, d_sq, dwell
                )
        if closed:
            self._staged_closed = []
            for name, points_seen, total_points in closed:
                eagerness = (
                    points_seen / total_points if total_points > 0 else 0.0
                )
                self._observe_eagerness(name, eagerness)

    def _score(self, features) -> tuple:
        """Margin and squared Mahalanobis distance for one decision.

        Accepts every shape :meth:`decided` does: a raw snapshot tuple
        is assembled here, and the configured feature-column mask is
        applied here, so capture stays shape-agnostic.

        One gemv per decision — matrix-vector like the scalar
        reference, never batched into a gemm (BLAS may accumulate
        those differently in the last ulp).  Constants join inside the
        two-largest scan (a Python float add is the same IEEE operation
        ``np.add`` applies), which then returns exactly what
        np.partition(scores, -2) and np.argmax did: same floats, same
        subtraction, first index wins ties.
        """
        if type(features) is tuple:
            features = _assemble(features)
        if self._columns is not None:
            features = features[self._columns]
        raw = np.matmul(self._weights, features, out=self._score_buf).tolist()
        consts = self._constants_list
        winner = 0
        if self._n_classes > 1:
            best = raw[0] + consts[0]
            second = _NEG_INF
            for i in range(1, self._n_classes):
                v = raw[i] + consts[i]
                if v > best:
                    second = best
                    best = v
                    winner = i
                elif v > second:
                    second = v
            margin = best - second
        else:
            margin = 0.0
        # MahalanobisMetric.squared_distance, op for op: subtract,
        # left-to-right double matvec, float(), clamp that preserves
        # max(value, 0.0)'s handling of -0.0.  ``out=`` only redirects
        # where each result lands; the arithmetic is unchanged.
        diff = np.subtract(features, self._means[winner], out=self._diff_buf)
        d_sq = float(np.matmul(diff, self._inv, out=self._row_buf) @ diff)
        if d_sq < 0.0:
            d_sq = 0.0
        return margin, d_sq

    def _account(self, name, reason, margin, d_sq, dwell) -> None:
        """Fold one scored decision into drift, counters, histograms."""
        cell = self._drift.get(name)
        if cell is None:
            cell = self._drift[name] = [0, 0.0]
        cell[0] += 1
        cell[1] += d_sq
        if self.metrics is not None:
            self._inc_decisions()
            if d_sq > self._outlier_sq:
                self._inc_outliers()
            pair = self._class_obs.get(name)
            if pair is None:
                pair = self._class_obs[name] = (
                    self.metrics.histogram(
                        f"quality.margin.{name}", _MARGIN_BUCKETS
                    ).observe,
                    self.metrics.histogram(
                        f"quality.mahal_sq.{name}", _MAHAL_BUCKETS
                    ).observe,
                )
            pair[0](margin)
            pair[1](d_sq)
            dwell_obs = self._dwell_obs.get(reason)
            if dwell_obs is None:
                dwell_obs = self._dwell_obs[reason] = self.metrics.histogram(
                    f"quality.dwell.{reason}", _DWELL_BUCKETS
                ).observe
            dwell_obs(dwell)

    def closed(self, key: str, total_points: int) -> None:
        """The session ended; ``total_points`` covers the whole stroke.

        ``total_points`` counts the gesture prefix *plus* any
        manipulation-phase motion after the decision — the denominator
        of the paper's eagerness measure.  Sessions that never decided
        (killed or evicted mid-collection) have nothing staged and are
        a no-op here.
        """
        entry = self._pending.pop(key, None)
        if entry is None:
            return
        decision = entry[0]
        if self.metrics is not None:
            # The eagerness divide and histogram insert also wait for
            # flush(); observes replay in close order, so the
            # histogram's float running sum is bit-identical.
            self._staged_closed.append(
                (decision.class_name, decision.points_seen, total_points)
            )
        if self.tracer is None:
            return
        self.flush()
        margin, d_sq = entry[2]
        record = {
            "class": decision.class_name,
            "reason": decision.reason,
            "eager": decision.eager,
            "points": decision.points_seen,
            "margin": margin,
            "d2": d_sq,
            "drift": d_sq / self._dim,
            "outlier": bool(d_sq > self._outlier_sq),
            "dwell": entry[1],
            "t": decision.t,
        }
        if not self._sample_all:
            record["sample_rate"] = self.sample_rate
        record["total"] = total_points
        record["eagerness"] = (
            decision.points_seen / total_points if total_points > 0 else 0.0
        )
        record["rec"] = "quality"
        record["session"] = key
        self.tracer.record(record)

    def _observe_eagerness(self, name, eagerness) -> None:
        eager_obs = self._eager_obs.get(name)
        if eager_obs is None:
            eager_obs = self._eager_obs[name] = self.metrics.histogram(
                f"quality.eagerness.{name}", _EAGERNESS_BUCKETS
            ).observe
        eager_obs(eagerness)

    # -- read-outs -----------------------------------------------------------

    def drift_scores(self) -> dict:
        """Per-class drift: mean ``d^2 / F`` over the decisions seen.

        ≈ 1.0 for *complete* gestures matching the training
        distribution; eager-truncated prefixes raise the baseline (see
        the module docstring), so read this per class against its own
        history under a comparable traffic mix — a class whose score
        moves while its neighbours hold still has drifted.
        """
        self.flush()
        return {
            name: (total / count) / self._dim
            for name, (count, total) in sorted(self._drift.items())
            if count
        }


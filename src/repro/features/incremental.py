"""Constant-time-per-point feature extraction.

The paper's eager recognizer evaluates the feature vector of the gesture
prefix after *every* mouse point ("first the feature vector must be
updated, taking 0.5 msec on a DEC MicroVAX II").  That is only feasible
because every Rubine feature admits an O(1) incremental update; this
module provides that updater.  The invariant — checked by property-based
tests — is that after feeding points ``p_0 .. p_{i-1}``,
:attr:`IncrementalFeatures.vector` equals
:func:`repro.features.features_of` on the same prefix.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import Point, Stroke
from .rubine import NUM_FEATURES, _MIN_DISTANCE, _MIN_DT, _MIN_SEGMENT_SQ

__all__ = [
    "IncrementalFeatures",
    "fold_turn_angles",
    "replay_vector",
    "vector_from_snapshot",
]


def fold_turn_angles(crosses, dots) -> tuple[float, float, float]:
    """Fold per-segment cross/dot products into the turn-angle features.

    ``crosses[i]`` / ``dots[i]`` are the cross and dot products of
    segment ``i`` against its predecessor — the two operands
    :meth:`IncrementalFeatures.add_point` hands to ``math.atan2`` for
    each turning point, in arrival order.  The fold here is that
    method's theta block verbatim (``math.atan2``, then ``+= theta``,
    ``+= abs(theta)``, ``+= theta * theta`` per point, left to right),
    so a caller holding the products — however it computed them — gets
    accumulators bit-identical to the scalar path's.

    Returns ``(total_angle, total_abs_angle, sharpness)``.
    """
    total_angle = 0.0
    total_abs = 0.0
    sharpness = 0.0
    for cross, dot in zip(crosses, dots):
        theta = math.atan2(cross, dot)
        total_angle += theta
        total_abs += abs(theta)
        sharpness += theta * theta
    return total_angle, total_abs, sharpness


def vector_from_snapshot(
    dx0: float,
    dy0: float,
    width: float,
    height: float,
    dxe: float,
    dye: float,
    total_len: float,
    total_angle: float,
    total_abs: float,
    sharpness: float,
    max_speed_sq: float,
    duration: float,
) -> np.ndarray:
    """Assemble the 13-feature vector from raw accumulator deltas.

    The arguments are exactly the intermediate scalars
    :attr:`IncrementalFeatures.vector` derives before its ``hypot`` /
    ``atan2`` / divide stage: the initial-angle anchor deltas, the
    bounding-box extents, the first-to-last chord deltas, and the five
    accumulators that pass through unchanged.  Subtraction is
    IEEE-exact, so a caller that produces those deltas from its own
    state (e.g. a :class:`~repro.serve.bank.FeatureBank` row) gets a
    result bit-identical to the scalar property — the point of this
    function is letting such callers *capture* the cheap deltas on the
    hot path and defer the transcendental assembly to read time.

    Mirrors the property operation for operation; the property stays
    hand-inlined because it runs per mouse point in sequential mode.
    """
    f = [0.0] * NUM_FEATURES
    d0 = math.hypot(dx0, dy0)
    if d0 > _MIN_DISTANCE:
        f[0] = dx0 / d0
        f[1] = dy0 / d0
    f[2] = math.hypot(width, height)
    if width != 0.0 or height != 0.0:
        f[3] = math.atan2(height, width)
    de = math.hypot(dxe, dye)
    f[4] = de
    if de > _MIN_DISTANCE:
        f[5] = dxe / de
        f[6] = dye / de
    f[7] = total_len
    f[8] = total_angle
    f[9] = total_abs
    f[10] = sharpness
    f[11] = max_speed_sq
    f[12] = duration
    return np.array(f)


class IncrementalFeatures:
    """Accumulates Rubine's 13 features one mouse point at a time.

    Typical use inside an event handler::

        inc = IncrementalFeatures()
        for event in mouse_events:
            inc.add_point(Point(event.x, event.y, event.t))
            decision = auc.classify(inc.vector)
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget all points; ready for a new gesture."""
        self._count = 0
        self._first: Point | None = None
        self._third: Point | None = None
        self._last: Point | None = None
        self._min_x = self._min_y = math.inf
        self._max_x = self._max_y = -math.inf
        self._total_len = 0.0
        self._total_angle = 0.0
        self._total_abs = 0.0
        self._sharpness = 0.0
        self._max_speed_sq = 0.0
        # Direction of the last non-degenerate segment, for turn angles.
        self._prev_dx: float | None = None
        self._prev_dy: float | None = None

    @property
    def count(self) -> int:
        """Number of points seen so far."""
        return self._count

    def add_point(self, p: Point) -> None:
        """Fold one more mouse point into the feature state.  O(1)."""
        if p.x < self._min_x:
            self._min_x = p.x
        if p.x > self._max_x:
            self._max_x = p.x
        if p.y < self._min_y:
            self._min_y = p.y
        if p.y > self._max_y:
            self._max_y = p.y

        if self._count == 0:
            self._first = p
        elif self._count <= 2:
            # Points 1 and 2 both update the initial-angle anchor so the
            # incremental vector matches the batch computation on 2-point
            # prefixes (which anchor on the last available point).
            self._third = p

        last = self._last
        if last is not None:
            dx, dy = p.x - last.x, p.y - last.y
            seg_sq = dx * dx + dy * dy
            self._total_len += math.sqrt(seg_sq)
            dt = p.t - last.t
            if dt >= _MIN_DT:
                speed_sq = seg_sq / (dt * dt)
                if speed_sq > self._max_speed_sq:
                    self._max_speed_sq = speed_sq
            if (
                self._prev_dx is not None
                and seg_sq >= _MIN_SEGMENT_SQ
                and self._prev_dx**2 + self._prev_dy**2 >= _MIN_SEGMENT_SQ
            ):
                theta = math.atan2(
                    self._prev_dx * dy - self._prev_dy * dx,
                    self._prev_dx * dx + self._prev_dy * dy,
                )
                self._total_angle += theta
                self._total_abs += abs(theta)
                self._sharpness += theta * theta
            if seg_sq > 0.0:
                self._prev_dx, self._prev_dy = dx, dy

        self._last = p
        self._count += 1

    def add_stroke(self, stroke: Stroke) -> None:
        """Feed every point of a stroke."""
        for p in stroke:
            self.add_point(p)

    @property
    def vector(self) -> np.ndarray:
        """The current 13-feature vector (a fresh array each call)."""
        f = np.zeros(NUM_FEATURES)
        if self._count == 0:
            return f
        first = self._first
        anchor = self._third if self._third is not None else first
        dx0, dy0 = anchor.x - first.x, anchor.y - first.y
        d0 = math.hypot(dx0, dy0)
        if d0 > _MIN_DISTANCE:
            f[0] = dx0 / d0
            f[1] = dy0 / d0
        width = self._max_x - self._min_x
        height = self._max_y - self._min_y
        f[2] = math.hypot(width, height)
        if width != 0.0 or height != 0.0:
            f[3] = math.atan2(height, width)
        last = self._last
        dxe, dye = last.x - first.x, last.y - first.y
        de = math.hypot(dxe, dye)
        f[4] = de
        if de > _MIN_DISTANCE:
            f[5] = dxe / de
            f[6] = dye / de
        f[7] = self._total_len
        f[8] = self._total_angle
        f[9] = self._total_abs
        f[10] = self._sharpness
        f[11] = self._max_speed_sq
        f[12] = last.t - first.t
        return f


def replay_vector(points) -> np.ndarray:
    """The scalar feature vector of a gesture prefix, replayed point by point.

    Accepts both point shapes the serving pool stores: ``(x, y, t)``
    tuples (batched mode) and :class:`~repro.geometry.Point` (sequential
    mode).  Replaying through :class:`IncrementalFeatures` makes the
    result the *reference* vector — identical bits in either execution
    mode — which is what the batched evaluator's exact fallback and the
    quality monitor both measure against.
    """
    inc = IncrementalFeatures()
    for p in points:
        if type(p) is tuple:
            p = Point(p[0], p[1], p[2])
        inc.add_point(p)
    return inc.vector

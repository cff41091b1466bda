"""Per-modality collection→manipulation semantics.

The paper's two-phase cycle is *collect points → classify → manipulate*.
Each modality reinterprets those phases over the unchanged serving
protocol — the pool still sees only down/move/up and still emits the
same decisions; the semantics layer reads the op stream and the
decision stream side by side and turns them into
:class:`ModalEvent` streams:

* **hold** — the motionless timeout, which for plain strokes merely
  *ends collection*, becomes a **promotion**: a timeout decision on a
  press that stayed within ``hold_max_drift`` begins hold manipulation
  (the drag-after-hold), confirmed once the press is
  ``hold_duration`` old.  A jittery hold that never goes motionless
  decides at mouse-up instead and fires begin+end there.
* **tap / double-tap** — decided strokes within the tap bounds feed the
  cross-stroke :class:`~repro.modal.detectors.TapTracker`; its timing
  windows and debounce live entirely *between* strokes, where the pool
  has no state at all.
* **scroll** — collection ends at the recognizer's decision as usual,
  but manipulation is **axis-locked**: every post-decision move emits a
  delta projected onto the axis the
  :class:`~repro.modal.detectors.ScrollAxisLock` committed to during
  collection.  Once vertical, never horizontal.
* **swipe / flick** — detection is dynamic: the velocity window can
  qualify a flick mid-collection; the event fires as soon as *both*
  the window has hit and the recognizer has decided the class.  A
  stroke classified as a swipe whose window never qualified (too slow,
  too curved) emits a ``reject`` event naming the failed check.
* **pinch / rotate** — two concurrent sessions compose into one
  manipulation: :class:`PairSemantics` anchors a
  :class:`~repro.modal.detectors.PairTracker` when the second finger
  lands and streams TRS updates once a commitment threshold names the
  manipulation.

Everything here is a pure function of (ops, decisions, config): no
randomness, no wall clock.  Two runs that produce identical decision
streams produce identical modal event streams — the composer's tests
assert exactly that across batched/sequential and observed/bare runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..synth.modal import modality_of
from .config import ModalityConfig
from .detectors import (
    HoldDetector,
    PairTracker,
    ScrollAxisLock,
    SwipeDetector,
    SwipeHit,
    edge_of,
)

__all__ = [
    "MODALITIES",
    "ModalEvent",
    "PairSemantics",
    "StrokeSemantics",
    "modality_of",  # re-exported from repro.synth.modal
]

# Every modality the layer can emit events for.
MODALITIES = ("tap", "hold", "scroll", "swipe", "pinch", "rotate")


@dataclass(frozen=True)
class ModalEvent:
    """One modality-level event, derived from ops + decisions.

    ``kind`` is ``begin``/``update``/``end`` for manipulations (hold,
    scroll, pinch/rotate), ``fire`` for instantaneous gestures (tap,
    double-tap — as ``modality="tap"`` with ``data["count"]`` — and
    swipe), and ``reject`` for a classified swipe that failed the
    kinematic checks.
    """

    key: str
    modality: str
    kind: str
    t: float
    class_name: str | None = None
    data: dict = field(default_factory=dict)


class StrokeSemantics:
    """One single-finger stroke's modality state machine.

    The owner (:class:`~repro.modal.compose.ModalComposer`) feeds it
    the stroke's ops, its pool decisions, and tick boundaries; it
    returns the modal events each input produces.  The recognizer's
    class — via :func:`modality_of` — routes which modality's
    semantics interpret the stroke; the kinematic detectors supply the
    state those semantics need (axis locks, velocity windows, drift).
    """

    def __init__(
        self,
        key: str,
        x: float,
        y: float,
        t: float,
        config: ModalityConfig,
        viewport: tuple[float, float] | None = None,
    ):
        self.key = key
        self.config = config
        self.down = (x, y, t)
        self.last = (x, y, t)
        self.points = 1
        self.hold = HoldDetector(config, x, y, t)
        self.scroll = ScrollAxisLock(config, x, y)
        self.swipe = SwipeDetector(config)
        self.swipe.feed(x, y, t)
        self.edge = (
            None if viewport is None
            else edge_of(x, y, viewport, config.edge_margin)
        )
        self.class_name: str | None = None
        self.modality: str | None = None
        self.decided_t: float | None = None
        # Pending / emitted manipulation state.
        self.hold_pending_at: float | None = None
        self.hold_begun = False
        self.scroll_begun = False
        self.swipe_hit: SwipeHit | None = None
        self.swipe_fired = False
        self.scrolled = 0.0
        self.closed = False

    # -- op stream -----------------------------------------------------------

    def on_move(self, x: float, y: float, t: float) -> list[ModalEvent]:
        events: list[ModalEvent] = []
        self.points += 1
        self.hold.move(x, y)
        hit = self.swipe.feed(x, y, t)
        if hit is not None and self.swipe_hit is None:
            self.swipe_hit = hit
        locked = self.scroll.feed(x, y)
        self.last = (x, y, t)
        if self.modality == "scroll" and locked is not None:
            axis, delta = locked
            if not self.scroll_begun:
                # The lock engaged after the decision: manipulation
                # begins at the lock, not at the decision.
                self.scroll_begun = True
                events.append(self._event("scroll", "begin", t, axis=axis))
            self.scrolled += delta
            events.append(
                self._event("scroll", "update", t, axis=axis, delta=delta)
            )
        if self.modality == "swipe" and not self.swipe_fired and (
            self.swipe_hit is not None
        ):
            events.append(self._swipe_fire(t))
        if self.hold_begun:
            events.append(
                self._event(
                    "hold", "update", t,
                    dx=x - self.down[0], dy=y - self.down[1],
                )
            )
        return events

    def on_up(self, x: float, y: float, t: float) -> None:
        """The up op only records position; decisions close the stroke."""
        self.last = (x, y, t)

    # -- decision stream -----------------------------------------------------

    def on_decision(self, kind: str, reason: str | None,
                    class_name: str | None, t: float) -> list[ModalEvent]:
        if kind == "recog":
            return self._on_recognized(reason, class_name, t)
        # commit / evict / error all end the stroke.
        return self._close(t)

    def _on_recognized(
        self, reason: str | None, class_name: str | None, t: float
    ) -> list[ModalEvent]:
        self.class_name = class_name
        self.modality = modality_of(class_name) if class_name else "stroke"
        self.decided_t = t
        events: list[ModalEvent] = []
        if self.modality == "scroll":
            if self.scroll.axis is not None:
                self.scroll_begun = True
                events.append(
                    self._event("scroll", "begin", t, axis=self.scroll.axis)
                )
            # else: begin waits for the lock to engage mid-manipulation.
        elif self.modality == "swipe":
            if self.swipe_hit is not None:
                events.append(self._swipe_fire(t))
        # Hold promotion is kinematic as well as class-routed: a
        # motionless timeout on a press that never drifted is a hold no
        # matter what the recognizer made of its few-point prefix (the
        # stillness is the signal; a 3-point blob's class is noise),
        # and an eager "hold" decision on a jittery press — samples
        # still arriving, so the motionless timeout never fires — is
        # the eager path doing its job early.
        promote = self.hold.within_drift and (
            reason == "timeout" or self.modality == "hold"
        )
        if promote:
            confirm = self.hold.confirm_time()
            if t >= confirm:
                events.extend(self._hold_begin(t))
            elif reason != "up":
                # Still down: the promotion arms and confirms once the
                # press is hold_duration old (see on_tick).
                self.hold_pending_at = confirm
            # else: released before hold_duration — too brief to hold.
        if reason == "up":
            # Decided at mouse-up: no manipulation phase follows, and
            # the pool emits no commit — close now (taps resolve here,
            # in the composer, where the cross-stroke tracker lives).
            events.extend(self._close(t))
        return events

    def on_tick(self, t: float) -> list[ModalEvent]:
        """Confirm a pending hold promotion once the press is old enough."""
        if (
            self.hold_pending_at is not None
            and not self.closed
            and t >= self.hold_pending_at
        ):
            return self._hold_begin(self.hold_pending_at)
        return []

    # -- internals -----------------------------------------------------------

    def _hold_begin(self, t: float) -> list[ModalEvent]:
        self.hold_pending_at = None
        self.hold_begun = True
        return [
            self._event(
                "hold", "begin", t,
                held_s=t - self.down[2], drift=self.hold.max_drift,
            )
        ]

    def _swipe_fire(self, t: float) -> ModalEvent:
        self.swipe_fired = True
        hit = self.swipe_hit
        data = {
            "direction": hit.direction,
            "velocity": hit.velocity,
            "linearity": hit.linearity,
        }
        if self.edge is not None:
            data["edge"] = self.edge
        return self._event("swipe", "fire", t, **data)

    def _close(self, t: float) -> list[ModalEvent]:
        if self.closed:
            return []
        self.closed = True
        events: list[ModalEvent] = []
        if self.hold_begun:
            events.append(
                self._event("hold", "end", t, held_s=t - self.down[2])
            )
        if self.scroll_begun:
            events.append(
                self._event(
                    "scroll", "end", t,
                    axis=self.scroll.axis, total=self.scrolled,
                )
            )
        if (
            self.modality == "swipe"
            and not self.swipe_fired
            and self.swipe_hit is None
        ):
            # Classified as a swipe but the window never qualified:
            # the kinematic checks (velocity floor, linearity) reject.
            events.append(
                self._event("swipe", "reject", t, reason="window")
            )
        return events

    def _event(self, modality: str, kind: str, t: float, **data) -> ModalEvent:
        return ModalEvent(
            key=self.key,
            modality=modality,
            kind=kind,
            t=t,
            class_name=self.class_name,
            data=data,
        )


class PairSemantics:
    """Two concurrent strokes composed into one TRS manipulation.

    Anchored when the second finger lands; every move of either finger
    advances the :class:`~repro.modal.detectors.PairTracker`.  The
    ``begin`` event fires when a commitment threshold names the
    manipulation (``pinch_in``/``pinch_out``/``rotate``); every update
    after that streams the accumulated gap change and turn; either
    finger's close ends it.
    """

    def __init__(
        self,
        base: str,
        config: ModalityConfig,
        a: StrokeSemantics,
        b: StrokeSemantics,
    ):
        self.base = base
        self.a = a
        self.b = b
        self.tracker = PairTracker(
            config, a.last[0], a.last[1], b.last[0], b.last[1]
        )
        self.kind: str | None = None
        self.begun = False
        self.closed = False

    def on_pair_move(self, t: float) -> list[ModalEvent]:
        if self.closed:
            return []
        ax, ay, _ = self.a.last
        bx, by, _ = self.b.last
        self.tracker.update(ax, ay, bx, by)
        events: list[ModalEvent] = []
        kind = self.tracker.classify()
        if kind is not None and not self.begun:
            self.kind = kind
            self.begun = True
            events.append(self._event("begin", t))
        elif self.begun:
            events.append(self._event("update", t))
        return events

    def on_close(self, t: float) -> list[ModalEvent]:
        if self.closed:
            return []
        self.closed = True
        if self.begun:
            return [self._event("end", t)]
        return []

    def _event(self, kind: str, t: float) -> ModalEvent:
        modality = "rotate" if self.kind == "rotate" else "pinch"
        return ModalEvent(
            key=self.base,
            modality=modality,
            kind=kind,
            t=t,
            class_name=self.a.class_name or self.b.class_name,
            data={
                "pair_kind": self.kind,
                "gap_change": self.tracker.gap_change,
                "turn": self.tracker.turn,
                "fingers": (self.a.key, self.b.key),
            },
        )

"""The gesture handler: collection, phase transition, manipulation.

"The [gesture] handler is responsible for collecting and inking the
gesture, determining when the phase transition occurs, classifying the
gesture, and executing the gesture's semantics." (§3.2)

The phase transition happens in one of the paper's three ways (§1):

1. the mouse button is released — the manipulation phase is omitted
   (recog and done still run, back to back);
2. a timeout fires because the user has held the mouse still for
   ``timeout`` seconds (the paper used 200 ms) with the button down;
3. eager recognition — the attached :class:`~repro.eager.EagerRecognizer`
   reports the gesture prefix unambiguous.

All three coexist on one handler: whichever condition is met first
transitions the interaction.
"""

from __future__ import annotations

import enum
from typing import Mapping

from typing import Callable

from ..eager import EagerRecognizer, EagerSession
from ..events import MouseEvent
from ..geometry import Point, Stroke
from ..mvc import DispatchContext, EventHandler, EventPredicate, View
from ..recognizer import GestureClassifier, RejectionPolicy, RejectionResult
from .semantics import GestureContext, GestureSemantics

__all__ = ["GestureHandler", "Phase", "DEFAULT_TIMEOUT"]

# "a timeout indicating that the user has not moved the mouse for 200
# milliseconds" (§1)
DEFAULT_TIMEOUT = 0.200


class Phase(enum.Enum):
    """Where a two-phase interaction currently stands."""

    IDLE = "idle"
    COLLECTING = "collecting"
    MANIPULATING = "manipulating"


class _InteractionState:
    """Per-interaction mutable state (one mouse, one interaction at a time)."""

    def __init__(self, view: View, dispatch: DispatchContext):
        self.view = view
        self.dispatch = dispatch
        self.points: list[Point] = []
        self.phase = Phase.COLLECTING
        self.context: GestureContext | None = None
        self.semantics: GestureSemantics | None = None
        self.timer_token: int | None = None
        self.eager_session: EagerSession | None = None


class GestureHandler(EventHandler):
    """An event handler implementing the two-phase interaction.

    "Each instance of a gesture handler recognizes its own set of
    gestures, and can have its own semantics associated with each
    gesture" — construct one with a trained recognizer and a mapping from
    class name to :class:`GestureSemantics`, then attach it to a view or
    a view class.
    """

    def __init__(
        self,
        recognizer: EagerRecognizer | GestureClassifier,
        semantics: Mapping[str, GestureSemantics] | None = None,
        predicate: EventPredicate | None = None,
        use_eager: bool = True,
        use_timeout: bool = True,
        timeout: float = DEFAULT_TIMEOUT,
        rejection_policy: RejectionPolicy | None = None,
        on_rejected: Callable[[Stroke, RejectionResult], None] | None = None,
    ):
        """
        Args:
            recognizer: an :class:`EagerRecognizer` (enables eager mode)
                or a plain :class:`GestureClassifier`.
            semantics: per-class recog/manip/done triples.
            predicate: event filter (e.g. gesture on one button only).
            use_eager / use_timeout / timeout: which phase-transition
                modes are armed.
            rejection_policy: when given, gestures classified at a
                timeout or mouse-up transition may be *rejected*
                (ambiguous or outlier input) — no semantics run.  A
                rejection at the timeout keeps collecting instead of
                transitioning, so the user can simply continue drawing.
            on_rejected: callback for rejected gestures (e.g. flash the
                ink red).
        """
        super().__init__(predicate)
        self.recognizer = recognizer
        self.semantics: dict[str, GestureSemantics] = dict(semantics or {})
        self.use_eager = use_eager and isinstance(recognizer, EagerRecognizer)
        self.use_timeout = use_timeout
        self.timeout = timeout
        self.rejection_policy = rejection_policy
        self.on_rejected = on_rejected
        self._state: _InteractionState | None = None

    # -- configuration -------------------------------------------------------

    def set_semantics(self, class_name: str, semantics: GestureSemantics) -> None:
        """Associate (or replace) the semantics of one gesture class."""
        self.semantics[class_name] = semantics

    # -- observable state (for inking and for tests) ---------------------------

    @property
    def phase(self) -> Phase:
        return self._state.phase if self._state is not None else Phase.IDLE

    @property
    def ink(self) -> Stroke:
        """The points collected so far — what the UI would draw as ink."""
        if self._state is None:
            return Stroke()
        return Stroke(self._state.points)

    # -- EventHandler protocol -------------------------------------------------

    def begin(
        self, event: MouseEvent, view: View, context: DispatchContext
    ) -> bool:
        if self._state is not None:
            # One mouse: a second press mid-interaction never reaches us
            # through the dispatcher; guard anyway.
            return False
        state = _InteractionState(view, context)
        state.points.append(event.point)
        if self.use_eager:
            state.eager_session = self.recognizer.session()
            state.eager_session.add_point(event.point)
        self._state = state
        self._arm_timeout(event)
        return True

    def update(self, event: MouseEvent, context: DispatchContext) -> None:
        state = self._state
        if state is None:
            return
        if state.phase is Phase.COLLECTING:
            state.points.append(event.point)
            self._arm_timeout(event)
            if state.eager_session is not None:
                decided = state.eager_session.add_point(event.point)
                if decided is not None:
                    self._transition(decided, event.point, eagerly=True)
        elif state.phase is Phase.MANIPULATING:
            assert state.context is not None
            state.context.current = event.point
            state.semantics.on_manipulate(state.context)

    def end(self, event: MouseEvent, context: DispatchContext) -> None:
        state = self._state
        if state is None:
            return
        self._disarm_timeout()
        if state.phase is Phase.COLLECTING:
            # Transition mode 1: button released — classify, run recog,
            # skip manipulation.
            class_name = self._classify_or_reject(Stroke(state.points))
            if class_name is None:
                self._state = None
                return
            self._transition(class_name, event.point, eagerly=False)
        if state.context is not None:
            state.context.current = event.point
            state.semantics.on_done(state.context)
        self._state = None

    # -- the phase transition ---------------------------------------------------

    def _transition(
        self, class_name: str, at_point: Point, eagerly: bool
    ) -> None:
        """Enter the manipulation phase with a recognized gesture."""
        state = self._state
        assert state is not None
        self._disarm_timeout()
        gesture = Stroke(state.points)
        state.phase = Phase.MANIPULATING
        state.semantics = self.semantics.get(class_name, GestureSemantics())
        state.context = GestureContext(
            view=state.view,
            dispatch=state.dispatch,
            gesture=gesture,
            class_name=class_name,
            current=at_point,
            eagerly_recognized=eagerly,
        )
        state.semantics.on_recognized(state.context)

    def _classify(self, gesture: Stroke) -> str:
        if isinstance(self.recognizer, EagerRecognizer):
            return self.recognizer.classify_full(gesture)
        return self.recognizer.classify(gesture)

    def _classify_or_reject(self, gesture: Stroke) -> str | None:
        """Classify, honouring the rejection policy if one is set."""
        if self.rejection_policy is None:
            return self._classify(gesture)
        classifier = self.recognizer
        if isinstance(classifier, EagerRecognizer):
            classifier = classifier.full_classifier
        result = classifier.classify_with_rejection(
            gesture, self.rejection_policy
        )
        if result.rejected:
            if self.on_rejected is not None:
                self.on_rejected(gesture, result)
            return None
        return result.class_name

    # -- the motionless timeout ---------------------------------------------------

    def _arm_timeout(self, event: MouseEvent) -> None:
        """(Re)start the stillness clock: each mouse sample resets it."""
        if not self.use_timeout:
            return
        state = self._state
        self._disarm_timeout()
        state.timer_token = state.dispatch.queue.schedule_timer(
            self.timeout, self._timeout_fired
        )

    def _disarm_timeout(self) -> None:
        state = self._state
        if state is not None and state.timer_token is not None:
            state.dispatch.queue.cancel_timer(state.timer_token)
            state.timer_token = None

    def _timeout_fired(self, timer) -> None:
        """Transition mode 2: the mouse sat still with the button down.

        A rejection here means "can't tell yet": the handler keeps
        collecting rather than transitioning, so the user may continue
        the gesture (or release, giving the mouse-up path a final say).
        """
        state = self._state
        if state is None or state.phase is not Phase.COLLECTING:
            return
        state.timer_token = None
        class_name = self._classify_or_reject(Stroke(state.points))
        if class_name is None:
            return
        self._transition(class_name, state.points[-1], eagerly=False)

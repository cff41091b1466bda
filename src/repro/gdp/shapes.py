"""GDP's shape models.

"GDP is capable of producing drawings made with lines, rectangles,
ellipses, and text" (§2), plus composite objects created by the group
gesture.  Shapes are GRANDMA models: pure state plus change
notification, displayed by the views in :mod:`repro.gdp.views` and
mutated by gesture semantics and drag handlers.

Every shape supports the operations the gesture set needs: translation
(move/copy placement), rotate-scale about an arbitrary center, hit
testing (delete/edit/dot target finding), cloning (copy), and control
points (the edit gesture "brings up control points on an object [that]
can be dragged around directly, scaling the object accordingly").
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator

from ..geometry import Affine, BoundingBox, Point, point_segment_distance
from ..mvc import Model

__all__ = [
    "Shape",
    "LineShape",
    "RectShape",
    "EllipseShape",
    "TextShape",
    "GroupShape",
    "ControlPoint",
]

_shape_ids = itertools.count(1)


class ControlPoint(Model):
    """A draggable handle exposed by the edit gesture.

    Dragging it moves one geometric degree of freedom of its shape (a
    line endpoint, a rectangle corner, an ellipse radius).  It is a model
    in its own right so a drag handler can grab it.
    """

    def __init__(
        self,
        name: str,
        get_position: Callable[[], tuple[float, float]],
        set_position: Callable[[float, float], None],
    ):
        super().__init__()
        self.name = name
        self._get = get_position
        self._set = set_position

    @property
    def position(self) -> tuple[float, float]:
        return self._get()

    def move_by(self, dx: float, dy: float) -> None:
        x, y = self._get()
        self._set(x + dx, y + dy)
        self.changed()


class Shape(Model):
    """Base class of everything on a GDP canvas."""

    def __init__(self) -> None:
        super().__init__()
        self.id = next(_shape_ids)

    # -- geometry every shape answers ------------------------------------------

    def bounds(self) -> BoundingBox:
        raise NotImplementedError

    def hit(self, x: float, y: float, tolerance: float = 6.0) -> bool:
        """Is ``(x, y)`` on (or within tolerance of) this shape?"""
        raise NotImplementedError

    def reference_point(self) -> Point:
        """A representative point (used for enclosure tests)."""
        return self.bounds().center

    # -- the operations gestures perform -----------------------------------------

    def move_by(self, dx: float, dy: float) -> None:
        self.apply_transform(Affine.translation(dx, dy))

    def rotate_scale_about(
        self, cx: float, cy: float, angle: float, scale: float
    ) -> None:
        """The rotate-scale gesture's manipulation primitive."""
        inner = Affine.rotation(angle) @ Affine.scaling(scale)
        self.apply_transform(Affine.about(Point(cx, cy), inner))

    def apply_transform(self, transform: Affine) -> None:
        raise NotImplementedError

    def clone(self) -> "Shape":
        """A deep copy with a fresh id (the copy gesture)."""
        raise NotImplementedError

    def control_points(self) -> list[ControlPoint]:
        """Handles shown by the edit gesture.  Default: none."""
        return []


class LineShape(Shape):
    """A line segment with adjustable endpoints and thickness.

    The modified GDP mapped the line *gesture's length* to thickness
    (§2); the attribute exists so that variant can be expressed.
    """

    def __init__(
        self, x1: float, y1: float, x2: float, y2: float, thickness: float = 1.0
    ):
        super().__init__()
        self.endpoints = [(float(x1), float(y1)), (float(x2), float(y2))]
        self.thickness = float(thickness)

    def set_endpoint(self, index: int, x: float, y: float) -> None:
        """The paper's ``setEndpoint:N x:y:`` message."""
        self.endpoints[index] = (float(x), float(y))
        self.changed()

    def bounds(self) -> BoundingBox:
        box = BoundingBox()
        for x, y in self.endpoints:
            box.extend(x, y)
        return box

    def hit(self, x: float, y: float, tolerance: float = 6.0) -> bool:
        (x1, y1), (x2, y2) = self.endpoints
        return (
            point_segment_distance(x, y, x1, y1, x2, y2)
            <= tolerance + self.thickness / 2.0
        )

    def apply_transform(self, transform: Affine) -> None:
        self.endpoints = [transform.apply_xy(x, y) for x, y in self.endpoints]
        self.changed()

    def clone(self) -> "LineShape":
        (x1, y1), (x2, y2) = self.endpoints
        return LineShape(x1, y1, x2, y2, self.thickness)

    def control_points(self) -> list[ControlPoint]:
        def make(i: int) -> ControlPoint:
            return ControlPoint(
                name=f"endpoint{i}",
                get_position=lambda: self.endpoints[i],
                set_position=lambda x, y: self.set_endpoint(i, x, y),
            )

        return [make(0), make(1)]


class RectShape(Shape):
    """A rectangle stored as two opposite corners plus a rotation.

    The modified GDP derived the rectangle's orientation from the initial
    angle of the gesture (§2); ``angle`` carries that.  ``set_corner``
    implements the paper's rubberbanding: "the manip semantics makes the
    other corner of the rectangle <currentX>, <currentY>".
    """

    def __init__(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        angle: float = 0.0,
    ):
        super().__init__()
        self.corners = [(float(x1), float(y1)), (float(x2), float(y2))]
        self.angle = float(angle)

    def set_corner(self, index: int, x: float, y: float) -> None:
        """The paper's ``setEndpoint:N`` on the rectangle model."""
        self.corners[index] = (float(x), float(y))
        self.changed()

    def corner_points(self) -> list[tuple[float, float]]:
        """All four corners, honouring the rotation about the center."""
        (x1, y1), (x2, y2) = self.corners
        cx, cy = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        raw = [(x1, y1), (x2, y1), (x2, y2), (x1, y2)]
        if self.angle == 0.0:
            return raw
        rot = Affine.about(Point(cx, cy), Affine.rotation(self.angle))
        return [rot.apply_xy(x, y) for x, y in raw]

    def bounds(self) -> BoundingBox:
        box = BoundingBox()
        for x, y in self.corner_points():
            box.extend(x, y)
        return box

    def hit(self, x: float, y: float, tolerance: float = 6.0) -> bool:
        corners = self.corner_points()
        for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
            if point_segment_distance(x, y, ax, ay, bx, by) <= tolerance:
                return True
        return False

    def apply_transform(self, transform: Affine) -> None:
        """Apply a similarity transform (translate / rotate / uniform scale).

        The stored corners live in the rectangle's unrotated frame, so the
        transform is decomposed: its rotation folds into ``angle``, its
        scale spreads the corners about the (relocated) center.  A
        non-uniform scale is approximated by ``sqrt(|det|)`` — GDP's
        gestures only ever produce similarities.
        """
        theta = math.atan2(transform.c, transform.a)
        scale = math.sqrt(abs(transform.determinant))
        (x1, y1), (x2, y2) = self.corners
        cx, cy = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        new_cx, new_cy = transform.apply_xy(cx, cy)
        self.corners = [
            (new_cx + scale * (x - cx), new_cy + scale * (y - cy))
            for x, y in self.corners
        ]
        self.angle += theta
        self.changed()

    def clone(self) -> "RectShape":
        (x1, y1), (x2, y2) = self.corners
        return RectShape(x1, y1, x2, y2, self.angle)

    def control_points(self) -> list[ControlPoint]:
        def make(i: int) -> ControlPoint:
            return ControlPoint(
                name=f"corner{i}",
                get_position=lambda: self.corners[i],
                set_position=lambda x, y: self.set_corner(i, x, y),
            )

        return [make(0), make(1)]


class EllipseShape(Shape):
    """An axis-aligned ellipse: center plus two radii.

    Figure 3: the ellipse gesture fixes the *center* at recognition time;
    size and eccentricity are manipulated afterwards.
    """

    def __init__(self, cx: float, cy: float, rx: float = 1.0, ry: float = 1.0):
        super().__init__()
        self.center = (float(cx), float(cy))
        self.rx = max(float(rx), 1e-9)
        self.ry = max(float(ry), 1e-9)

    def set_radii(self, rx: float, ry: float) -> None:
        """Size and eccentricity in one call (the manip semantics)."""
        self.rx = max(float(abs(rx)), 1e-9)
        self.ry = max(float(abs(ry)), 1e-9)
        self.changed()

    def bounds(self) -> BoundingBox:
        cx, cy = self.center
        return BoundingBox(cx - self.rx, cy - self.ry, cx + self.rx, cy + self.ry)

    def hit(self, x: float, y: float, tolerance: float = 6.0) -> bool:
        cx, cy = self.center
        # Normalized radial coordinate: 1.0 is exactly on the outline.
        u = (x - cx) / self.rx
        v = (y - cy) / self.ry
        r = math.hypot(u, v)
        # Tolerance in normalized units, using the smaller radius so thin
        # ellipses stay pickable.
        slack = tolerance / min(self.rx, self.ry)
        return abs(r - 1.0) <= slack

    def apply_transform(self, transform: Affine) -> None:
        self.center = transform.apply_xy(*self.center)
        # Scale radii by the transform's average stretch (GDP's ellipses
        # stay axis-aligned; rotation only relocates them).
        sx = math.hypot(transform.a, transform.c)
        sy = math.hypot(transform.b, transform.d)
        self.rx = max(self.rx * sx, 1e-9)
        self.ry = max(self.ry * sy, 1e-9)
        self.changed()

    def clone(self) -> "EllipseShape":
        cx, cy = self.center
        return EllipseShape(cx, cy, self.rx, self.ry)

    def control_points(self) -> list[ControlPoint]:
        def get_rx_handle() -> tuple[float, float]:
            return (self.center[0] + self.rx, self.center[1])

        def set_rx_handle(x: float, y: float) -> None:
            self.set_radii(x - self.center[0], self.ry)

        def get_ry_handle() -> tuple[float, float]:
            return (self.center[0], self.center[1] + self.ry)

        def set_ry_handle(x: float, y: float) -> None:
            self.set_radii(self.rx, y - self.center[1])

        return [
            ControlPoint("rx", get_rx_handle, set_rx_handle),
            ControlPoint("ry", get_ry_handle, set_ry_handle),
        ]


class TextShape(Shape):
    """A text label anchored at a point."""

    # Nominal glyph cell used for bounds/hit math (display-independent).
    CHAR_WIDTH = 7.0
    CHAR_HEIGHT = 12.0

    def __init__(self, x: float, y: float, text: str = "text"):
        super().__init__()
        self.position = (float(x), float(y))
        self.text = text

    def set_position(self, x: float, y: float) -> None:
        self.position = (float(x), float(y))
        self.changed()

    def bounds(self) -> BoundingBox:
        x, y = self.position
        return BoundingBox(
            x, y - self.CHAR_HEIGHT, x + self.CHAR_WIDTH * max(len(self.text), 1), y
        )

    def hit(self, x: float, y: float, tolerance: float = 6.0) -> bool:
        return self.bounds().inflated(tolerance).contains(x, y)

    def apply_transform(self, transform: Affine) -> None:
        self.position = transform.apply_xy(*self.position)
        self.changed()

    def clone(self) -> "TextShape":
        x, y = self.position
        return TextShape(x, y, self.text)


class GroupShape(Shape):
    """A composite created by the group gesture.

    "The group gesture generates a composite object out of the enclosed
    objects; additional objects may be added to the group by touching
    them during the manipulation phase."
    """

    def __init__(self, members: list[Shape] | None = None):
        super().__init__()
        self.members: list[Shape] = list(members or [])

    def add_member(self, shape: Shape) -> None:
        if shape is not self and shape not in self.members:
            self.members.append(shape)
            self.changed()

    def remove_member(self, shape: Shape) -> None:
        if shape in self.members:
            self.members.remove(shape)
            self.changed()

    def flattened(self) -> Iterator[Shape]:
        """Leaf shapes of the composite, depth first."""
        for member in self.members:
            if isinstance(member, GroupShape):
                yield from member.flattened()
            else:
                yield member

    def bounds(self) -> BoundingBox:
        box = BoundingBox()
        for member in self.members:
            box = box.union(member.bounds())
        return box

    def hit(self, x: float, y: float, tolerance: float = 6.0) -> bool:
        return any(m.hit(x, y, tolerance) for m in self.members)

    def apply_transform(self, transform: Affine) -> None:
        for member in self.members:
            member.apply_transform(transform)
        self.changed()

    def clone(self) -> "GroupShape":
        return GroupShape([m.clone() for m in self.members])

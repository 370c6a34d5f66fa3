"""Planar geometry: poses, frame composition, and camera-to-ground projection.

Angle convention used across the whole package: counterclockwise positive,
normalized to (-pi, pi].  All types here are immutable values and every
function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Base class for geometry errors."""


class DegenerateDepth(GeometryError):
    """Depth reading shorter than the camera mount height: no ground solution."""


class CoincidentPoint(GeometryError):
    """Target coincides with the observer, direction undefined."""


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi].

    The +pi endpoint is kept, -pi maps to +pi, so wrap_angle(-pi) == pi.
    """
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True, slots=True)
class GroundPoint:
    """A point on the ground plane, map frame, meters."""

    x: float
    y: float


@dataclass(frozen=True, slots=True)
class Pose2D:
    """Planar pose (x, y, theta) with theta normalized on construction."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def position(self) -> GroundPoint:
        return GroundPoint(self.x, self.y)


@dataclass(frozen=True)
class CameraModel:
    """Forward-facing pinhole camera rigidly mounted on the robot.

    Attributes:
        image_width: horizontal resolution, pixels.
        image_height: vertical resolution, pixels.
        hfov: horizontal field of view, radians, in (0, pi).
        vfov: vertical field of view, radians, in (0, pi).
        mount_height: optical center height above the ground plane, meters.
        forward_offset: optical center offset along the robot heading, meters.
    """

    image_width: int = 640
    image_height: int = 480
    hfov: float = 1.5184
    vfov: float = 1.6
    mount_height: float = 0.2
    forward_offset: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.hfov < math.pi) or not (0.0 < self.vfov < math.pi):
            raise ValueError("fields of view must lie in (0, pi)")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.mount_height < 0.0:
            raise ValueError("mount_height must be non-negative")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned detector box in pixel coordinates plus a depth sample.

    Attributes:
        u_min, u_max: horizontal pixel extent, u grows rightward.
        v_min, v_max: vertical pixel extent, v grows downward.
        depth: straight-line distance from the optical center to the object,
            meters (the depth channel sample at the box center).
        confidence: detector score in [0, 1].
    """

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    depth: float
    confidence: float = 1.0

    def center_u(self) -> float:
        return 0.5 * (self.u_min + self.u_max)

    def center_v(self) -> float:
        return 0.5 * (self.v_min + self.v_max)


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"
    AHEAD = "ahead"


def distance(a: GroundPoint, b: GroundPoint) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def compose(base: Pose2D, offset: Pose2D) -> Pose2D:
    """Apply `offset` expressed in the frame of `base`.

    Returns the pose of the offset frame in the map frame; the translation
    of `offset` is rotated by base.theta, headings add (wrapped).
    """
    c = math.cos(base.theta)
    s = math.sin(base.theta)
    return Pose2D(
        base.x + c * offset.x - s * offset.y,
        base.y + s * offset.x + c * offset.y,
        base.theta + offset.theta,
    )


def inverse(p: Pose2D) -> Pose2D:
    """Inverse transform, so compose(p, inverse(p)) is the identity."""
    c = math.cos(p.theta)
    s = math.sin(p.theta)
    return Pose2D(-(c * p.x + s * p.y), s * p.x - c * p.y, -p.theta)


def bearing_from_pixel(box: BoundingBox, cam: CameraModel) -> float:
    """Horizontal bearing of a box center relative to the camera axis.

    Positive bearing is to the left of the heading.  Uses the pinhole
    relation: a pixel column maps to the tangent plane at unit distance,
    so the bearing is atan of the normalized offset from the image center
    scaled by tan(hfov/2).
    """
    u_c = box.center_u()
    t = (0.5 - u_c / cam.image_width) * 2.0 * math.tan(0.5 * cam.hfov)
    return math.atan(t)


def project_detection(robot: Pose2D, box: BoundingBox, cam: CameraModel) -> GroundPoint:
    """Project a detection onto the ground plane in the map frame.

    The depth sample is the slant range from the optical center; the ground
    range is its projection through the mount height.  The detection ray
    leaves the camera at `bearing_from_pixel` relative to the robot heading.

    Raises:
        DegenerateDepth: if box.depth < cam.mount_height, which has no
            ground intersection.
    """
    if box.depth < cam.mount_height:
        raise DegenerateDepth(
            f"depth {box.depth:.3f} m is shorter than mount height {cam.mount_height:.3f} m"
        )
    ground_range = math.sqrt(max(box.depth * box.depth - cam.mount_height * cam.mount_height, 0.0))
    bearing = bearing_from_pixel(box, cam)
    c = math.cos(robot.theta)
    s = math.sin(robot.theta)
    cam_x = robot.x + c * cam.forward_offset
    cam_y = robot.y + s * cam.forward_offset
    ray = robot.theta + bearing
    return GroundPoint(cam_x + ground_range * math.cos(ray), cam_y + ground_range * math.sin(ray))


def ground_point_to_pixel(
    robot: Pose2D, point: GroundPoint, cam: CameraModel
) -> tuple[float, float, float] | None:
    """Inverse rendering: where would a ground point appear in the image.

    Returns (u_center, v_center, depth) for a visible point, or None when
    the point falls outside the camera frustum (behind, beyond the
    horizontal FOV, or above the vertical FOV given a level optical axis).
    This is the exact inverse of `project_detection` for the box center.
    """
    c = math.cos(robot.theta)
    s = math.sin(robot.theta)
    cam_x = robot.x + c * cam.forward_offset
    cam_y = robot.y + s * cam.forward_offset
    dx = point.x - cam_x
    dy = point.y - cam_y
    ground_range = math.hypot(dx, dy)
    if ground_range < 1e-12:
        return None
    bearing = wrap_angle(math.atan2(dy, dx) - robot.theta)
    if abs(bearing) >= 0.5 * cam.hfov:
        return None
    u_c = cam.image_width * (0.5 - math.tan(bearing) / (2.0 * math.tan(0.5 * cam.hfov)))
    depression = math.atan2(cam.mount_height, ground_range)
    if depression >= 0.5 * cam.vfov:
        return None
    v_c = cam.image_height * (0.5 + math.tan(depression) / (2.0 * math.tan(0.5 * cam.vfov)))
    depth = math.hypot(ground_range, cam.mount_height)
    return u_c, v_c, depth


def left_or_right(robot: Pose2D, target: GroundPoint) -> Side:
    """Which side of the robot heading the target lies on.

    The sign of the 2D cross product heading x (target - position) decides;
    magnitudes below 1e-12 count as dead ahead (or dead behind).
    """
    dx = target.x - robot.x
    dy = target.y - robot.y
    cross = math.cos(robot.theta) * dy - math.sin(robot.theta) * dx
    if abs(cross) < 1e-12:
        return Side.AHEAD
    return Side.LEFT if cross > 0.0 else Side.RIGHT


def angle_to(robot: Pose2D, target: GroundPoint) -> float:
    """Signed heading error from the robot heading to the target, (-pi, pi].

    Raises:
        CoincidentPoint: if the target is within 1e-9 m of the robot.
    """
    dx = target.x - robot.x
    dy = target.y - robot.y
    if math.hypot(dx, dy) < 1e-9:
        raise CoincidentPoint("target coincides with robot position")
    return wrap_angle(math.atan2(dy, dx) - robot.theta)

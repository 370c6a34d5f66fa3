import dataclasses
import math

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littersim.geometry import (
    BoundingBox,
    CameraModel,
    CoincidentPoint,
    DegenerateDepth,
    GroundPoint,
    Pose2D,
    Side,
    angle_to,
    bearing_from_pixel,
    distance,
    ground_point_to_pixel,
    left_or_right,
    project_detection,
    wrap_angle,
)


def test_wrap_angle_range_and_endpoint():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(3.0 * math.pi) - math.pi) < 1e-12
    for k in range(-7, 8):
        a = 0.37 + k * 2.0 * math.pi
        assert abs(wrap_angle(a) - 0.37) < 1e-9
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50.0, 50.0, size=500):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        # same direction on the unit circle
        assert abs(math.sin(w) - math.sin(a)) < 1e-9
        assert abs(math.cos(w) - math.cos(a)) < 1e-9


def test_pose_normalizes_theta_on_construction():
    p = Pose2D(1.0, 2.0, 5.0 * math.pi)
    assert abs(p.theta - math.pi) < 1e-12
    assert p.position == GroundPoint(1.0, 2.0)


def test_pose_keeps_its_dataclass_behaviour():
    for theta in (0.0, -0.0, math.pi, -math.pi, 7.5, -1e300, 3.0 * math.pi):
        p = Pose2D(1.5, -2.0, theta)
        assert repr(p.theta) == repr(wrap_angle(theta))
    p = Pose2D(x=1.0, y=2.0, theta=7.0)
    assert p == Pose2D(1.0, 2.0, 7.0) and hash(p) == hash(Pose2D(1.0, 2.0, 7.0))
    assert repr(p) == f"Pose2D(x=1.0, y=2.0, theta={wrap_angle(7.0)!r})"
    assert Pose2D(1.0, 2.0) == Pose2D(1.0, 2.0, 0.0)
    assert dataclasses.replace(p, theta=-7.0) == Pose2D(1.0, 2.0, -7.0)
    assert dataclasses.replace(p, x=3.0) == Pose2D(3.0, 2.0, 7.0)
    assert dataclasses.astuple(p) == (1.0, 2.0, wrap_angle(7.0))
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.theta = 0.0


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_infinity=False))
@example(math.pi)
@example(-math.pi)
@example(math.nextafter(math.pi, 0.0))
@example(math.nextafter(-math.pi, 0.0))
@example(math.nextafter(math.pi, math.inf))
@example(math.nextafter(-math.pi, -math.inf))
@example(2.0 * math.pi)
@example(-2.0 * math.pi)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(1e-300)
@example(1e300)
@example(-1e300)
@example(1.7976931348623157e308)
def test_pose_stores_the_bits_wrap_angle_gives(a):
    # Pose2D skips wrap_angle for a theta already in (-pi, pi]; the stored
    # float must be the one wrap_angle would have returned, sign of zero
    # and NaN included
    assert _bits(Pose2D(0.0, 0.0, a).theta) == _bits(wrap_angle(a))


@pytest.mark.parametrize("a", [math.inf, -math.inf])
def test_pose_with_an_infinite_theta_raises_as_fmod_does(a):
    with pytest.raises(ValueError) as fmod_error:
        math.fmod(a, 2.0 * math.pi)
    with pytest.raises(ValueError) as pose_error:
        Pose2D(0.0, 0.0, a)
    assert str(pose_error.value) == str(fmod_error.value)


def test_bearing_from_pixel_hand_values():
    cam = CameraModel()
    mid = BoundingBox(310.0, 330.0, 100.0, 120.0, 2.0)
    assert abs(bearing_from_pixel(mid, cam)) < 1e-12
    # left image edge: u_c = 0 -> bearing = +hfov/2 by the tangent-plane map
    left = BoundingBox(-10.0, 10.0, 0.0, 10.0, 2.0)
    assert abs(bearing_from_pixel(left, cam) - math.atan(math.tan(0.5 * cam.hfov))) < 1e-12
    # quarter off center: tan(bearing) = 0.5 * tan(hfov/2)
    quarter = BoundingBox(150.0, 170.0, 0.0, 10.0, 2.0)
    want = math.atan(0.5 * math.tan(0.5 * cam.hfov))
    assert abs(bearing_from_pixel(quarter, cam) - want) < 1e-12


def test_projection_round_trip_random_points():
    cam = CameraModel()
    rng = np.random.default_rng(3)
    n = 0
    while n < 1000:
        robot = Pose2D(*rng.uniform(-4, 4, size=2), float(rng.uniform(-4, 4)))
        point = GroundPoint(*rng.uniform(-8, 8, size=2))
        pix = ground_point_to_pixel(robot, point, cam)
        if pix is None:
            continue
        u_c, v_c, depth = pix
        box = BoundingBox(u_c - 5.0, u_c + 5.0, v_c - 5.0, v_c + 5.0, depth)
        back = project_detection(robot, box, cam)
        assert distance(back, point) < 1e-9
        n += 1


def test_project_detection_rejects_short_depth():
    cam = CameraModel()
    box = BoundingBox(0.0, 10.0, 0.0, 10.0, 0.5 * cam.mount_height)
    with pytest.raises(DegenerateDepth):
        project_detection(Pose2D(0, 0, 0), box, cam)


def test_ground_point_to_pixel_frustum_cuts():
    cam = CameraModel()
    robot = Pose2D(0.0, 0.0, 0.0)
    assert ground_point_to_pixel(robot, GroundPoint(-1.0, 0.0), cam) is None  # behind
    assert ground_point_to_pixel(robot, GroundPoint(0.5, 5.0), cam) is None  # far left
    # too close: depression angle exceeds the half vfov
    near = cam.mount_height / math.tan(0.5 * cam.vfov) * 0.9
    assert ground_point_to_pixel(robot, GroundPoint(cam.forward_offset + near, 0.0), cam) is None
    # solid middle distance is visible
    assert ground_point_to_pixel(robot, GroundPoint(2.0, 0.0), cam) is not None


def test_left_or_right_sides():
    robot = Pose2D(0.0, 0.0, 0.0)
    assert left_or_right(robot, GroundPoint(1.0, 1.0)) is Side.LEFT
    assert left_or_right(robot, GroundPoint(1.0, -1.0)) is Side.RIGHT
    assert left_or_right(robot, GroundPoint(3.0, 0.0)) is Side.AHEAD
    # heading rotated: same target flips sides
    turned = Pose2D(0.0, 0.0, math.pi / 2.0)
    assert left_or_right(turned, GroundPoint(1.0, 1.0)) is Side.RIGHT


def test_angle_to_values_and_coincident():
    robot = Pose2D(1.0, 1.0, math.pi / 2.0)
    assert abs(angle_to(robot, GroundPoint(1.0, 3.0))) < 1e-12
    assert abs(angle_to(robot, GroundPoint(0.0, 1.0)) - math.pi / 2.0) < 1e-12
    with pytest.raises(CoincidentPoint):
        angle_to(robot, GroundPoint(1.0, 1.0))


def test_camera_model_validation():
    with pytest.raises(ValueError):
        CameraModel(hfov=0.0)
    with pytest.raises(ValueError):
        CameraModel(vfov=3.5)
    with pytest.raises(ValueError):
        CameraModel(mount_height=-0.1)
    with pytest.raises(ValueError):
        CameraModel(image_width=0)

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littersim.geometry import GroundPoint, Pose2D, wrap_angle
from littersim.pickup import (
    ACTIVATION_RADIUS,
    MotionCommand,
    PickupConfig,
    PickupPhase,
    PickupState,
    TooFar,
    start_pickup,
    step,
    turn_toward,
)


def advance(pose, cmd, dt):
    """Exact unicycle step for driving the FSM in tests."""
    if abs(cmd.omega) < 1e-12:
        return Pose2D(
            pose.x + cmd.v * dt * math.cos(pose.theta),
            pose.y + cmd.v * dt * math.sin(pose.theta),
            pose.theta,
        )
    r = cmd.v / cmd.omega
    t1 = pose.theta + cmd.omega * dt
    return Pose2D(
        pose.x + r * (math.sin(t1) - math.sin(pose.theta)),
        pose.y - r * (math.cos(t1) - math.cos(pose.theta)),
        t1,
    )


def seg_point_dist(ax, ay, bx, by, px, py):
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / L2))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def run_episode(pose, trash, cfg, dt=0.1, view_halfangle=0.1, max_ticks=1000):
    """Drive a full episode with an ideal camera that reports the trash
    whenever the robot roughly faces it.  Returns the final state, the pose
    history and the per-tick commands."""
    state = start_pickup(pose, trash, cfg)
    poses = [pose]
    cmds = []
    states = [state]
    for _ in range(max_ticks):
        bearing = wrap_angle(math.atan2(trash.y - pose.y, trash.x - pose.x) - pose.theta)
        dets = [(trash, 0.9)] if abs(bearing) <= view_halfangle else []
        state, cmd = step(state, pose, dets, cfg, dt)
        cmds.append(cmd)
        states.append(state)
        pose = advance(pose, cmd, dt)
        poses.append(pose)
        if state.phase in (PickupPhase.DONE, PickupPhase.TIMED_OUT):
            break
    return state, poses, cmds, states


def swept(poses, cmds, point, halfwidth):
    for i, cmd in enumerate(cmds):
        if not cmd.mechanism_on:
            continue
        a, b = poses[i], poses[i + 1]
        if seg_point_dist(a.x, a.y, b.x, b.y, point.x, point.y) <= halfwidth:
            return True
    return False


def test_full_episode_collects_with_perfect_detections():
    cfg = PickupConfig()
    trash = GroundPoint(1.2, 0.3)
    start = Pose2D(0.0, 0.0, -math.pi / 2)  # facing away; must spin to find it
    state, poses, cmds, states = run_episode(start, trash, cfg)
    assert state.phase is PickupPhase.DONE
    assert swept(poses, cmds, trash, cfg.brush_halfwidth)
    # drive carried the robot past the goal along the locked axis
    ux, uy = state.axis
    last = poses[-1]
    assert (last.x - state.drive_goal.x) * ux + (last.y - state.drive_goal.y) * uy >= 0.0


def test_phase_sequence_is_monotone():
    cfg = PickupConfig()
    trash = GroundPoint(1.2, 0.3)
    _, _, _, states = run_episode(Pose2D(0.0, 0.0, -math.pi / 2), trash, cfg)
    order = [
        PickupPhase.SPIN_SEARCH,
        PickupPhase.ALIGN,
        PickupPhase.DRIVE_THROUGH,
        PickupPhase.DONE,
    ]
    ranks = [order.index(s.phase) for s in states]
    assert ranks == sorted(ranks)
    assert set(ranks) == {0, 1, 2, 3}  # every phase actually happened


def test_mechanism_runs_only_while_driving_through():
    cfg = PickupConfig()
    trash = GroundPoint(1.2, 0.3)
    _, _, cmds, states = run_episode(Pose2D(0.0, 0.0, -math.pi / 2), trash, cfg)
    for cmd, after in zip(cmds, states[1:]):
        assert cmd.mechanism_on == (
            after.phase is PickupPhase.DRIVE_THROUGH and cmd.v > 0.0
        )


def test_spin_direction_follows_expected_side():
    cfg = PickupConfig()
    robot = Pose2D(0.0, 0.0, 0.0)
    left = start_pickup(robot, GroundPoint(1.0, 0.5), cfg)
    assert left.spin_omega == cfg.spin_rate
    right = start_pickup(robot, GroundPoint(1.0, -0.5), cfg)
    assert right.spin_omega == -cfg.spin_rate
    ahead = start_pickup(robot, GroundPoint(1.0, 0.0), cfg)
    assert ahead.spin_omega == cfg.spin_rate  # dead ahead counts as left
    # the search command actually uses it
    st, cmd = step(left, robot, [], cfg, 0.1)
    assert cmd == MotionCommand(0.0, cfg.spin_rate)
    assert st.phase is PickupPhase.SPIN_SEARCH


def test_too_far_raises():
    cfg = PickupConfig()
    robot = Pose2D(0.0, 0.0, 0.0)
    with pytest.raises(TooFar):
        start_pickup(robot, GroundPoint(3.0, 0.0), cfg)
    # boundary: activation radius plus tolerance is still allowed
    d = ACTIVATION_RADIUS + 0.25
    start_pickup(robot, GroundPoint(d - 1e-9, 0.0), cfg)
    with pytest.raises(TooFar):
        start_pickup(robot, GroundPoint(d + 1e-6, 0.0), cfg)


def test_timeout_boundary_is_strict():
    cfg = PickupConfig(timeout=30.0)
    robot = Pose2D(0.0, 0.0, 0.0)
    state = start_pickup(robot, GroundPoint(1.0, 0.0), cfg)
    dt = 0.5
    for _ in range(60):  # brings elapsed to exactly 30.0
        state, cmd = step(state, robot, [], cfg, dt)
    assert state.phase is PickupPhase.SPIN_SEARCH
    assert state.elapsed == pytest.approx(30.0)
    state, cmd = step(state, robot, [], cfg, dt)
    assert state.phase is PickupPhase.TIMED_OUT
    assert cmd == MotionCommand()
    # terminal states hold and keep commanding a stop
    state2, cmd2 = step(state, robot, [(GroundPoint(1.0, 0.0), 1.0)], cfg, dt)
    assert state2.phase is PickupPhase.TIMED_OUT
    assert cmd2 == MotionCommand()


def test_lock_takes_first_confident_detection():
    cfg = PickupConfig(confidence_threshold=0.6)
    robot = Pose2D(0.0, 0.0, 0.0)
    state = start_pickup(robot, GroundPoint(1.0, 0.0), cfg)
    weak = GroundPoint(0.5, 0.0)
    first = GroundPoint(1.0, 0.2)
    stronger = GroundPoint(1.0, -0.2)
    state, cmd = step(state, robot, [(weak, 0.3), (first, 0.7), (stronger, 0.99)], cfg, 0.1)
    assert state.phase is PickupPhase.ALIGN
    assert state.locked_target == first
    assert cmd == MotionCommand()  # lock tick stops to turn next
    # goal is overshoot meters past the lock along the robot-to-target ray
    norm = math.hypot(first.x, first.y)
    ux, uy = first.x / norm, first.y / norm
    assert state.drive_goal.x == pytest.approx(first.x + cfg.overshoot * ux)
    assert state.drive_goal.y == pytest.approx(first.y + cfg.overshoot * uy)
    assert state.axis == (pytest.approx(ux), pytest.approx(uy))


def test_lock_never_changes_after_acquisition():
    cfg = PickupConfig()
    robot = Pose2D(0.0, 0.0, 0.0)
    state = start_pickup(robot, GroundPoint(1.0, 0.0), cfg)
    target = GroundPoint(1.0, 0.0)
    state, _ = step(state, robot, [(target, 0.9)], cfg, 0.1)
    locked = state.locked_target
    decoy = [(GroundPoint(0.2, 0.7), 1.0)]
    for _ in range(10):
        state, cmd = step(state, robot, decoy, cfg, 0.1)
        assert state.locked_target == locked
        if state.phase is PickupPhase.DRIVE_THROUGH:
            assert cmd.v == cfg.drive_speed


def test_align_turn_is_capped_and_deadbeat():
    cfg = PickupConfig(reidentify=False)
    # target 90 degrees to the left: first align ticks saturate at spin_rate
    robot = Pose2D(0.0, 0.0, 0.0)
    state = start_pickup(robot, GroundPoint(0.0, 1.0), cfg)
    assert state.phase is PickupPhase.ALIGN
    dt = 0.1
    state, cmd = step(state, robot, [], cfg, dt)
    assert cmd.v == 0.0
    assert cmd.omega == pytest.approx(cfg.spin_rate)
    # small residual error turns in exactly one tick instead of overshooting
    near = Pose2D(0.0, 0.0, math.pi / 2 - 0.08)
    state2 = start_pickup(near, GroundPoint(0.0, 1.0), cfg)
    _, cmd2 = step(state2, near, [], cfg, 0.5)
    assert cmd2.omega == pytest.approx(0.08 / 0.5)  # goal is straight up
    assert abs(cmd2.omega) < cfg.spin_rate


def test_reidentify_off_locks_expectation_immediately():
    cfg = PickupConfig(reidentify=False)
    robot = Pose2D(0.0, 0.0, 0.0)
    expected = GroundPoint(1.5, 0.0)
    state = start_pickup(robot, expected, cfg)
    assert state.phase is PickupPhase.ALIGN
    assert state.locked_target == expected
    assert state.drive_goal == GroundPoint(1.5 + cfg.overshoot, 0.0)
    # already aligned: the same tick starts the drive with the mechanism on
    state, cmd = step(state, robot, [], cfg, 0.1)
    assert state.phase is PickupPhase.DRIVE_THROUGH
    assert cmd == MotionCommand(cfg.drive_speed, 0.0, mechanism_on=True)


def test_degenerate_lock_under_robot_finishes():
    cfg = PickupConfig(reidentify=False)
    robot = Pose2D(1.0, 1.0, 0.7)
    state = start_pickup(robot, GroundPoint(1.0, 1.0), cfg)
    # aim axis falls back to the current heading
    assert state.axis == (pytest.approx(math.cos(0.7)), pytest.approx(math.sin(0.7)))
    pose = robot
    for _ in range(50):
        state, cmd = step(state, pose, [], cfg, 0.1)
        pose = advance(pose, cmd, 0.1)
        if state.phase is PickupPhase.DONE:
            break
    assert state.phase is PickupPhase.DONE


def test_drive_through_completes_on_projection_not_distance():
    cfg = PickupConfig(reidentify=False)
    robot = Pose2D(0.0, 0.0, 0.0)
    state = start_pickup(robot, GroundPoint(0.5, 0.0), cfg)
    state, _ = step(state, robot, [], cfg, 0.1)  # enters DRIVE_THROUGH
    # robot laterally offset but past the goal plane: episode ends
    past = Pose2D(0.8, 0.4, 0.0)
    state2, cmd = step(state, past, [], cfg, 0.1)
    assert state2.phase is PickupPhase.DONE
    assert cmd == MotionCommand()
    # robot ahead of the goal plane keeps driving
    before = Pose2D(0.5, 0.0, 0.0)
    state3, cmd3 = step(state, before, [], cfg, 0.1)
    assert state3.phase is PickupPhase.DRIVE_THROUGH
    assert cmd3.mechanism_on


def test_step_rejects_bad_dt():
    cfg = PickupConfig()
    state = start_pickup(Pose2D(0.0, 0.0, 0.0), GroundPoint(1.0, 0.0), cfg)
    with pytest.raises(ValueError):
        step(state, Pose2D(0.0, 0.0, 0.0), [], cfg, 0.0)
    with pytest.raises(ValueError):
        step(state, Pose2D(0.0, 0.0, 0.0), [], cfg, -0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        PickupConfig(timeout=0.0)
    with pytest.raises(ValueError):
        PickupConfig(spin_rate=-0.5)
    with pytest.raises(ValueError):
        PickupConfig(drive_speed=0.0)
    with pytest.raises(ValueError):
        PickupConfig(timeout=10.0, spin_rate=0.5)  # under one revolution
    with pytest.raises(ValueError):
        PickupConfig(confidence_threshold=1.5)
    with pytest.raises(ValueError):
        PickupConfig(overshoot=-0.1)
    with pytest.raises(ValueError):
        PickupConfig(brush_halfwidth=0.0)
    # boundary that must be accepted
    PickupConfig(timeout=4.0 * math.pi, spin_rate=0.5, confidence_threshold=0.0)


def inline_turn_toward(err, rate, dt):
    """The turn-toward rule as the path follower, the lane drive, the turn
    to face a spot and the ALIGN phase each wrote it inline.  The last two
    had no zero guard but only ran with |err| above a positive tolerance."""
    return math.copysign(min(rate, abs(err) / dt), err) if err else 0.0


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    st.floats(-math.pi, math.pi),
    st.floats(1e-309, 10.0),
    st.sampled_from([1e-3, 0.01, 0.05, 0.1, 0.5]),
)
@example(0.0, 1.2, 0.05)
@example(-0.0, 1.2, 0.05)
@example(0.01, 1.2, 0.05)  # |err|/dt = 0.2 < rate: cancels the error in one tick
@example(-0.01, 1.2, 0.05)
@example(0.3, 1.2, 0.05)  # |err|/dt = 6 > rate: clamped
@example(-math.pi, 1e-309, 0.05)
def test_turn_toward_equals_the_inline_rule(err, rate, dt):
    got = turn_toward(err, rate, dt)
    assert _same_float(got, inline_turn_toward(err, rate, dt))
    if err:
        assert _same_float(got, math.copysign(min(rate, abs(err) / dt), err))
    else:
        assert _same_float(got, 0.0)
    if abs(err) / dt < rate:
        assert got == err / dt
    else:
        assert abs(got) == rate

"""Close-range pickup behavior: spin to re-acquire, align, drive through.

Approaching a mapped trash location is not enough to collect it; the map
position can be decimeters off and the robot's own odometry drifts while it
drives.  So the final leg re-identifies the object with the live camera:
the robot spins in place toward the side where the trash is expected,
locks onto the first sufficiently confident detection, turns to face a
point just past it, and drives over it with the collection mechanism
running.  Once locked, the target never changes for the rest of the
episode; an episode that fails to lock within the timeout gives up.

`step` is pure: it takes a state and returns a new state plus the motion
command for this tick, which keeps episodes replayable.  A command that
repeats for a whole phase (spin-search left or right, drive-through) is
built once per config and reused.  Commands are immutable, so sharing one
changes nothing a caller can see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .geometry import (
    CoincidentPoint,
    GroundPoint,
    Pose2D,
    Side,
    angle_to,
    distance,
    left_or_right,
)


class TooFar(ValueError):
    """Pickup requested from outside the activation radius."""


class PickupPhase(Enum):
    SPIN_SEARCH = "spin_search"
    ALIGN = "align"
    DRIVE_THROUGH = "drive_through"
    DONE = "done"
    TIMED_OUT = "timed_out"


# the members `step` and the mission's pickup episode compare against on
# every tick, bound once: looking a member up on the enum class costs about
# ten times a global lookup
_SPIN_SEARCH, _ALIGN, _DRIVE_THROUGH, _DONE, _TIMED_OUT = PickupPhase


@dataclass(frozen=True)
class PickupConfig:
    """Tunables for one pickup episode.

    timeout: seconds of spin-search before giving up.
    confidence_threshold: minimum detection score to lock on.
    overshoot: meters to aim past the locked target, so the drive carries
        the mechanism fully over it.
    spin_rate: search/turn rate, rad/s.
    drive_speed: drive-through speed, m/s.
    brush_halfwidth: half-width of the collection mechanism sweep, meters.
    align_tolerance: heading error under which the drive starts, rad.
    reidentify: when False the expected position is trusted blindly and the
        spin-search is skipped (ablation switch).
    """

    timeout: float = 30.0
    confidence_threshold: float = 0.6
    overshoot: float = 0.2
    spin_rate: float = 0.5
    drive_speed: float = 0.2
    brush_halfwidth: float = 0.15
    align_tolerance: float = 0.05
    reidentify: bool = True

    def __post_init__(self) -> None:
        if self.timeout <= 0.0 or self.spin_rate <= 0.0 or self.drive_speed <= 0.0:
            raise ValueError("timeout, spin_rate and drive_speed must be positive")
        if self.timeout * self.spin_rate < 2.0 * math.pi:
            raise ValueError("timeout must allow at least one full search revolution")
        if not (0.0 <= self.confidence_threshold <= 1.0):
            raise ValueError("confidence_threshold must lie in [0, 1]")
        if self.overshoot < 0.0 or self.brush_halfwidth <= 0.0:
            raise ValueError("overshoot must be >= 0 and brush_halfwidth > 0")
        if not self.align_tolerance > 0.0:
            # ALIGN could never finish, so every episode would time out
            raise ValueError(f"align_tolerance must be positive, got {self.align_tolerance!r}")

    # the commands that repeat for a whole phase, built on first use
    @cached_property
    def drive_command(self) -> MotionCommand:
        return MotionCommand(self.drive_speed, 0.0, mechanism_on=True)

    @cached_property
    def spin_left(self) -> MotionCommand:
        return MotionCommand(0.0, self.spin_rate)

    @cached_property
    def spin_right(self) -> MotionCommand:
        return MotionCommand(0.0, -self.spin_rate)


@dataclass(frozen=True, slots=True)
class MotionCommand:
    """One tick of base + mechanism actuation."""

    v: float = 0.0
    omega: float = 0.0
    mechanism_on: bool = False


STOP = MotionCommand()


def turn_toward(err: float, rate: float, dt: float) -> float:
    """Turn rate that cancels heading error `err` within one tick of `dt`,
    clamped to `rate` (rad/s); zero when there is no error."""
    return math.copysign(min(rate, abs(err) / dt), err) if err else 0.0


@dataclass(frozen=True, slots=True)
class PickupState:
    """FSM snapshot.  locked_target/drive_goal/axis are set together on lock
    and never change afterwards; axis is the unit approach direction used
    for the drive-past test."""

    phase: PickupPhase
    expected: GroundPoint
    spin_omega: float
    elapsed: float = 0.0
    locked_target: GroundPoint | None = None
    drive_goal: GroundPoint | None = None
    axis: tuple[float, float] | None = None

    def _next(self, phase: PickupPhase, elapsed: float) -> PickupState:
        """This state in another phase or at another elapsed time."""
        return PickupState(
            phase, self.expected, self.spin_omega, elapsed,
            self.locked_target, self.drive_goal, self.axis,
        )


ACTIVATION_RADIUS = 2.0
# slack past ACTIVATION_RADIUS within which an episode may still start, m
ACTIVATION_TOLERANCE = 0.25


def start_pickup(robot: Pose2D, expected: GroundPoint, cfg: PickupConfig) -> PickupState:
    """Begin an episode near an expected trash position.

    The spin direction is toward the side the expectation lies on; dead
    ahead counts as left.  With cfg.reidentify False the expectation is
    locked immediately and the FSM starts in ALIGN.

    Raises:
        TooFar: when the expectation is beyond the activation radius
            (2 m) plus ACTIVATION_TOLERANCE (0.25 m).
    """
    d = distance(robot.position, expected)
    if d > ACTIVATION_RADIUS + ACTIVATION_TOLERANCE:
        raise TooFar(f"expected trash {d:.2f} m away, activation radius is {ACTIVATION_RADIUS} m")
    side = left_or_right(robot, expected)
    omega = cfg.spin_rate if side in (Side.LEFT, Side.AHEAD) else -cfg.spin_rate
    state = PickupState(PickupPhase.SPIN_SEARCH, expected, omega)
    if not cfg.reidentify:
        state = _lock(state, robot, expected, cfg)
    return state


def _lock(state: PickupState, robot: Pose2D, target: GroundPoint, cfg: PickupConfig) -> PickupState:
    dx = target.x - robot.x
    dy = target.y - robot.y
    norm = math.hypot(dx, dy)
    if norm < 1e-9:
        # degenerate lock right under the robot: aim along current heading
        ux, uy = math.cos(robot.theta), math.sin(robot.theta)
    else:
        ux, uy = dx / norm, dy / norm
    return PickupState(
        PickupPhase.ALIGN,
        state.expected,
        state.spin_omega,
        state.elapsed,
        target,
        GroundPoint(target.x + cfg.overshoot * ux, target.y + cfg.overshoot * uy),
        (ux, uy),
    )


def step(
    state: PickupState,
    robot: Pose2D,
    detections: list[tuple[GroundPoint, float]],
    cfg: PickupConfig,
    dt: float,
) -> tuple[PickupState, MotionCommand]:
    """Advance the FSM one tick.

    detections are map-frame points with scores, already projected through
    the capture-time transform by the caller.  Returns the successor state
    and the command to execute for this tick; DONE and TIMED_OUT always
    command a full stop.  The mechanism runs only during DRIVE_THROUGH.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    phase = state.phase

    if phase is _SPIN_SEARCH:
        for point, conf in detections:
            if conf >= cfg.confidence_threshold:
                return _lock(state, robot, point, cfg), STOP
        elapsed = state.elapsed + dt
        if elapsed > cfg.timeout:
            return state._next(_TIMED_OUT, elapsed), STOP
        spin = cfg.spin_left if state.spin_omega > 0.0 else cfg.spin_right
        return state._next(phase, elapsed), spin

    if phase is _ALIGN:
        assert state.drive_goal is not None
        try:
            err = angle_to(robot, state.drive_goal)
        except CoincidentPoint:
            err = 0.0  # already on top of the goal; the drive-past test ends it
        if abs(err) <= cfg.align_tolerance:
            return state._next(_DRIVE_THROUGH, state.elapsed), cfg.drive_command
        return state, MotionCommand(0.0, turn_toward(err, cfg.spin_rate, dt))

    if phase is _DRIVE_THROUGH:
        ux, uy = state.axis  # type: ignore[misc]
        goal = state.drive_goal
        assert goal is not None
        past = (robot.x - goal.x) * ux + (robot.y - goal.y) * uy
        if past >= 0.0:
            return state._next(_DONE, state.elapsed), STOP
        return state, cfg.drive_command

    return state, STOP

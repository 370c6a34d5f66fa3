"""Mission orchestration: survey, map, tour, collect, report, batch.

A full mission runs four phases in a fixed order.  The aerial survey
streams rough trash sightings into the fusion filter.  The ground robot
then sweeps the arena in lanes, building the occupancy grid from range
scans while camera detections (assigned to the pose at their capture
time) keep feeding the filter.  Confirmed hypotheses are ordered into a
tour by path cost, and each is visited: plan to a standoff goal with
line of sight, drive the plan on the believed pose, then hand control to
the pickup FSM.  After a drive-through the robot backs off, turns, and
looks again; if the item is still there it gets one retry episode.

Every robot motion runs through one tick loop, `_Runner._run`.  Each tick
it stops once `max_time` has passed, senses, lets the motion choose a
command (or end), steps the world, stores the believed pose in the one
pose store, and asks the motion whether to stop.  Sensing runs only on a
tick where something is due: a frame capture, a queued scan, or a drain
of frames whose detector latency has passed; on every other tick the loop
only compares the schedules.  The motions differ only in the command
they choose and in what they sense:

- mapping motions (lane drives, sidestep jogs, lane-end spins) queue the
  pose a range scan is due from, capture camera frames, ingest the frames
  whose detector latency has passed into the filter, and step pinned:
  the believed pose lands on ground truth and no odometry is integrated;
- navigation, collection-phase reversing and turning to face a spot
  sense nothing;
- pickup episodes and the look-back after one capture frames and drain
  the ready ones through a filter on the expected item position; a
  pickup episode projects them only while its FSM spin-searches, the one
  phase that reads them, and after the lock pops them unread.

Nothing reads the grid before the sweep ends, and folding scans into it
is a join that does not depend on their order.  The range scanner is
noiseless and draws nothing from the generator, and a queued pose is the
true pose, since every mapping tick is pinned.  So when the sweep ends,
also when `max_time` cuts it short, the queued poses are cast in one
`World.scan` call and folded in one `integrate_scan` call, just before
the morphological cleanup.

Localization is assumed good while mapping, then dead-reckons with drift
for the whole collection phase.  That split is what makes late-tour
targets harder than early ones.

`wall_time` in reports is simulated mission time, so identical runs
produce byte-identical reports.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import count, islice, product

import numpy as np

from .clusterfilter import (
    RawDetection,
    TrashHypothesis,
    confirmed,
    ingest,
    write_hypotheses,
)
from .config import JOG_REVERSE, ConfigError, MissionConfig, apply_override, build_config
from .geometry import (
    CoincidentPoint,
    DegenerateDepth,
    GroundPoint,
    Pose2D,
    angle_to,
    distance,
    project_detection,
)
from .gridmap import FREE, OccupancyGrid, inflate, integrate_scan, morph_close_open, save_map
from .pickup import _DONE, _SPIN_SEARCH, _TIMED_OUT, STOP, MotionCommand, TooFar, start_pickup
from .pickup import turn_toward
from .pickup import step as pickup_step
from .planner import CostField, StartOccupied, approach_goal, astar, order_waypoints
from .posebuffer import OutOfRange, PoseBuffer, write_trajectory
from .simworld import DelayQueue, LayoutError, World, aerial_survey

COLLECTED = "Collected"
TIMED_OUT = "TimedOut"
UNREACHABLE = "Unreachable"
UNDETECTED = "Undetected"

# greedy truth-to-hypothesis pairing cutoff, meters
MATCH_RADIUS = 0.5

# The camera cannot render items much closer than half a meter, and pixel
# jitter makes the first visible stretch unreliable, so approach goals keep
# at least this far from the target (the verify step backs off the same
# meter before looking).  Halved standoffs shrink it proportionally.
MIN_APPROACH = 1.0

# heading error above which PathFollower turns in place, rad
ALIGN_THRESHOLD = 0.3
# heading error within which turning to face a spot stops, rad
FACE_TOLERANCE = 0.2


@dataclass(frozen=True)
class PerTrash:
    """End-of-mission accounting for one ground-truth trash item."""

    truth: GroundPoint
    matched: GroundPoint | None
    map_error: float
    outcome: str


@dataclass(frozen=True)
class MissionReport:
    seed: int
    success: bool
    wall_time: float
    map_file: str
    hypotheses: list[TrashHypothesis]
    per_trash: list[PerTrash]

    @property
    def n_trash(self) -> int:
        return len(self.per_trash)

    @property
    def n_collected(self) -> int:
        return sum(1 for p in self.per_trash if p.outcome == COLLECTED)

    @property
    def mean_map_error(self) -> float:
        return _finite_mean([p.map_error for p in self.per_trash])


def _finite_mean(values: list[float]) -> float:
    """Mean of the finite values; NaN when there are none."""
    finite = [v for v in values if math.isfinite(v)]
    return sum(finite) / len(finite) if finite else float("nan")


class _StallTimer:
    """Tells when the observed pose has stopped moving for too long."""

    def __init__(self, pose: Pose2D):
        self._anchor = pose
        self._stalled = 0.0

    def update(self, pose: Pose2D, dt: float) -> bool:
        """Account one tick; True once the pose has stayed within 1 cm of
        its anchor for 10 s."""
        if distance(self._anchor, pose) > 0.01:
            self._anchor = pose
            self._stalled = 0.0
            return False
        self._stalled += dt
        return self._stalled >= 10.0


class PathFollower:
    """Waypoint chaser: rotate toward the active waypoint until the heading
    error is within ALIGN_THRESHOLD, then drive with proportional steering.
    The final waypoint counts as reached within `reach`, intermediate ones
    advance within 1.5 x `reach` (navigation passes one grid cell width)."""

    def __init__(self, waypoints: list[GroundPoint], speed: float, turn_rate: float, reach: float):
        if not waypoints:
            raise ValueError("waypoints must be non-empty")
        self._wps = waypoints
        self._speed = speed
        self._turn = turn_rate
        self._advance = 1.5 * reach
        self._final = reach
        self._idx = 0

    def command(self, pose: Pose2D, dt: float) -> MotionCommand | None:
        """Next command, or None once the final waypoint is reached."""
        last = len(self._wps) - 1
        while self._idx < last and distance(pose, self._wps[self._idx]) <= self._advance:
            self._idx += 1
        if self._idx == last and distance(pose, self._wps[last]) <= self._final:
            return None
        try:
            err = angle_to(pose, self._wps[self._idx])
        except CoincidentPoint:
            err = 0.0
        omega = turn_toward(err, self._turn, dt)
        if abs(err) > ALIGN_THRESHOLD:
            return MotionCommand(0.0, omega)
        return MotionCommand(self._speed, omega)


def _nearest_free(
    grid: OccupancyGrid, x: float, y: float, max_radius: float = 0.6
) -> GroundPoint | None:
    """Center of the Free cell nearest to (x, y), or None if nothing Free
    lies in the square rings around the cell under (x, y), clamped into the
    grid, out to max_radius plus one cell.  The lowest ring wins, then the
    distance to the unclamped (x, y) with 1e-12 slack, then the lower
    (row, col)."""
    res = grid.resolution
    cx = min(max(x, 0.5 * res), grid.width * res - 0.5 * res)
    cy = min(max(y, 0.5 * res), grid.height * res - 0.5 * res)
    cell = grid.world_to_cell(cx, cy)
    if cell is None:
        return None
    col0, row0 = cell
    reach = int(math.ceil(max_radius / res)) + 1
    row_lo, col_lo = max(row0 - reach, 0), max(col0 - reach, 0)
    window = grid.cells[row_lo : row0 + reach + 1, col_lo : col0 + reach + 1]
    rows, cols = np.nonzero(window == FREE)  # row-major order
    if rows.size == 0:
        return None
    rows += row_lo
    cols += col_lo
    ring = np.maximum(np.abs(rows - row0), np.abs(cols - col0))
    inner = ring == ring.min()
    rows, cols = rows[inner], cols[inner]
    px, py = grid.cell_center(cols, rows)
    d = np.hypot(px - x, py - y)
    best = int(np.argmax(d <= d.min() + 1e-12))
    return GroundPoint(*grid.cell_center(int(cols[best]), int(rows[best])))


class _Runner:
    """Mutable state for one mission; one instance per run."""

    def __init__(self, cfg: MissionConfig, world_cfg=None):
        self.cfg = cfg
        try:
            self.world = World(
                world_cfg if world_cfg is not None else cfg.world,
                cfg.noise,
                brush_halfwidth=cfg.pickup.brush_halfwidth,
            )
        except LayoutError as exc:
            raise ConfigError(f"world layout: {exc}") from None
        # every believed pose, stamped: frames look their capture pose up
        # in it within its horizon, and it is dumped as trajectory.txt
        self.poses = PoseBuffer()
        self.poses.insert(0.0, self.world.robot.believed_pose)
        self.hypotheses: list[TrashHypothesis] = []
        self.confirmed_list: list[TrashHypothesis] = []
        self.frames = DelayQueue()
        w, h = cfg.grid_shape
        self.grid = OccupancyGrid(w, h, cfg.map_resolution)
        self.nav_grid: OccupancyGrid | None = None
        self.cost_field: CostField | None = None
        # when the run is dumped, one raw (pose index, phase, command) row
        # per pickup tick, the tick's pose being the one stored last;
        # formatted only by `dump`
        self.episode_logs: list[list[tuple]] = []
        # poses the mapping sweep scans from, cast and folded into the
        # grid when the sweep ends
        self.pending_poses: list[Pose2D] = []
        self._next_scan = 0.0
        self._next_frame = 0.0

    # ------------------------------------------------------------------ #
    # plumbing

    @property
    def pose(self) -> Pose2D:
        return self.world.robot.believed_pose

    def _out_of_time(self) -> bool:
        return self.world.t >= self.cfg.max_time

    def _run(
        self, command, *, mapping: bool = False, accept=None, reads=None, after=None,
        ticks: int | None = None,
    ) -> str | None:
        """The tick loop every motion runs in.

        Each tick: stop once max_time has passed; sense; let
        `command(detections)` choose this tick's command (None ends the
        motion); step, and store the believed pose; stop when `after()`
        returns a truthy reason.  With `mapping` the tick senses as the
        sweep does and steps pinned to the truth; with an `accept` filter
        it captures frames and hands `command` what `_drain` accepts;
        otherwise it senses nothing and hands `command` None.  Sensing
        runs only when it is due: a frame capture once `_next_frame` is
        reached, a drain once the frame queue's earliest ready time is,
        and a queued scan once `_next_scan` is; on other ticks the
        schedules are only compared.  When `reads()` says `command` will
        not read this tick's detections, the ready frames are popped
        unprojected and `command` gets none.  `ticks` bounds a fixed
        move.  Returns TIMED_OUT when max_time ran out, the reason `after`
        gave, or None.
        """
        world = self.world
        robot = world.robot
        frames = self.frames
        poses = self.poses
        max_time = self.cfg.max_time
        detections = None
        for _ in count() if ticks is None else range(ticks):
            t = world.t
            if t >= max_time:
                return TIMED_OUT
            if mapping:
                self._sense_map()
            elif accept is not None:
                if t >= self._next_frame:
                    self._capture_frame()
                if t < frames.earliest:
                    detections = []
                elif reads is None or reads():
                    detections = self._drain(t, accept)
                else:
                    frames.pop_ready(t)
                    detections = []
            cmd = command(detections)
            if cmd is None:
                return None
            world.step_world(cmd, mapping)
            poses.insert(world.t, robot.believed_pose)
            if after is not None:
                why = after()
                if why:
                    return why
        return None

    def _ticks_for(self, amount: float, rate: float) -> int:
        """Ticks a fixed move of `amount` (m, rad or s) at `rate` per second
        takes, capped at the ticks left before max_time, where the loop
        stops anyway; the cap keeps a vanishing rate from overflowing."""
        dt = self.cfg.world.dt
        per_tick = rate * dt
        need = amount / per_tick if per_tick else math.inf
        left = (self.cfg.max_time - self.world.t) / dt + 1.0
        return math.ceil(min(need, left))

    def _drain(self, until: float, accept) -> list:
        """Project the boxes of every frame ready by `until` with the pose
        at its capture time; returns, in arrival order, each non-None
        `accept(capture_t, point, confidence)`.  Frames older than the
        trajectory horizon are dropped."""
        out = []
        for capture_t, boxes in self.frames.pop_ready(until):
            try:
                pose = self.poses.pose_at(capture_t)
            except OutOfRange:
                continue
            for box in boxes:
                try:
                    point = project_detection(pose, box, self.cfg.camera)
                except DegenerateDepth:
                    continue
                kept = accept(capture_t, point, box.confidence)
                if kept is not None:
                    out.append(kept)
        return out

    def _near(self, expected: GroundPoint):
        """`_drain` filter of the collection phase: (point, confidence) of
        detections within confirm_radius of the expected item."""
        radius = self.cfg.confirm_radius
        return lambda _t, point, conf: (point, conf) if distance(point, expected) <= radius else None

    def _ingest_frames(self, until: float) -> None:
        for det in self._drain(until, RawDetection):
            self.hypotheses = ingest(self.hypotheses, det, self.cfg.filter)

    def _capture_frame(self) -> None:
        """Capture a detector frame now; the caller checks it is due."""
        t = self.world.t
        boxes = self.world.detect(
            self.cfg.camera, self.cfg.frame_interval, self.cfg.detect_max_range
        )
        self.frames.push(t + self.cfg.noise.detector_latency, (t, boxes))
        self._next_frame = t + self.cfg.frame_interval

    def _sense_map(self) -> None:
        """Mapping-phase sensing, each part only when due: queue the scan
        pose, capture a frame, and ingest the ready frames."""
        t = self.world.t
        if t >= self._next_scan:
            self.pending_poses.append(self.pose)
            self._next_scan = t + self.cfg.scan_interval
        if t >= self._next_frame:
            self._capture_frame()
        if t >= self.frames.earliest:
            self._ingest_frames(t)

    def _move(
        self, cmd: MotionCommand, amount: float, rate: float,
        mapping: bool = False, until_contact: bool = False,
    ) -> None:
        """Repeat one command for the ticks it takes to cover `amount` (m or
        rad) at `rate`, optionally stopping at the first contact."""
        after = (lambda: self.world.last_contact) if until_contact else None
        self._run(lambda _: cmd, mapping=mapping, after=after, ticks=self._ticks_for(amount, rate))

    def _reverse(self, dist: float, speed: float, mapping: bool = False) -> None:
        """Back up a straight distance, stopping early on contact."""
        self._move(MotionCommand(-speed, 0.0), dist, speed, mapping, until_contact=True)

    # ------------------------------------------------------------------ #
    # phase 1: survey

    def survey(self) -> None:
        stream = aerial_survey(self.world, self.cfg.survey_lane_spacing)
        for det in stream:
            self.hypotheses = ingest(self.hypotheses, det, self.cfg.filter)

    # ------------------------------------------------------------------ #
    # phase 2: mapping sweep

    def _drive_to(self, wp: GroundPoint, reach: float) -> None:
        """Mapping drive toward one waypoint.  Contacts trigger a bounded
        sidestep jog so one obstacle does not shadow the rest of the lane;
        after too many contacts (or a stall) the sweep just moves on."""
        cfg = self.cfg
        dt = cfg.world.dt
        follower = PathFollower([wp], cfg.mapping_speed, cfg.turn_rate, reach)
        stall = _StallTimer(self.pose)
        jogs = 0

        def after() -> bool:
            nonlocal stall, jogs
            if not self.world.last_contact:
                return stall.update(self.pose, dt)
            jogs += 1
            if jogs > 4:
                return True
            self._jog_around()
            stall = _StallTimer(self.pose)
            return False

        self._run(lambda _: follower.command(self.pose, dt), mapping=True, after=after)

    def _jog_around(self) -> None:
        """Sidestep after a contact: back off, turn a quarter toward the
        arena center, advance past the obstruction.  Keeps sensing so the
        blocker ends up on the map."""
        cfg = self.cfg
        self._reverse(JOG_REVERSE, cfg.mapping_speed, mapping=True)
        center = GroundPoint(cfg.world.arena_w / 2.0, cfg.world.arena_h / 2.0)
        try:
            toward = angle_to(self.pose, center)
        except CoincidentPoint:
            toward = 0.0
        quarter = math.copysign(math.pi / 2.0, toward if toward else 1.0)
        turn = MotionCommand(0.0, math.copysign(cfg.turn_rate, quarter))
        self._move(turn, abs(quarter), cfg.turn_rate, mapping=True)
        ahead = MotionCommand(cfg.mapping_speed, 0.0)
        self._move(ahead, 0.8, cfg.mapping_speed, mapping=True, until_contact=True)

    def mapping_sweep(self) -> None:
        """Lawnmower coverage with a full look-around at each lane end,
        then the queued scans cast and folded into the grid, and
        morphological cleanup of the finished grid."""
        cfg = self.cfg
        margin = 0.5
        arena_w, arena_h = cfg.world.arena_w, cfg.world.arena_h
        y_lo, y_hi = margin, arena_h - margin
        waypoints: list[GroundPoint] = []
        x = margin
        upward = True
        while x <= arena_w - margin + 1e-9:
            ys = (y_lo, y_hi) if upward else (y_hi, y_lo)
            waypoints.extend(GroundPoint(x, y) for y in ys)
            x += cfg.mapping_lane_spacing
            upward = not upward
        spin = MotionCommand(0.0, cfg.turn_rate)
        for i, wp in enumerate(waypoints):
            if self._out_of_time():
                break
            self._drive_to(wp, reach=0.2)
            if i % 2 == 1:
                self._move(spin, 2.0 * math.pi, cfg.turn_rate, mapping=True)
        # frames still in the detector pipeline at phase end
        self._ingest_frames(self.world.t + cfg.noise.detector_latency + 1.0)
        poses = np.array([(p.x, p.y, p.theta) for p in self.pending_poses]).reshape(-1, 3)
        self.pending_poses = []
        bearings, ranges = self.world.scan(cfg.camera, cfg.n_beams, cfg.scan_max_range, poses)
        integrate_scan(self.grid, poses, bearings, ranges, cfg.scan_max_range)
        self.grid = morph_close_open(self.grid)

    # ------------------------------------------------------------------ #
    # phases 3 and 4: tour and collection

    def _navigate_to_standoff(self, target: GroundPoint) -> str:
        """Plan and drive to a standoff goal near the target.  Returns
        "ok", or an outcome string on failure."""
        cfg = self.cfg
        assert self.nav_grid is not None and self.cost_field is not None
        pose = self.pose
        start = _nearest_free(self.nav_grid, pose.x, pose.y)
        if start is None:
            return UNREACHABLE
        try:
            goal = approach_goal(
                target,
                self.nav_grid,
                start,
                cfg.standoff,
                min_dist=min(MIN_APPROACH, 0.5 * cfg.standoff),
                cost_field=self.cost_field,
            )
        except StartOccupied:
            return UNREACHABLE
        if goal is None:
            return UNREACHABLE
        plan = astar(self.nav_grid, start, goal.pose.position)
        if plan is None:
            return UNREACHABLE
        follower = PathFollower(
            plan.waypoints, cfg.nav_speed, cfg.turn_rate, cfg.map_resolution
        )
        dt = cfg.world.dt
        stall = _StallTimer(self.pose)
        why = self._run(
            lambda _: follower.command(self.pose, dt),
            after=lambda: "stuck" if stall.update(self.pose, dt) else None,
        )
        return why or "ok"

    def _pickup_episode(self, state, expected: GroundPoint) -> bool:
        """Run one pickup FSM episode to a terminal phase (or the hard
        cap); True if it ended DONE.  Frames are projected only while the
        FSM spin-searches, the one phase that reads detections.  When the
        run is dumped, every step is logged as a raw tuple."""
        cfg = self.cfg
        dt = cfg.world.dt
        world = self.world
        robot = world.robot
        pickup_cfg = cfg.pickup
        t0 = world.t
        cap = (
            cfg.pickup.timeout
            + (cfg.standoff + 1.0) / cfg.pickup.drive_speed
            + 2.0 * math.pi / cfg.pickup.spin_rate
            + 5.0
        )
        log: list[tuple] | None = [] if cfg.output_dir else None
        terminal = (_DONE, _TIMED_OUT)

        def finished() -> bool:
            return state.phase in terminal or world.t - t0 >= cap

        def command(detections):
            nonlocal state
            state, cmd = pickup_step(state, robot.believed_pose, detections, pickup_cfg, dt)
            if log is not None:
                log.append((len(self.poses) - 1, state.phase, cmd))
            return cmd

        self._run(
            command,
            accept=self._near(expected),
            reads=lambda: state.phase is _SPIN_SEARCH,
            after=finished,
        )
        if log is not None:
            self.episode_logs.append(log)
        return state.phase is _DONE

    def _rotate_to_face(self, target: GroundPoint) -> None:
        cfg = self.cfg

        def command(_):
            try:
                err = angle_to(self.pose, target)
            except CoincidentPoint:
                return None
            if abs(err) <= FACE_TOLERANCE:
                return None
            return MotionCommand(0.0, turn_toward(err, cfg.turn_rate, cfg.world.dt))

        self._run(command)

    def _verify_gone(self, expected: GroundPoint) -> list[GroundPoint]:
        """Back off, turn around, and look at the spot just driven over.
        Returns confident sightings near the expected point (empty means
        the item is believed collected)."""
        cfg = self.cfg
        # A missed item ends up roughly under the rear of the robot, below
        # the camera's near clip.  Back off a full meter so the spot lands
        # inside the frustum before looking.
        self._reverse(1.0, cfg.pickup.drive_speed)
        self._rotate_to_face(expected)
        hold = cfg.noise.detector_latency + 3.0 * cfg.frame_interval + 0.2
        seen: list[GroundPoint] = []

        def hold_still(detections):
            seen.extend(p for p, conf in detections if conf >= cfg.pickup.confidence_threshold)
            return STOP

        self._run(hold_still, accept=self._near(expected), ticks=self._ticks_for(hold, 1.0))
        return seen

    def _collect_one(self, target: GroundPoint) -> str:
        """Navigate to a standoff and run pickup, with one verify-retry.
        Returns "done", TimedOut, or Unreachable (episode result; the
        final per-trash outcome is settled against ground truth later)."""
        cfg = self.cfg
        state = None
        for attempt in (0, 1):
            nav = self._navigate_to_standoff(target)
            if nav == "stuck":
                # pinned against something the map missed; unpin and replan
                if attempt == 1:
                    return UNREACHABLE
                self._reverse(0.5, cfg.nav_speed)
                continue
            if nav != "ok":
                return nav
            try:
                state = start_pickup(self.pose, target, cfg.pickup)
                break
            except TooFar:
                # the follower ended farther out than believed; replan once
                if attempt == 1:
                    return UNREACHABLE
        assert state is not None
        if not self._pickup_episode(state, target):
            return TIMED_OUT
        if cfg.pickup.reidentify:
            # look back at the spot; a leftover sighting earns one retry
            leftovers = self._verify_gone(state.locked_target or target)
            if leftovers:
                try:
                    retry = start_pickup(self.pose, leftovers[0], cfg.pickup)
                except TooFar:
                    return TIMED_OUT
                self._pickup_episode(retry, leftovers[0])
        return "done"

    def collect(self) -> dict[int, str]:
        """Visit every confirmed hypothesis; returns hypothesis index to
        episode result."""
        cfg = self.cfg
        self.confirmed_list = confirmed(self.hypotheses, cfg.filter)
        results: dict[int, str] = {}
        if not self.confirmed_list:
            return results
        self.nav_grid = inflate(self.grid, cfg.inflate_radius)
        self.cost_field = CostField(self.nav_grid)
        start = _nearest_free(self.nav_grid, self.pose.x, self.pose.y)
        points = [h.point for h in self.confirmed_list]
        if start is None:
            return {i: UNREACHABLE for i in range(len(points))}
        tour = order_waypoints(start, points, self.nav_grid, self.cost_field)
        # map tour entries back to hypothesis indices; order_waypoints
        # passes the point objects through untouched
        remaining = {id(p): i for i, p in enumerate(points)}
        for point, _flag in tour:
            idx = remaining.pop(id(point))
            if self._out_of_time():
                results[idx] = TIMED_OUT
                continue
            results[idx] = self._collect_one(point)
        return results

    # ------------------------------------------------------------------ #
    # reporting

    def build_report(self, results: dict[int, str], map_file: str) -> MissionReport:
        truths = self.world.trash
        hyps = self.confirmed_list
        pairs = sorted(
            (distance(item.position, h.point), ti, hi)
            for ti, item in enumerate(truths)
            for hi, h in enumerate(hyps)
            if distance(item.position, h.point) <= MATCH_RADIUS
        )
        match: dict[int, int] = {}
        used: set[int] = set()
        for _d, ti, hi in pairs:
            if ti in match or hi in used:
                continue
            match[ti] = hi
            used.add(hi)
        per_trash: list[PerTrash] = []
        for ti, item in enumerate(truths):
            hi = match.get(ti)
            matched = hyps[hi].point if hi is not None else None
            err = distance(item.position, matched) if matched is not None else float("nan")
            if item.collected:
                outcome = COLLECTED
            elif hi is None:
                outcome = UNDETECTED
            else:
                result = results.get(hi, TIMED_OUT)
                outcome = UNREACHABLE if result == UNREACHABLE else TIMED_OUT
            per_trash.append(PerTrash(item.position, matched, err, outcome))
        success = all(p.outcome == COLLECTED for p in per_trash)
        return MissionReport(
            seed=self.cfg.world.seed,
            success=success,
            wall_time=self.world.t,
            map_file=map_file,
            hypotheses=hyps,
            per_trash=per_trash,
        )

    def dump(self, report: MissionReport, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        write_report(report, os.path.join(out_dir, "report.txt"))
        write_hypotheses(self.hypotheses, self.cfg.filter, os.path.join(out_dir, "hypotheses.txt"))
        lines = write_trajectory(self.poses, os.path.join(out_dir, "trajectory.txt"))
        with open(os.path.join(out_dir, "ground_truth.txt"), "w", encoding="utf-8") as fh:
            for ob in self.world.obstacles:
                fh.write(f"obstacle = {ob.x0!r} {ob.y0!r} {ob.x1!r} {ob.y1!r}\n")
            for item in self.world.trash:
                flag = "true" if item.collected else "false"
                fh.write(
                    f"trash = {item.position.x!r} {item.position.y!r} {item.mass!r} {flag}\n"
                )
        for i, log in enumerate(self.episode_logs):
            with open(os.path.join(out_dir, f"episode_{i:02d}.txt"), "w", encoding="utf-8") as fh:
                for k, phase, cmd in log:
                    # quotes the tick's trajectory line: t, then x y theta
                    t, _, pose = lines[k].partition(" ")
                    fh.write(f"{t} {phase.value} {cmd.v!r} {cmd.omega!r} {int(cmd.mechanism_on)} {pose}")


def write_report(report: MissionReport, path: str) -> None:
    """Plain `key = value` report; floats via repr so identical runs
    serialize to identical bytes."""
    lines = [
        f"seed = {report.seed}",
        f"success = {'true' if report.success else 'false'}",
        f"n_trash = {report.n_trash}",
        f"n_collected = {report.n_collected}",
        f"mean_map_error_m = {report.mean_map_error!r}",
        f"wall_time_s = {report.wall_time!r}",
        f"map_file = {os.path.basename(report.map_file)}",
        f"hypothesis_count = {len(report.hypotheses)}",
    ]
    for i, h in enumerate(report.hypotheses):
        lines.append(f"hypothesis_{i} = {h.point.x!r} {h.point.y!r} {h.count}")
    for i, p in enumerate(report.per_trash):
        lines.append(f"trash_{i}_truth = {p.truth.x!r} {p.truth.y!r}")
        lines.append(f"trash_{i}_outcome = {p.outcome}")
        if p.matched is not None:
            lines.append(f"trash_{i}_matched = {p.matched.x!r} {p.matched.y!r}")
        else:
            lines.append(f"trash_{i}_matched = none")
        lines.append(f"trash_{i}_map_error_m = {p.map_error!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_trial(cfg: MissionConfig) -> tuple[MissionReport, _Runner]:
    """Single pickup episode: one item trial_distance ahead, no obstacles."""
    base = cfg.world
    start = Pose2D(
        0.5 * base.arena_w - 0.5 * cfg.trial_distance, 0.5 * base.arena_h, 0.0
    )
    trash_point = GroundPoint(start.x + cfg.trial_distance, start.y)
    world_cfg = replace(
        base,
        start=start,
        obstacles=(),
        trash=((trash_point, base.trash_mass),),
    )
    runner = _Runner(cfg, world_cfg=world_cfg)
    state = start_pickup(runner.pose, trash_point, cfg.pickup)
    runner._pickup_episode(state, trash_point)
    item = runner.world.trash[0]
    outcome = COLLECTED if item.collected else TIMED_OUT
    report = MissionReport(
        seed=base.seed,
        success=item.collected,
        wall_time=runner.world.t,
        map_file="",
        hypotheses=[],
        per_trash=[PerTrash(trash_point, None, float("nan"), outcome)],
    )
    return report, runner


def _mapped(cfg: MissionConfig) -> _Runner:
    """A runner that has flown the survey and swept the arena."""
    runner = _Runner(cfg)
    runner.survey()
    runner.mapping_sweep()
    return runner


def run_mission(cfg: MissionConfig) -> MissionReport:
    """Run one mission (or pickup trial) and return its report, writing
    dump files when cfg.output_dir is set."""
    if cfg.scenario == "pickup_trial":
        report, runner = _run_trial(cfg)
    else:
        runner = _mapped(cfg)
        map_file = ""
        if cfg.output_dir:
            os.makedirs(cfg.output_dir, exist_ok=True)
            map_file = os.path.join(cfg.output_dir, "map.grid")
            save_map(runner.grid, map_file)
        results = runner.collect()
        report = runner.build_report(results, map_file)
    if cfg.output_dir:
        runner.dump(report, cfg.output_dir)
    return report


def run_mapping(cfg: MissionConfig) -> tuple[OccupancyGrid, list[TrashHypothesis], World]:
    """Survey and mapping phases only; returns the cleaned grid, the
    confirmed hypotheses, and the world for inspection."""
    runner = _mapped(cfg)
    return runner.grid, confirmed(runner.hypotheses, cfg.filter), runner.world


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, cols: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def _batch_row(task: tuple[dict[str, list[str]], int, tuple[tuple[str, str], ...]]) -> dict:
    """Run one batch mission from its raw config, seed and sweep point, a
    tuple of (key, value) pairs; returns its runs.csv row.  A ConfigError
    of its config or its mission is raised again naming the seed and the
    sweep point."""
    raw_run, seed, point = task
    try:
        report = run_mission(build_config(raw_run))
    except ConfigError as exc:
        raise _named(exc, seed, point) from None
    return {
        "seed": seed,
        **dict(point),
        "success": report.success,
        "n_collected": report.n_collected,
        "n_trash": report.n_trash,
        "mean_map_error_m": report.mean_map_error,
        "wall_time_s": report.wall_time,
    }


def _named(exc: ConfigError, seed: int, point: tuple[tuple[str, str], ...]) -> ConfigError:
    """`exc` again, its message led by the batch run's seed and sweep point."""
    where = "".join(f", {k}={v}" for k, v in point)
    return ConfigError(f"seed {seed}{where}: {exc}")


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_map(fn, items: Iterator, workers: int) -> Iterator:
    """`map(fn, items)` over a pool of `workers` processes, yielding results
    in the order of `items`.  At most 2 x `workers` items are submitted ahead
    of the one yielded next, so a long `items` costs no memory.  The first
    exception in that order is raised, and the items not yet started are
    cancelled.  Workers are spawned, not forked, so they start from a
    fresh import whatever threads this process runs."""
    # imported here, so a run that starts no pool does not pay for it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        ahead: deque = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) >= 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_batch(
    raw: dict[str, list[str]],
    seeds: Sequence[int],
    sweep: list[tuple[str, list[str]]],
    out_dir: str | None = None,
) -> tuple[list[dict], list[dict]]:
    """Run every sweep-point x seed combination, seeds innermost.

    Returns (rows, aggregates) and, when out_dir is set, writes runs.csv
    (one row per run) and aggregate.csv (one row per sweep point).  The
    seeds come from `seeds` alone, so sweeping `world.seed` is a
    ConfigError, and so is sweeping one key twice.  A batch of more than
    one mission on a machine that lets this process use more than one CPU
    runs its missions in a pool of spawned processes, one per CPU or per
    mission, whichever is fewer; the rows, the files and the first error
    raised are those of a sequential run.  Each sweep point's config is
    built with the first seed before any mission runs, so an invalid one
    ends the batch at once.  Its ConfigError names that seed and the
    point, as a mission's does, unless the config has the same error
    without the sweep.  A script that calls this needs
    the `if __name__ == "__main__":` guard spawned processes ask for.
    """
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    sweep_keys = [key for key, _ in sweep]
    if "world.seed" in sweep_keys:
        raise ConfigError("world.seed cannot be swept; list the seeds with --seeds")
    repeated = sorted({key for key in sweep_keys if sweep_keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"sweep key {repeated[0]!r} is given more than once")
    points = [tuple(zip(sweep_keys, combo)) for combo in product(*(values for _, values in sweep))]

    def raw_run(point: tuple[tuple[str, str], ...], seed: int) -> dict[str, list[str]]:
        out = dict(raw)
        for key, value in point:
            apply_override(out, key, value)
        apply_override(out, "world.seed", str(seed))
        return out

    def config_error(point: tuple[tuple[str, str], ...]) -> ConfigError | None:
        first = raw_run(point, seeds[0])
        try:
            build_config(first)
        except ConfigError as exc:
            return exc
        return None

    # an error the config has without the sweep is not the point's
    unswept = config_error(())
    for point in points:
        exc = config_error(point)
        if exc is not None:
            if unswept is not None and str(exc) == str(unswept):
                raise exc
            raise _named(exc, seeds[0], point)

    tasks = ((raw_run(point, seed), seed, point) for point in points for seed in seeds)
    workers = min(_usable_cpus(), len(points) * len(seeds))
    results = map(_batch_row, tasks) if workers == 1 else _pool_map(_batch_row, tasks, workers)
    rows: list[dict] = []
    aggregates: list[dict] = []
    for point in points:
        combo_rows = list(islice(results, len(seeds)))
        rows.extend(combo_rows)
        n = len(combo_rows)
        agg = dict(point)
        agg.update(
            n_runs=n,
            success_rate=sum(1 for r in combo_rows if r["success"]) / n,
            mean_map_error_m=_finite_mean([r["mean_map_error_m"] for r in combo_rows]),
            mean_wall_time_s=sum(r["wall_time_s"] for r in combo_rows) / n,
        )
        aggregates.append(agg)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        run_cols = ["seed", *sweep_keys, "success", "n_collected", "n_trash", "mean_map_error_m", "wall_time_s"]
        _write_csv(os.path.join(out_dir, "runs.csv"), run_cols, rows)
        agg_cols = [*sweep_keys, "n_runs", "success_rate", "mean_map_error_m", "mean_wall_time_s"]
        _write_csv(os.path.join(out_dir, "aggregate.csv"), agg_cols, aggregates)
    return rows, aggregates

"""Mission phases: survey, mapping sweep and collection.

Each phase runs on the inputs it is given.  The aerial survey streams
rough trash sightings into the fusion filter.  `mapping_sweep(lanes)`
drives the lanes `_lanes(cfg)` lays out while camera detections, each
assigned to the pose at its capture time, keep feeding the filter, and
returns the cleaned occupancy grid.  `run_mission` confirms the filter's
hypotheses once, for the collection and for the report.
`collect(grid, targets)` inflates the grid, orders the targets into a
tour by path cost, and visits each: plan to a standoff goal with line of
sight, drive the plan on the believed pose, then hand control to the
pickup FSM.  After a drive-through the robot backs off, turns, and looks
again; a leftover sighting earns one retry episode.

Every motion runs through one tick loop, `_Runner._run`, which senses
through one path.  Each tick it stops once `max_time` has passed,
senses, lets the motion choose a command (or end), steps the world,
stores the believed pose in the one pose store, and asks the motion
whether to stop.  A sensing motion captures camera frames and drains
the frames whose detector latency has passed through its accept
function; a capture, a drain and a queued scan each run only on a tick
where they are due.  The motions differ in their command and in what
they accept:

- mapping motions (lane drives, sidestep jogs, lane-end spins) fold
  every detection into the filter, also queue the pose a range scan is
  due from, and step pinned: the believed pose lands on ground truth
  and no odometry is integrated;
- navigation, collection-phase reversing and turning to face a spot
  sense nothing;
- pickup episodes and the look-back after one accept the detections
  near the expected item; an episode projects them only while its FSM
  spin-searches, the one phase that reads them.

Nothing reads the grid before the sweep ends, folding scans into it does
not depend on their order, and the noiseless scanner draws nothing from
the generator.  So when the sweep ends, also when `max_time` cuts it
short, the queued poses are cast in one `World.scan` call and folded in
one `integrate_scan` call.  Localization is good while mapping, then
dead-reckons with drift for the whole collection phase, which makes
late-tour targets harder than early ones.
"""
from __future__ import annotations

import math
import os
from dataclasses import replace
from itertools import count

import numpy as np

from .batch import run_batch  # noqa: F401  (re-exported: README imports it from here)
from .clusterfilter import RawDetection, TrashHypothesis, confirmed, ingest
from .config import JOG_REVERSE, LANE_MARGIN, ConfigError, MissionConfig
from .geometry import CoincidentPoint, DegenerateDepth, GroundPoint, Pose2D
from .geometry import angle_to, distance, project_detection
from .gridmap import OccupancyGrid, inflate, integrate_scan, morph_close_open, save_map
from .pickup import _DONE, _SPIN_SEARCH, _TIMED_OUT, STOP, MotionCommand, TooFar, start_pickup
from .pickup import turn_toward
from .pickup import step as pickup_step
from .planner import CostField, StartOccupied, approach_goal, astar, nearest_free, order_waypoints
from .posebuffer import OutOfRange, PoseBuffer
from .report import COLLECTED, TIMED_OUT, UNREACHABLE, MissionReport, PerTrash, build_report, dump
from .report import write_report  # noqa: F401  (re-exported: perfbench imports it from here)
from .simworld import DelayQueue, LayoutError, World, aerial_survey

# The camera cannot render items much closer than half a meter, and pixel
# jitter makes the first visible stretch unreliable, so approach goals keep
# at least this far from the target (the verify step backs off the same
# meter before looking).  Halved standoffs shrink it proportionally.
MIN_APPROACH = 1.0

# heading error above which PathFollower turns in place, rad
ALIGN_THRESHOLD = 0.3
# heading error within which turning to face a spot stops, rad
FACE_TOLERANCE = 0.2


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


def _lanes(cfg: MissionConfig) -> list[tuple[GroundPoint, GroundPoint]]:
    """The mapping sweep's lanes: a (start, end) pair parallel to y at each
    x of `cfg.mapping_lane_xs()`, LANE_MARGIN in from the walls, driven
    upward first and then alternately."""
    ys = (LANE_MARGIN, cfg.world.arena_h - LANE_MARGIN)
    return [
        tuple(GroundPoint(x, y) for y in (ys if i % 2 == 0 else ys[::-1]))
        for i, x in enumerate(cfg.mapping_lane_xs())
    ]


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
        self.frames = DelayQueue()
        # the raw grid every mapping sweep folds its scans into
        w, h = cfg.grid_shape
        self.grid = OccupancyGrid(w, h, cfg.map_resolution)
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

    def _run(
        self, command, *, mapping: bool = False, accept=None, reads=None, after=None,
        ticks: int | None = None,
    ) -> str | None:
        """The tick loop every motion runs in.

        Each tick: stop once max_time has passed; sense; let
        `command(detections)` choose this tick's command (None ends the
        motion); step, and store the believed pose; stop when `after()`
        returns a truthy reason.  With an `accept` filter the tick
        captures frames and hands `command` what `_drain` accepts;
        without one it senses nothing and hands `command` None.  With
        `mapping` the tick also queues the pose a scan is due from,
        accepts through `_fold`, and steps pinned to the truth.  Sensing
        runs only when it is due: a queued scan once `_next_scan` is
        reached, a frame capture once `_next_frame` is, and a drain once
        the frame queue's earliest ready time is; on other ticks the
        schedules are only compared.  When `reads()` says `command` will
        not read this tick's detections, the ready frames are popped
        unprojected and `command` gets none.  `ticks` bounds a fixed
        move.  Returns TIMED_OUT when max_time ran out, the reason `after`
        gave, or None.
        """
        cfg = self.cfg
        world = self.world
        robot = world.robot
        frames = self.frames
        poses = self.poses
        max_time = cfg.max_time
        if mapping:
            accept = self._fold
        detections = None
        for _ in count() if ticks is None else range(ticks):
            t = world.t
            if t >= max_time:
                return TIMED_OUT
            if mapping and t >= self._next_scan:
                self.pending_poses.append(robot.believed_pose)
                self._next_scan = t + cfg.scan_interval
            if accept is not None:
                if t >= self._next_frame:
                    boxes = world.detect(cfg.camera, cfg.frame_interval, cfg.detect_max_range)
                    frames.push(t + cfg.noise.detector_latency, (t, boxes))
                    self._next_frame = t + cfg.frame_interval
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

    def _fold(self, capture_t: float, point: GroundPoint, confidence: float) -> None:
        """`_drain` filter of the mapping phase: folds each detection into
        the filter and keeps none."""
        det = RawDetection(capture_t, point, confidence)
        self.hypotheses = ingest(self.hypotheses, det, self.cfg.filter)

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

    def mapping_sweep(self, lanes: list[tuple[GroundPoint, GroundPoint]]) -> OccupancyGrid:
        """Drive each lane from its start to its end, with a full
        look-around at the end, until max_time runs out; then cast the
        queued scans, fold them into the raw grid, and return the grid
        morphologically cleaned.  A drive or spin begun out of time ends
        before its first tick."""
        cfg = self.cfg
        spin = MotionCommand(0.0, cfg.turn_rate)
        for lane in lanes:
            if self.world.t >= cfg.max_time:
                break
            for wp in lane:
                self._drive_to(wp, reach=0.2)
            self._move(spin, 2.0 * math.pi, cfg.turn_rate, mapping=True)
        # frames still in the detector pipeline at phase end
        self._drain(self.world.t + cfg.noise.detector_latency + 1.0, self._fold)
        poses = np.array([(p.x, p.y, p.theta) for p in self.pending_poses]).reshape(-1, 3)
        self.pending_poses = []
        bearings, ranges = self.world.scan(cfg.camera, cfg.n_beams, cfg.scan_max_range, poses)
        integrate_scan(self.grid, poses, bearings, ranges, cfg.scan_max_range)
        return morph_close_open(self.grid)

    # ------------------------------------------------------------------ #
    # phase 3: tour and collection

    def _navigate_to_standoff(self, target: GroundPoint, field: CostField) -> str:
        """Plan over `field`'s grid and drive to a standoff goal near the
        target.  Returns "ok", or an outcome string on failure."""
        cfg = self.cfg
        grid = field.grid
        pose = self.pose
        start = nearest_free(grid, pose.x, pose.y)
        if start is None:
            return UNREACHABLE
        min_dist = min(MIN_APPROACH, 0.5 * cfg.standoff)
        try:
            goal = approach_goal(target, grid, start, cfg.standoff, min_dist, cost_field=field)
        except StartOccupied:
            return UNREACHABLE
        if goal is None:
            return UNREACHABLE
        plan = astar(grid, start, goal.pose.position)
        if plan is None:
            return UNREACHABLE
        follower = PathFollower(plan.waypoints, cfg.nav_speed, cfg.turn_rate, cfg.map_resolution)
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

    def _collect_one(self, target: GroundPoint, field: CostField) -> str:
        """Navigate to a standoff and run pickup, with one verify-retry.
        Returns "done", TimedOut, or Unreachable (episode result; the
        final per-trash outcome is settled against ground truth later)."""
        cfg = self.cfg
        state = None
        for attempt in (0, 1):
            nav = self._navigate_to_standoff(target, field)
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

    def collect(self, grid: OccupancyGrid, targets: list[GroundPoint]) -> dict[int, str]:
        """Inflate `grid`, build one cost field over it, order `targets`
        into a tour and visit each; returns target index to episode
        result."""
        if not targets:
            return {}
        nav_grid = inflate(grid, self.cfg.inflate_radius)
        field = CostField(nav_grid)
        start = nearest_free(nav_grid, self.pose.x, self.pose.y)
        if start is None:
            return {i: UNREACHABLE for i in range(len(targets))}
        tour = order_waypoints(start, targets, nav_grid, field)
        # map tour entries back to target indices; order_waypoints passes
        # the point objects through untouched
        remaining = {id(p): i for i, p in enumerate(targets)}
        results: dict[int, str] = {}
        for point, _flag in tour:
            idx = remaining.pop(id(point))
            if self.world.t >= self.cfg.max_time:
                results[idx] = TIMED_OUT
                continue
            results[idx] = self._collect_one(point, field)
        return results


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


def _mapped(cfg: MissionConfig) -> tuple[_Runner, OccupancyGrid]:
    """A runner that has flown the survey and swept the arena, and the
    cleaned grid of its sweep."""
    runner = _Runner(cfg)
    runner.survey()
    return runner, runner.mapping_sweep(_lanes(cfg))


def run_mission(cfg: MissionConfig) -> MissionReport:
    """Run one mission (or pickup trial) and return its report, writing
    dump files when cfg.output_dir is set."""
    if cfg.scenario == "pickup_trial":
        report, runner = _run_trial(cfg)
    else:
        runner, grid = _mapped(cfg)
        map_file = ""
        if cfg.output_dir:
            os.makedirs(cfg.output_dir, exist_ok=True)
            map_file = os.path.join(cfg.output_dir, "map.grid")
            save_map(grid, map_file)
        targets = confirmed(runner.hypotheses, cfg.filter)
        results = runner.collect(grid, [h.point for h in targets])
        report = build_report(runner.world, targets, results, map_file)
    if cfg.output_dir:
        world, poses, logs = runner.world, runner.poses, runner.episode_logs
        dump(cfg.output_dir, report, world, poses, runner.hypotheses, cfg.filter, logs)
    return report


def run_mapping(cfg: MissionConfig) -> tuple[OccupancyGrid, list[TrashHypothesis], World]:
    """Survey and mapping phases only; returns the cleaned grid, the
    confirmed hypotheses, and the world for inspection."""
    runner, grid = _mapped(cfg)
    return grid, confirmed(runner.hypotheses, cfg.filter), runner.world

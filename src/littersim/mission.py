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

Localization is assumed good while mapping (the believed pose is pinned
to ground truth), then dead-reckons with drift for the whole collection
phase.  That split is what makes late-tour targets harder than early
ones.

`wall_time` in reports is simulated mission time, so identical runs
produce byte-identical reports.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import product

from .clusterfilter import (
    RawDetection,
    TrashHypothesis,
    confirmed,
    ingest,
    write_hypotheses,
)
from .config import ConfigError, MissionConfig, apply_override, build_config
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
from .pickup import MotionCommand, PickupPhase, TooFar, start_pickup
from .pickup import step as pickup_step
from .planner import CostField, StartOccupied, approach_goal, astar, order_waypoints
from .posebuffer import OutOfRange, PoseBuffer, StampedPose, write_trajectory
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

_STOP = MotionCommand()


class Stuck(RuntimeError):
    """Path following made no believed progress for the stall window."""


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
        errs = [p.map_error for p in self.per_trash if math.isfinite(p.map_error)]
        return sum(errs) / len(errs) if errs else float("nan")


class _StallTimer:
    """Raises Stuck when the observed pose stops moving for too long."""

    def __init__(self, pose: Pose2D, eps: float = 0.01, window: float = 10.0):
        self._anchor = pose
        self._eps = eps
        self._window = window
        self._stalled = 0.0

    def update(self, pose: Pose2D, dt: float) -> None:
        if distance(self._anchor.position, pose.position) > self._eps:
            self._anchor = pose
            self._stalled = 0.0
            return
        self._stalled += dt
        if self._stalled >= self._window:
            raise Stuck("no believed progress for the stall window")


class PathFollower:
    """Waypoint chaser: rotate toward the active waypoint, then drive with
    proportional steering.  Intermediate waypoints advance within
    1.5 cell widths, the final one within one cell width."""

    def __init__(
        self,
        waypoints: list[GroundPoint],
        speed: float,
        turn_rate: float,
        resolution: float,
        align_threshold: float = 0.3,
    ):
        if not waypoints:
            raise ValueError("waypoints must be non-empty")
        self._wps = waypoints
        self._speed = speed
        self._turn = turn_rate
        self._advance = 1.5 * resolution
        self._final = resolution
        self._align = align_threshold
        self._idx = 0

    def command(self, pose: Pose2D, dt: float) -> MotionCommand | None:
        """Next command, or None once the final waypoint is reached."""
        last = len(self._wps) - 1
        while self._idx < last and distance(pose.position, self._wps[self._idx]) <= self._advance:
            self._idx += 1
        if self._idx == last and distance(pose.position, self._wps[last]) <= self._final:
            return None
        wp = self._wps[self._idx]
        try:
            err = angle_to(pose, wp)
        except CoincidentPoint:
            err = 0.0
        omega = math.copysign(min(self._turn, abs(err) / dt), err) if err else 0.0
        if abs(err) > self._align:
            return MotionCommand(0.0, omega)
        return MotionCommand(self._speed, omega)


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
        # the lookup buffer forgets poses past its horizon; the trajectory
        # log keeps every one for trajectory.txt
        self.buf = PoseBuffer()
        self.trajectory = [StampedPose(0.0, self.world.robot.believed_pose)]
        self.buf.insert(self.trajectory[0])
        self.hypotheses: list[TrashHypothesis] = []
        self.confirmed_list: list[TrashHypothesis] = []
        self.frames = DelayQueue()
        w = int(math.ceil(cfg.world.arena_w / cfg.map_resolution))
        h = int(math.ceil(cfg.world.arena_h / cfg.map_resolution))
        self.grid = OccupancyGrid(w, h, cfg.map_resolution, Pose2D(0.0, 0.0, 0.0))
        self.nav_grid: OccupancyGrid | None = None
        self.cost_field: CostField | None = None
        self.episode_logs: list[list[str]] = []
        self._next_scan = 0.0
        self._next_frame = 0.0

    # ------------------------------------------------------------------ #
    # plumbing

    @property
    def pose(self) -> Pose2D:
        return self.world.robot.believed_pose

    def _step(self, cmd: MotionCommand, mapping: bool) -> None:
        self.world.step_world(cmd)
        if mapping:
            self.world.sync_believed()
        sp = StampedPose(self.world.t, self.world.robot.believed_pose)
        self.buf.insert(sp)
        self.trajectory.append(sp)

    def _out_of_time(self) -> bool:
        return self.world.t >= self.cfg.max_time

    def _project(self, capture_t: float, boxes) -> list[tuple[GroundPoint, float]]:
        """Boxes to map-frame points using the pose at capture time."""
        try:
            pose = self.buf.pose_at(capture_t)
        except OutOfRange:
            return []  # stale frame, older than the trajectory horizon
        out = []
        for box in boxes:
            try:
                point = project_detection(pose, box, self.cfg.camera)
            except DegenerateDepth:
                continue
            out.append((point, box.confidence))
        return out

    def _capture_frame(self) -> None:
        t = self.world.t
        if t >= self._next_frame:
            boxes = self.world.detect(
                self.cfg.camera, self.cfg.frame_interval, self.cfg.detect_max_range
            )
            self.frames.push(t + self.cfg.noise.detector_latency, (t, boxes))
            self._next_frame = t + self.cfg.frame_interval

    def _sense_map(self) -> None:
        """Mapping-phase sensing: grid scans plus filter detections."""
        t = self.world.t
        if t >= self._next_scan:
            scan = self.world.scan(self.cfg.camera, self.cfg.n_beams, self.cfg.scan_max_range)
            integrate_scan(self.grid, self.pose, scan)
            self._next_scan = t + self.cfg.scan_interval
        self._capture_frame()
        self._ingest_ready()

    def _ingest_ready(self) -> None:
        for capture_t, boxes in self.frames.pop_ready(self.world.t):
            for point, conf in self._project(capture_t, boxes):
                self.hypotheses = ingest(
                    self.hypotheses, RawDetection(capture_t, point, conf), self.cfg.filter
                )

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
        stall = _StallTimer(self.pose)
        jogs = 0
        while not self._out_of_time():
            self._sense_map()
            pose = self.pose
            if distance(pose.position, wp) <= reach:
                return
            try:
                err = angle_to(pose, wp)
            except CoincidentPoint:
                return
            dt = cfg.world.dt
            omega = math.copysign(min(cfg.turn_rate, abs(err) / dt), err) if err else 0.0
            if abs(err) > 0.3:
                cmd = MotionCommand(0.0, omega)
            else:
                cmd = MotionCommand(cfg.mapping_speed, omega)
            self._step(cmd, mapping=True)
            if self.world.last_contact:
                jogs += 1
                if jogs > 4:
                    return
                self._jog_around()
                stall = _StallTimer(self.pose)
                continue
            try:
                stall.update(self.pose, dt)
            except Stuck:
                return

    def _jog_around(self) -> None:
        """Sidestep after a contact: back off, turn a quarter toward the
        arena center, advance past the obstruction.  Keeps sensing so the
        blocker ends up on the map."""
        cfg = self.cfg
        self._reverse(0.4, cfg.mapping_speed, mapping=True)
        pose = self.pose
        center = GroundPoint(cfg.world.arena_w / 2.0, cfg.world.arena_h / 2.0)
        try:
            toward = angle_to(pose, center)
        except CoincidentPoint:
            toward = 0.0
        quarter = math.copysign(math.pi / 2.0, toward if toward else 1.0)
        steps = int(math.ceil(abs(quarter) / (cfg.turn_rate * cfg.world.dt)))
        for _ in range(steps):
            if self._out_of_time():
                return
            self._sense_map()
            self._step(MotionCommand(0.0, math.copysign(cfg.turn_rate, quarter)), mapping=True)
        ahead = int(math.ceil(0.8 / (cfg.mapping_speed * cfg.world.dt)))
        for _ in range(ahead):
            if self._out_of_time():
                return
            self._sense_map()
            self._step(MotionCommand(cfg.mapping_speed, 0.0), mapping=True)
            if self.world.last_contact:
                return

    def _reverse(self, dist: float, speed: float, mapping: bool = False) -> None:
        """Back up a straight distance, stopping early on contact."""
        cfg = self.cfg
        steps = int(math.ceil(dist / (speed * cfg.world.dt)))
        for _ in range(steps):
            if self._out_of_time():
                return
            if mapping:
                self._sense_map()
            self._step(MotionCommand(-speed, 0.0), mapping=mapping)
            if self.world.last_contact:
                return

    def _spin(self, angle: float) -> None:
        cfg = self.cfg
        steps = int(math.ceil(angle / (cfg.turn_rate * cfg.world.dt)))
        for _ in range(steps):
            if self._out_of_time():
                return
            self._sense_map()
            self._step(MotionCommand(0.0, cfg.turn_rate), mapping=True)

    def mapping_sweep(self) -> None:
        """Lawnmower coverage with a full look-around at each lane end,
        then morphological cleanup of the finished grid."""
        cfg = self.cfg
        margin = 0.5
        arena_w, arena_h = cfg.world.arena_w, cfg.world.arena_h
        lane_xs = []
        x = margin
        while x <= arena_w - margin + 1e-9:
            lane_xs.append(x)
            x += cfg.mapping_lane_spacing
        y_lo, y_hi = margin, arena_h - margin
        upward = True
        waypoints: list[GroundPoint] = []
        for lx in lane_xs:
            ys = (y_lo, y_hi) if upward else (y_hi, y_lo)
            waypoints.extend(GroundPoint(lx, y) for y in ys)
            upward = not upward
        for i, wp in enumerate(waypoints):
            if self._out_of_time():
                break
            self._drive_to(wp, reach=0.2)
            if i % 2 == 1:
                self._spin(2.0 * math.pi)
        # frames still in the detector pipeline at phase end
        for capture_t, boxes in self.frames.pop_ready(self.world.t + self.cfg.noise.detector_latency + 1.0):
            for point, conf in self._project(capture_t, boxes):
                self.hypotheses = ingest(
                    self.hypotheses, RawDetection(capture_t, point, conf), self.cfg.filter
                )
        self.grid = morph_close_open(self.grid)

    # ------------------------------------------------------------------ #
    # phases 3 and 4: tour and collection

    def _nearest_free(self, x: float, y: float, max_radius: float = 0.6) -> GroundPoint | None:
        """Center of the Free cell nearest to (x, y), or None if nothing
        Free lies within max_radius.  Ring search, ties toward lower
        (row, col)."""
        grid = self.nav_grid
        assert grid is not None
        res = grid.resolution
        span_x = grid.width * res
        span_y = grid.height * res
        cx = min(max(x, 0.5 * res), span_x - 0.5 * res)
        cy = min(max(y, 0.5 * res), span_y - 0.5 * res)
        cell = grid.world_to_cell(cx, cy)
        if cell is None:
            return None
        col0, row0 = cell
        max_r = int(math.ceil(max_radius / res)) + 1
        for ring in range(max_r + 1):
            best = None
            best_d = math.inf
            for row in range(row0 - ring, row0 + ring + 1):
                if not 0 <= row < grid.height:
                    continue
                for col in range(col0 - ring, col0 + ring + 1):
                    if max(abs(row - row0), abs(col - col0)) != ring:
                        continue
                    if not 0 <= col < grid.width:
                        continue
                    if grid.cells[row, col] != FREE:
                        continue
                    px, py = grid.cell_center(col, row)
                    d = math.hypot(px - x, py - y)
                    if d < best_d - 1e-12:
                        best_d = d
                        best = (col, row)
            if best is not None:
                px, py = grid.cell_center(best[0], best[1])
                return GroundPoint(px, py)
        return None

    def _navigate_to_standoff(self, target: GroundPoint) -> str:
        """Plan and drive to a standoff goal near the target.  Returns
        "ok", or an outcome string on failure."""
        cfg = self.cfg
        assert self.nav_grid is not None and self.cost_field is not None
        pose = self.pose
        start = self._nearest_free(pose.x, pose.y)
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
        stall = _StallTimer(self.pose)
        while True:
            if self._out_of_time():
                return TIMED_OUT
            cmd = follower.command(self.pose, cfg.world.dt)
            if cmd is None:
                return "ok"
            self._step(cmd, mapping=False)
            try:
                stall.update(self.pose, cfg.world.dt)
            except Stuck:
                return "stuck"

    def _pickup_episode(self, state, expected: GroundPoint) -> PickupPhase:
        """Run one pickup FSM episode to a terminal phase (or the hard
        cap), logging every step."""
        cfg = self.cfg
        dt = cfg.world.dt
        t0 = self.world.t
        cap = (
            cfg.pickup.timeout
            + (cfg.standoff + 1.0) / cfg.pickup.drive_speed
            + 2.0 * math.pi / cfg.pickup.spin_rate
            + 5.0
        )
        log: list[str] = []
        while state.phase not in (PickupPhase.DONE, PickupPhase.TIMED_OUT):
            if self.world.t - t0 >= cap or self._out_of_time():
                break
            self._capture_frame()
            detections = []
            for capture_t, boxes in self.frames.pop_ready(self.world.t):
                for point, conf in self._project(capture_t, boxes):
                    if distance(point, expected) <= cfg.confirm_radius:
                        detections.append((point, conf))
            state, cmd = pickup_step(state, self.pose, detections, cfg.pickup, dt)
            p = self.pose
            log.append(
                f"{self.world.t!r} {state.phase.value} {cmd.v!r} {cmd.omega!r} "
                f"{1 if cmd.mechanism_on else 0} {p.x!r} {p.y!r} {p.theta!r}"
            )
            self._step(cmd, mapping=False)
        self.episode_logs.append(log)
        if state.phase is PickupPhase.DONE:
            return PickupPhase.DONE
        return PickupPhase.TIMED_OUT

    def _rotate_to_face(self, target: GroundPoint, tolerance: float = 0.2) -> None:
        cfg = self.cfg
        while not self._out_of_time():
            try:
                err = angle_to(self.pose, target)
            except CoincidentPoint:
                return
            if abs(err) <= tolerance:
                return
            omega = math.copysign(min(cfg.turn_rate, abs(err) / cfg.world.dt), err)
            self._step(MotionCommand(0.0, omega), mapping=False)

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
        steps = int(math.ceil(hold / cfg.world.dt))
        seen: list[GroundPoint] = []
        for _ in range(steps):
            if self._out_of_time():
                break
            self._capture_frame()
            for capture_t, boxes in self.frames.pop_ready(self.world.t):
                for point, conf in self._project(capture_t, boxes):
                    if (
                        conf >= cfg.pickup.confidence_threshold
                        and distance(point, expected) <= cfg.confirm_radius
                    ):
                        seen.append(point)
            self._step(_STOP, mapping=False)
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
        phase = self._pickup_episode(state, target)
        if phase is not PickupPhase.DONE:
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
        start = self._nearest_free(self.pose.x, self.pose.y)
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
        write_trajectory(self.trajectory, os.path.join(out_dir, "trajectory.txt"))
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
                fh.write("\n".join(log))
                if log:
                    fh.write("\n")


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


def run_mission(cfg: MissionConfig) -> MissionReport:
    """Run one mission (or pickup trial) and return its report, writing
    dump files when cfg.output_dir is set."""
    if cfg.scenario == "pickup_trial":
        report, runner = _run_trial(cfg)
        if cfg.output_dir:
            runner.dump(report, cfg.output_dir)
        return report
    runner = _Runner(cfg)
    runner.survey()
    runner.mapping_sweep()
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
    runner = _Runner(cfg)
    runner.survey()
    runner.mapping_sweep()
    return runner.grid, confirmed(runner.hypotheses, cfg.filter), runner.world


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_batch(
    raw: dict[str, list[str]],
    seeds: list[int],
    sweep: list[tuple[str, list[str]]],
    out_dir: str | None = None,
) -> tuple[list[dict], list[dict]]:
    """Run every sweep-point x seed combination sequentially.

    Returns (rows, aggregates) and, when out_dir is set, writes runs.csv
    (one row per run) and aggregate.csv (one row per sweep point).
    """
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    sweep_keys = [key for key, _ in sweep]
    combos = list(product(*(values for _, values in sweep)))
    rows: list[dict] = []
    aggregates: list[dict] = []
    for combo in combos:
        combo_rows: list[dict] = []
        for seed in seeds:
            raw_run = dict(raw)
            for key, value in zip(sweep_keys, combo):
                apply_override(raw_run, key, value)
            apply_override(raw_run, "world.seed", str(seed))
            cfg = build_config(raw_run)
            try:
                report = run_mission(cfg)
            except ConfigError as exc:
                point = "".join(f", {k}={v}" for k, v in zip(sweep_keys, combo))
                raise ConfigError(f"seed {seed}{point}: {exc}") from None
            row = {"seed": seed}
            row.update(zip(sweep_keys, combo))
            row.update(
                success=report.success,
                n_collected=report.n_collected,
                n_trash=report.n_trash,
                mean_map_error_m=report.mean_map_error,
                wall_time_s=report.wall_time,
            )
            rows.append(row)
            combo_rows.append(row)
        n = len(combo_rows)
        errs = [r["mean_map_error_m"] for r in combo_rows if math.isfinite(r["mean_map_error_m"])]
        agg = dict(zip(sweep_keys, combo))
        agg.update(
            n_runs=n,
            success_rate=sum(1 for r in combo_rows if r["success"]) / n,
            mean_map_error_m=sum(errs) / len(errs) if errs else float("nan"),
            mean_wall_time_s=sum(r["wall_time_s"] for r in combo_rows) / n,
        )
        aggregates.append(agg)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        run_cols = ["seed", *sweep_keys, "success", "n_collected", "n_trash", "mean_map_error_m", "wall_time_s"]
        with open(os.path.join(out_dir, "runs.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(run_cols) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in run_cols) + "\n")
        agg_cols = [*sweep_keys, "n_runs", "success_rate", "mean_map_error_m", "mean_wall_time_s"]
        with open(os.path.join(out_dir, "aggregate.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(agg_cols) + "\n")
            for agg in aggregates:
                fh.write(",".join(_fmt(agg[c]) for c in agg_cols) + "\n")
    return rows, aggregates

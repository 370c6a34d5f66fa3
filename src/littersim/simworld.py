"""Synthetic world: kinematics, noisy sensing, and the aerial survey pass.

The world tracks two poses for the one robot.  `true_pose` is ground truth
and integrates the commanded unicycle motion exactly, stopping at obstacle
contact.  `believed_pose` is what the robot thinks, integrated from the
same commands plus a heading bias per meter traveled and per-step Gaussian
noise; the gap between the two is odometry drift, and it is the failure
mode everything downstream has to live with.

All randomness in a run flows through the single generator owned by the
World, seeded from WorldConfig.seed, so a (config, seed) pair replays
bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    BoundingBox,
    CameraModel,
    GroundPoint,
    Pose2D,
    ground_point_to_pixel,
    wrap_angle,
)
from .clusterfilter import RawDetection

MAX_TRASH_MASS = 0.64  # kg; heavier items jam the collection mechanism
TRASH_RADIUS = 0.1  # nominal object radius used for apparent size, meters


class LayoutError(ValueError):
    """The world layout cannot be built: the spacing rules leave no room,
    an obstacle, item or start pose falls outside the arena, or the start
    pose lies inside an obstacle."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("rectangle must have positive extent")

    def contains(self, x: float, y: float, margin: float = 0.0) -> bool:
        return (
            self.x0 - margin <= x <= self.x1 + margin
            and self.y0 - margin <= y <= self.y1 + margin
        )

    def distance_to(self, x: float, y: float) -> float:
        dx = max(self.x0 - x, 0.0, x - self.x1)
        dy = max(self.y0 - y, 0.0, y - self.y1)
        return math.hypot(dx, dy)


@dataclass(frozen=True)
class NoiseModel:
    """Every stochastic knob in one place.

    odom_heading_bias: believed-heading bias, rad per meter traveled.
    odom_noise_sigma: per-step Gaussian sigma added to the believed (v, omega).
    detect_pos_sigma: top-down survey detection position sigma, meters.
    p_detect_*: detection probability clamp(intercept - slope*range, min, max).
    pixel_sigma: detector box center jitter, pixels.
    depth_sigma_per_meter: depth sample sigma per meter of ground range.
    conf_mu_*: detection score mean, intercept - slope*range.
    conf_sigma: detection score sigma around that mean.
    false_positive_rate: phantom boxes per second of camera time.
    detector_latency: capture-to-delivery delay of the detector, seconds.
    comm_latency: survey message delay, seconds.
    comm_drop: survey message drop probability.
    """

    odom_heading_bias: float = 0.02
    odom_noise_sigma: float = 0.12
    detect_pos_sigma: float = 0.15
    p_detect_intercept: float = 1.0
    p_detect_slope: float = 0.1
    p_detect_min: float = 0.3
    p_detect_max: float = 0.95
    pixel_sigma: float = 28.0
    depth_sigma_per_meter: float = 0.02
    conf_mu_intercept: float = 0.9
    conf_mu_slope: float = 0.1
    conf_sigma: float = 0.12
    false_positive_rate: float = 0.04
    detector_latency: float = 0.5
    comm_latency: float = 0.2
    comm_drop: float = 0.05

    def p_detect(self, ground_range: float) -> float:
        p = self.p_detect_intercept - self.p_detect_slope * ground_range
        return min(max(p, self.p_detect_min), self.p_detect_max)

    def conf_mu(self, ground_range: float) -> float:
        return self.conf_mu_intercept - self.conf_mu_slope * ground_range

    @staticmethod
    def zero() -> "NoiseModel":
        """Fully deterministic sensing and odometry: every sighting happens,
        positions are exact, nothing is delayed or dropped."""
        return NoiseModel(
            odom_heading_bias=0.0,
            odom_noise_sigma=0.0,
            detect_pos_sigma=0.0,
            p_detect_intercept=1.0,
            p_detect_slope=0.0,
            p_detect_min=1.0,
            p_detect_max=1.0,
            pixel_sigma=0.0,
            depth_sigma_per_meter=0.0,
            conf_sigma=0.0,
            false_positive_rate=0.0,
            detector_latency=0.0,
            comm_latency=0.0,
            comm_drop=0.0,
        )


@dataclass(frozen=True)
class WorldConfig:
    """Scenario description.  Explicit obstacle/trash lists win over the
    random counts; validation happens in World once the layout is final."""

    arena_w: float = 8.0
    arena_h: float = 6.0
    dt: float = 0.05
    seed: int = 0
    start: Pose2D = field(default_factory=lambda: Pose2D(0.6, 0.6, 0.0))
    obstacles: tuple[Rect, ...] | None = None
    obstacle_count: int = 5
    trash: tuple[tuple[GroundPoint, float], ...] | None = None
    trash_count: int = 2
    trash_mass: float = 0.3

    def __post_init__(self) -> None:
        if self.arena_w <= 0.0 or self.arena_h <= 0.0:
            raise ValueError("arena must have positive extent")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.obstacle_count < 0 or self.trash_count < 0:
            raise ValueError("counts must be non-negative")


@dataclass
class TrashItem:
    position: GroundPoint
    mass: float
    collected: bool = False


@dataclass
class RobotState:
    true_pose: Pose2D
    believed_pose: Pose2D


class DelayQueue:
    """FIFO that releases items once their ready time has passed.  Models
    the detector pipeline latency between frame capture and delivery."""

    def __init__(self) -> None:
        self._items: list[tuple[float, object]] = []

    def push(self, ready_t: float, item: object) -> None:
        self._items.append((ready_t, item))

    def pop_ready(self, now: float) -> list[object]:
        out = [item for ready, item in self._items if ready <= now]
        self._items = [(ready, item) for ready, item in self._items if ready > now]
        return out


def random_layout(
    rng: np.random.Generator,
    arena_w: float,
    arena_h: float,
    n_obstacles: int,
    n_trash: int,
    start: Pose2D,
    trash_mass: float,
) -> tuple[tuple[Rect, ...], tuple[tuple[GroundPoint, float], ...]]:
    """Rejection-sample a solvable layout.

    Spacing rules keep every scenario traversable: obstacle faces stay 0.8 m
    off the walls and 0.7 m off each other (corridors survive inflation),
    trash keeps 0.6 m clearance from obstacles, 0.5 m from walls, 1.5 m
    from other trash (distinct fusion windows), and 1.0 m from the start.
    """
    obstacles: list[Rect] = []
    for _ in range(n_obstacles):
        for _attempt in range(200):
            w = rng.uniform(0.3, 1.0)
            h = rng.uniform(0.3, 1.0)
            lo_x, hi_x = 0.8 + w / 2, arena_w - 0.8 - w / 2
            lo_y, hi_y = 0.8 + h / 2, arena_h - 0.8 - h / 2
            if hi_x < lo_x or hi_y < lo_y:
                continue  # no room for this box within the wall clearance
            cx = rng.uniform(lo_x, hi_x)
            cy = rng.uniform(lo_y, hi_y)
            cand = Rect(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
            if cand.distance_to(start.x, start.y) < 0.6:
                continue
            ok = True
            for other in obstacles:
                gx = max(other.x0 - cand.x1, cand.x0 - other.x1)
                gy = max(other.y0 - cand.y1, cand.y0 - other.y1)
                if max(gx, gy) < 0.7:
                    ok = False
                    break
            if ok:
                obstacles.append(cand)
                break
        else:
            raise LayoutError("could not place obstacles under the spacing rules")
    if n_trash and min(arena_w, arena_h) < 1.0:
        raise LayoutError("arena too small to keep trash 0.5 m off the walls")
    trash: list[tuple[GroundPoint, float]] = []
    for _ in range(n_trash):
        for _attempt in range(200):
            x = rng.uniform(0.5, arena_w - 0.5)
            y = rng.uniform(0.5, arena_h - 0.5)
            if math.hypot(x - start.x, y - start.y) < 1.0:
                continue
            if any(ob.distance_to(x, y) < 0.6 for ob in obstacles):
                continue
            if any(math.hypot(x - p.x, y - p.y) < 1.5 for p, _ in trash):
                continue
            trash.append((GroundPoint(x, y), trash_mass))
            break
        else:
            raise LayoutError("could not place trash under the spacing rules")
    return tuple(obstacles), tuple(trash)


class World:
    """Mutable simulation state driven by step_world."""

    def __init__(self, cfg: WorldConfig, noise: NoiseModel, brush_halfwidth: float = 0.15):
        self.cfg = cfg
        self.noise = noise
        self.brush_halfwidth = brush_halfwidth
        self.rng = np.random.default_rng(cfg.seed)
        self.arena = Rect(0.0, 0.0, cfg.arena_w, cfg.arena_h)
        obstacles = cfg.obstacles
        trash = cfg.trash
        if obstacles is None or trash is None:
            gen_obs, gen_trash = random_layout(
                self.rng,
                cfg.arena_w,
                cfg.arena_h,
                cfg.obstacle_count if obstacles is None else 0,
                cfg.trash_count if trash is None else 0,
                cfg.start,
                cfg.trash_mass,
            )
            if obstacles is None:
                obstacles = gen_obs
            if trash is None:
                trash = gen_trash
        self.obstacles = obstacles
        self.trash = [TrashItem(p, m) for p, m in trash]
        self._validate()
        self.robot = RobotState(cfg.start, cfg.start)
        self.t = 0.0
        self.last_contact = False

    def _validate(self) -> None:
        for ob in self.obstacles:
            if not (
                self.arena.x0 <= ob.x0
                and ob.x1 <= self.arena.x1
                and self.arena.y0 <= ob.y0
                and ob.y1 <= self.arena.y1
            ):
                raise LayoutError(f"obstacle {ob} extends outside the arena")
        for item in self.trash:
            if not self.arena.contains(item.position.x, item.position.y):
                raise LayoutError(f"trash at {item.position} lies outside the arena")
            if item.mass <= 0.0 or item.mass > MAX_TRASH_MASS:
                raise LayoutError(
                    f"trash mass {item.mass} kg outside (0, {MAX_TRASH_MASS}]"
                )
        start = self.cfg.start
        if not self.arena.contains(start.x, start.y):
            raise LayoutError("start pose lies outside the arena")
        for ob in self.obstacles:
            if ob.contains(start.x, start.y):
                raise LayoutError(f"start pose lies inside obstacle {ob}")

    # ------------------------------------------------------------------ #
    # kinematics

    def _collides(self, x: float, y: float) -> bool:
        if not self.arena.contains(x, y):
            return True
        return any(ob.contains(x, y) for ob in self.obstacles)

    def step_world(self, cmd) -> None:
        """Advance one tick of cfg.dt under a MotionCommand-like object.

        True pose: exact unicycle integration, stopped at obstacle contact
        by bisecting the tick down to the contact fraction.  Believed pose:
        same integrator over the noisy, biased command, scaled by the same
        contact fraction (stalled wheels do not advance odometry).  With
        the mechanism on, any uncollected trash within brush_halfwidth of
        the segment the base swept this tick is collected.
        """
        dt = self.cfg.dt
        v = cmd.v
        omega = cmd.omega
        old = self.robot.true_pose
        frac = 1.0
        nxt = _advance(old, v, omega, dt)
        self.last_contact = False
        if self._collides(nxt.x, nxt.y):
            self.last_contact = True
            lo, hi = 0.0, 1.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                p = _advance(old, v, omega, mid * dt)
                if self._collides(p.x, p.y):
                    hi = mid
                else:
                    lo = mid
            frac = lo
            nxt = _advance(old, v, omega, frac * dt)
        self.robot.true_pose = nxt

        nz = self.noise
        moving = abs(v) > 1e-12 or abs(omega) > 1e-12
        bv, bo = v, omega + nz.odom_heading_bias * v
        if moving and nz.odom_noise_sigma > 0.0:
            # wheel measurement noise, present only while the wheels turn
            bv += self.rng.normal(0.0, nz.odom_noise_sigma)
            bo += self.rng.normal(0.0, nz.odom_noise_sigma)
        self.robot.believed_pose = _advance(
            self.robot.believed_pose, bv * frac, bo * frac, dt
        )

        if getattr(cmd, "mechanism_on", False):
            for item in self.trash:
                if item.collected:
                    continue
                d = _seg_dist(item.position.x, item.position.y, old.x, old.y, nxt.x, nxt.y)
                if d <= self.brush_halfwidth:
                    item.collected = True
        self.t += dt

    def sync_believed(self) -> None:
        """Snap the believed pose onto ground truth (a localization refresh)."""
        self.robot.believed_pose = self.robot.true_pose

    # ------------------------------------------------------------------ #
    # sensing

    def _ray_ranges(self, ox: float, oy: float, angles: np.ndarray) -> np.ndarray:
        """Distance to the nearest structure (obstacle face or arena wall)
        along each angle.  Origin must be inside the arena."""
        dx = np.cos(angles)
        dy = np.sin(angles)
        dx = np.where(np.abs(dx) < 1e-12, 1e-12, dx)
        dy = np.where(np.abs(dy) < 1e-12, 1e-12, dy)
        # arena: the ray starts inside, so the exit is the min positive slab exit
        tx = np.maximum((self.arena.x0 - ox) / dx, (self.arena.x1 - ox) / dx)
        ty = np.maximum((self.arena.y0 - oy) / dy, (self.arena.y1 - oy) / dy)
        best = np.minimum(tx, ty)
        for ob in self.obstacles:
            t1x = (ob.x0 - ox) / dx
            t2x = (ob.x1 - ox) / dx
            t1y = (ob.y0 - oy) / dy
            t2y = (ob.y1 - oy) / dy
            tmin = np.maximum(np.minimum(t1x, t2x), np.minimum(t1y, t2y))
            tmax = np.minimum(np.maximum(t1x, t2x), np.maximum(t1y, t2y))
            hit = (tmax >= tmin) & (tmax > 0.0)
            entry = np.where(tmin > 0.0, tmin, np.inf)
            best = np.where(hit, np.minimum(best, entry), best)
        return best

    def scan(self, cam: CameraModel, n_beams: int = 32, max_range: float = 3.5) -> list[tuple[float, float, float]]:
        """Forward range scan over the camera's horizontal FOV, cast from
        the robot base.  Entries are (bearing, range, max_range) with range
        capped at max_range (a capped ray means no hit)."""
        pose = self.robot.true_pose
        bearings = np.linspace(-0.5 * cam.hfov, 0.5 * cam.hfov, n_beams)
        dists = self._ray_ranges(pose.x, pose.y, pose.theta + bearings)
        dists = np.minimum(dists, max_range)
        return [(float(b), float(d), max_range) for b, d in zip(bearings, dists)]

    def detect(
        self,
        cam: CameraModel,
        frame_dt: float,
        detect_max_range: float = 4.0,
    ) -> list[BoundingBox]:
        """One detector frame from the true pose.

        Every uncollected, unoccluded trash item inside the frustum and
        within detect_max_range is seen with probability p_detect(range);
        a sighting renders the exact box center, then jitters it by
        pixel_sigma and the depth sample by depth_sigma_per_meter * range.
        Boxes that would clip the image edge are not emitted.  Poisson
        false positives at false_positive_rate per second are appended
        with uniform position, depth, and score.
        """
        nz = self.noise
        pose = self.robot.true_pose
        cam_x = pose.x + math.cos(pose.theta) * cam.forward_offset
        cam_y = pose.y + math.sin(pose.theta) * cam.forward_offset
        out: list[BoundingBox] = []
        for item in self.trash:
            if item.collected:
                continue
            gr = math.hypot(item.position.x - cam_x, item.position.y - cam_y)
            if gr > detect_max_range or gr < 1e-6:
                continue
            pix = ground_point_to_pixel(pose, item.position, cam)
            if pix is None:
                continue
            ang = math.atan2(item.position.y - cam_y, item.position.x - cam_x)
            hit = float(self._ray_ranges(cam_x, cam_y, np.array([ang]))[0])
            if hit < gr - 1e-9:
                continue  # occluded
            if self.rng.uniform() >= nz.p_detect(gr):
                continue
            box = self._render_box(pix, gr, cam)
            if box is not None:
                out.append(box)
        if nz.false_positive_rate > 0.0 and frame_dt > 0.0:
            k = int(self.rng.poisson(nz.false_positive_rate * frame_dt))
            for _ in range(k):
                half = self.rng.uniform(4.0, 24.0)
                u = self.rng.uniform(half, cam.image_width - half)
                v = self.rng.uniform(0.5 * cam.image_height, cam.image_height - half)
                depth = self.rng.uniform(cam.mount_height + 0.1, detect_max_range)
                conf = self.rng.uniform()
                out.append(
                    BoundingBox(u - half, u + half, v - half, v + half, depth, conf)
                )
        return out

    def _render_box(
        self, pix: tuple[float, float, float], gr: float, cam: CameraModel
    ) -> BoundingBox | None:
        nz = self.noise
        u_c, v_c, depth = pix
        if nz.pixel_sigma > 0.0:
            u_c += self.rng.normal(0.0, nz.pixel_sigma)
            v_c += self.rng.normal(0.0, nz.pixel_sigma)
        if nz.depth_sigma_per_meter > 0.0:
            depth += self.rng.normal(0.0, nz.depth_sigma_per_meter * gr)
        depth = max(depth, cam.mount_height)
        # apparent half-size of a nominal object at this range
        fx = cam.image_width / (2.0 * math.tan(0.5 * cam.hfov))
        half = max((TRASH_RADIUS / gr) * fx, 2.0)
        if u_c - half < 0.0 or u_c + half > cam.image_width:
            return None
        if v_c - half < 0.0 or v_c + half > cam.image_height:
            return None
        conf = self.conf_sample(gr)
        return BoundingBox(u_c - half, u_c + half, v_c - half, v_c + half, depth, conf)

    def conf_sample(self, ground_range: float) -> float:
        mu = self.noise.conf_mu(ground_range)
        if self.noise.conf_sigma > 0.0:
            mu += self.rng.normal(0.0, self.noise.conf_sigma)
        return min(max(mu, 0.0), 1.0)


def _advance(pose: Pose2D, v: float, omega: float, dt: float) -> Pose2D:
    """Exact unicycle step: straight line for omega ~ 0, circle arc else."""
    if abs(omega) < 1e-9:
        return Pose2D(
            pose.x + v * dt * math.cos(pose.theta),
            pose.y + v * dt * math.sin(pose.theta),
            pose.theta + omega * dt,
        )
    th1 = pose.theta + omega * dt
    r = v / omega
    return Pose2D(
        pose.x + r * (math.sin(th1) - math.sin(pose.theta)),
        pose.y - r * (math.cos(th1) - math.cos(pose.theta)),
        th1,
    )


def _seg_dist(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> float:
    """Distance from point p to segment ab."""
    abx, aby = bx - ax, by - ay
    apx, apy = px - ax, py - ay
    denom = abx * abx + aby * aby
    if denom < 1e-18:
        return math.hypot(apx, apy)
    t = min(max((apx * abx + apy * aby) / denom, 0.0), 1.0)
    return math.hypot(apx - t * abx, apy - t * aby)


def through_channel(
    messages: list[tuple[float, RawDetection]],
    latency: float,
    drop: float,
    rng: np.random.Generator,
) -> list[tuple[float, RawDetection]]:
    """Lossy, delayed delivery: each (send_t, msg) is dropped with
    probability `drop`, otherwise delivered at send_t + latency.  Returns
    (delivery_t, msg) sorted by delivery time, ties in send order."""
    delivered = []
    for send_t, msg in messages:
        if drop > 0.0 and rng.uniform() < drop:
            continue
        delivered.append((send_t + latency, msg))
    delivered.sort(key=lambda pair: pair[0])
    return delivered


def aerial_survey(
    world: World,
    lane_spacing: float = 1.5,
    rng: np.random.Generator | None = None,
    drone_speed: float = 2.0,
    confidence: float = 0.9,
) -> list[RawDetection]:
    """Top-down survey pass over the arena, delivered through the comm link.

    The drone flies boustrophedon lanes parallel to y, spaced lane_spacing
    apart and spanning the arena width inclusive of both edges, overflying
    each lane end by one footprint so edge items get full frame coverage.
    Frames fire every lane_spacing of travel; the camera footprint is a
    square of half-width lane_spacing, so every arena point is covered by
    at least two lanes and at least two frames per lane (>= 4 sightings
    before drops).  Each framed, uncollected item yields one detection at
    its true position plus N(0, detect_pos_sigma) per axis.  Messages then
    pass through the lossy link (comm_drop, comm_latency) and arrive in
    delivery order.
    """
    if lane_spacing <= 0.0:
        raise ValueError("lane_spacing must be positive")
    if rng is None:
        rng = world.rng
    nz = world.noise
    w = lane_spacing
    arena = world.arena
    lane_xs = []
    x = arena.x0
    while x < arena.x1 - 1e-9:
        lane_xs.append(x)
        x += lane_spacing
    lane_xs.append(arena.x1)
    frame_interval = lane_spacing / drone_speed
    t = 0.0
    messages: list[tuple[float, RawDetection]] = []
    for i, lx in enumerate(lane_xs):
        y0, y1 = arena.y0 - w, arena.y1 + w
        if i % 2 == 1:
            y0, y1 = y1, y0
        stepdir = math.copysign(lane_spacing, y1 - y0)
        frames = [y0 + k * stepdir for k in range(int(abs(y1 - y0) / lane_spacing) + 1)]
        for fy in frames:
            for item in world.trash:
                if item.collected:
                    continue
                if abs(item.position.x - lx) <= w and abs(item.position.y - fy) <= w:
                    px = item.position.x
                    py = item.position.y
                    if nz.detect_pos_sigma > 0.0:
                        px += rng.normal(0.0, nz.detect_pos_sigma)
                        py += rng.normal(0.0, nz.detect_pos_sigma)
                    messages.append(
                        (t, RawDetection(t, GroundPoint(px, py), confidence))
                    )
            if nz.false_positive_rate > 0.0:
                k = int(rng.poisson(nz.false_positive_rate * frame_interval))
                for _ in range(k):
                    messages.append(
                        (
                            t,
                            RawDetection(
                                t,
                                GroundPoint(
                                    rng.uniform(arena.x0, arena.x1),
                                    rng.uniform(arena.y0, arena.y1),
                                ),
                                float(rng.uniform()),
                            ),
                        )
                    )
            t += frame_interval
    delivered = through_channel(messages, nz.comm_latency, nz.comm_drop, rng)
    return [msg for _, msg in delivered]

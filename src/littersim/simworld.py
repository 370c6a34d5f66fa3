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
)
from .clusterfilter import RawDetection

MAX_TRASH_MASS = 0.64  # kg; heavier items jam the collection mechanism
TRASH_RADIUS = 0.1  # nominal object radius used for apparent size, meters
# largest half-size of a phantom detector box, pixels; the image must be at
# least twice this wide and tall for a phantom to fit
PHANTOM_MAX_HALF = 24.0
# a phantom box's depth is drawn above the camera height plus this, meters
PHANTOM_DEPTH_MARGIN = 0.1
# rays `World.scan` casts together in one `_ray_ranges` call.  Blocks of
# 1024 cast a default sweep in about 1.3 ms against 1.7 ms, but their
# temporaries raise peak RSS over 32 default missions by about 0.3 MB.
SCAN_BLOCK = 256
DRONE_SPEED = 2.0  # survey ground speed, m/s
SURVEY_CONFIDENCE = 0.9  # score of every true survey detection


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

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
    the detector pipeline latency between frame capture and delivery.

    Items may be pushed out of ready-time order; `pop_ready` releases every
    ready item in push order.  `earliest` is the earliest ready time of a
    held item (inf when empty): nothing is ready while `now < earliest`,
    so a caller that polls every tick compares first and calls
    `pop_ready` only once something is due.
    """

    def __init__(self) -> None:
        self._items: list[tuple[float, object]] = []
        self.earliest = math.inf

    def push(self, ready_t: float, item: object) -> None:
        self._items.append((ready_t, item))
        if ready_t < self.earliest:
            self.earliest = ready_t

    def pop_ready(self, now: float) -> list[object]:
        out = [item for ready, item in self._items if ready <= now]
        self._items = [(ready, item) for ready, item in self._items if ready > now]
        self.earliest = min((ready for ready, _ in self._items), default=math.inf)
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
        # the layout is fixed from here on: obstacle bounds for the per-tick
        # contact test and detect's occlusion rays, and slab bounds of the
        # arena (box 0) and every obstacle for scan's ray cast, indexed
        # [low/high side, x/y axis, box, 1]
        self._arena_bounds = (self.arena.x0, self.arena.y0, self.arena.x1, self.arena.y1)
        self._obstacle_bounds = tuple((ob.x0, ob.y0, ob.x1, ob.y1) for ob in obstacles)
        boxes = (self.arena, *obstacles)
        self._slabs = np.array(
            [
                [[b.x0 for b in boxes], [b.y0 for b in boxes]],
                [[b.x1 for b in boxes], [b.y1 for b in boxes]],
            ]
        )[..., None]
        self.robot = RobotState(cfg.start, cfg.start)
        # step_world's two odometry noise draws land here
        self._odom_z = np.empty(2)
        # the last contact tick's (x, y, theta, v, omega) and the contact
        # fraction its bisection found
        self._contact_key: tuple[float, ...] | None = None
        self._contact_frac = 0.0
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
        """Outside the closed arena or inside a closed obstacle rectangle,
        with the comparisons of `Rect.contains`."""
        ax0, ay0, ax1, ay1 = self._arena_bounds
        if not (ax0 <= x <= ax1 and ay0 <= y <= ay1):
            return True
        for x0, y0, x1, y1 in self._obstacle_bounds:
            if x0 <= x <= x1 and y0 <= y <= y1:
                return True
        return False

    def step_world(self, cmd, pinned: bool = False) -> None:
        """Advance one tick of cfg.dt under a MotionCommand-like object.

        True pose: exact unicycle integration, stopped at obstacle contact
        by bisecting the tick down to the contact fraction.  The bisection
        probes step with `_unicycle` on plain floats, so they land on the
        same bits as the tick's own step without a Pose2D per probe.  With
        the layout and dt fixed, the fraction depends only on the true
        pose and the command, so a contact tick whose (x, y, theta, v,
        omega) equal the last contact tick's reuses its fraction; a robot
        pinned on an obstacle repeats them tick after tick.  `==` takes
        -0.0 for 0.0, but so do the probes, which compare coordinates only
        with `<=`.  The tick's own step starts from its own inputs.
        Believed pose: same integrator over the noisy, biased command,
        scaled by the same contact fraction (stalled wheels do not advance
        odometry).  Each pose is stepped with `_unicycle` and built once.
        A `pinned` tick ends with the believed pose on the true one and
        integrates no odometry; it still draws the odometry noise, so the
        generator stream is the same as for an unpinned tick.  With the
        mechanism on, any uncollected trash within brush_halfwidth of the
        segment the base swept this tick is collected.
        """
        dt = self.cfg.dt
        v = cmd.v
        omega = cmd.omega
        robot = self.robot
        old = robot.true_pose
        ox, oy, th = old.x, old.y, old.theta
        x, y, th1 = _unicycle(ox, oy, th, v, omega, dt)
        frac = 1.0
        collides = self._collides
        self.last_contact = collides(x, y)
        if self.last_contact:
            key = (ox, oy, th, v, omega)
            if key == self._contact_key:
                frac = self._contact_frac
            else:
                lo, hi = 0.0, 1.0
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    px, py, _ = _unicycle(ox, oy, th, v, omega, mid * dt)
                    if collides(px, py):
                        hi = mid
                    else:
                        lo = mid
                frac = self._contact_frac = lo
                self._contact_key = key
            x, y, th1 = _unicycle(ox, oy, th, v, omega, frac * dt)
        robot.true_pose = Pose2D(x, y, th1)

        nz = self.noise
        moving = abs(v) > 1e-12 or abs(omega) > 1e-12
        bv, bo = v, omega + nz.odom_heading_bias * v
        if moving and nz.odom_noise_sigma > 0.0:
            # wheel measurement noise, present only while the wheels turn;
            # 0.0 + sigma * z is the draw `rng.normal(0.0, sigma)` makes,
            # at about half its cost, and one draw of both z into the
            # buffer gives the values and generator state of two scalar
            # draws, at less than their cost
            sigma = nz.odom_noise_sigma
            self.rng.standard_normal(out=self._odom_z)
            zv, zo = self._odom_z.tolist()
            bv += 0.0 + sigma * zv
            bo += 0.0 + sigma * zo
        if pinned:
            robot.believed_pose = robot.true_pose
        else:
            b = robot.believed_pose
            robot.believed_pose = Pose2D(*_unicycle(b.x, b.y, b.theta, bv * frac, bo * frac, dt))

        if cmd.mechanism_on:
            for item in self.trash:
                if item.collected:
                    continue
                d = _seg_dist(item.position.x, item.position.y, ox, oy, x, y)
                if d <= self.brush_halfwidth:
                    item.collected = True
        self.t += dt

    # ------------------------------------------------------------------ #
    # sensing

    def _ray_ranges(self, ox, oy, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Along each angle, the distance to the arena wall the ray leaves
        through and to the nearest obstacle face it enters (inf when it
        enters none).  The origin (ox, oy) is one point for every ray, or
        one point per ray as two arrays shaped like `angles`; it must lie
        inside the arena.

        Every ray meets the arena and every obstacle in one
        (box, ray) slab test.  Each element is computed as a loop over
        obstacles would compute it, and the nearest obstacle entry is an
        exact min over obstacles, so the ranges are bitwise those of the
        loop and do not depend on how rays or origins are grouped into
        calls, which `scan`'s blocked multi-pose casts rely on.
        `_obstacle_entry` casts one ray on plain floats with the same
        operations."""
        d = np.array([np.cos(angles), np.sin(angles)])
        d = np.where(np.abs(d) < 1e-12, 1e-12, d)
        t = (self._slabs - np.array([ox, oy]).reshape(2, 1, -1)) / d[:, None, :]
        near = np.minimum(t[0], t[1])
        far = np.maximum(t[0], t[1])
        tmin = np.maximum(near[0], near[1])
        tmax = np.minimum(far[0], far[1])
        # the ray starts inside the arena, so its exit is the arena's tmax
        exit_range = tmax[0]
        tmin, tmax = tmin[1:], tmax[1:]
        hit = (tmax >= tmin) & (tmax > 0.0) & (tmin > 0.0)
        entry = np.where(hit, tmin, np.inf).min(axis=0, initial=np.inf)
        return exit_range, entry

    def _obstacle_entry(self, ox: float, oy: float, angle: float) -> float:
        """`_ray_ranges`' obstacle entry of one ray on plain floats: the
        distance from (ox, oy) along `angle` to the nearest obstacle face
        the ray enters, inf when it enters none.  The operations are
        `_ray_ranges`' own, in its order, so the entry has the same bits;
        a cast of a few rays skips building its arrays."""
        dx = math.cos(angle)
        dy = math.sin(angle)
        if abs(dx) < 1e-12:
            dx = 1e-12
        if abs(dy) < 1e-12:
            dy = 1e-12
        best = math.inf
        for x0, y0, x1, y1 in self._obstacle_bounds:
            t0 = (x0 - ox) / dx
            t1 = (x1 - ox) / dx
            s0 = (y0 - oy) / dy
            s1 = (y1 - oy) / dy
            tmin = max(min(t0, t1), min(s0, s1))
            tmax = min(max(t0, t1), max(s0, s1))
            if tmax >= tmin and tmax > 0.0 and tmin > 0.0 and tmin < best:
                best = tmin
        return best

    def scan(
        self,
        cam: CameraModel,
        n_beams: int,
        max_range: float,
        poses: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forward range scans over the camera's horizontal FOV, cast from
        the robot base.

        Returns (bearings, ranges): the n_beams beam bearings relative to
        the heading, evenly spaced over the FOV, and one row of ranges per
        pose, each capped at max_range (a capped ray means no hit).
        `poses` holds (x, y, theta) rows.  The sensor is noiseless and
        draws nothing from the generator, so a scan depends only on its
        pose and the fixed layout, and a caller may queue poses and cast
        them all at once.  The rays of all poses go through `_ray_ranges`
        SCAN_BLOCK at a time, so the memory a cast needs does not grow
        with the number of poses; each range has the same bits as in a
        cast of its pose alone.
        """
        bearings = np.linspace(-0.5 * cam.hfov, 0.5 * cam.hfov, n_beams)
        poses = np.asarray(poses, dtype=float).reshape(-1, 3)
        ox = np.repeat(poses[:, 0], n_beams)
        oy = np.repeat(poses[:, 1], n_beams)
        angles = (poses[:, 2, None] + bearings).ravel()
        ranges = np.empty(len(angles))
        for lo in range(0, len(angles), SCAN_BLOCK):
            hi = lo + SCAN_BLOCK
            ranges[lo:hi] = np.minimum(*self._ray_ranges(ox[lo:hi], oy[lo:hi], angles[lo:hi]))
        np.minimum(ranges, max_range, out=ranges)
        return bearings, ranges.reshape(len(poses), n_beams)

    def detect(
        self,
        cam: CameraModel,
        frame_dt: float,
        detect_max_range: float = 4.0,
    ) -> list[BoundingBox]:
        """One detector frame from the true pose.

        Every uncollected trash item inside the frustum and within
        detect_max_range that no obstacle hides is seen with probability
        p_detect(range); a sighting renders the exact box center, then
        jitters it by pixel_sigma and the depth sample by
        depth_sigma_per_meter * range.  Boxes that would clip the image
        edge are not emitted.  Poisson false positives at
        false_positive_rate per second are appended with uniform position,
        depth, and score.

        Each in-frustum item casts one occlusion ray with
        `_obstacle_entry`, and only obstacle faces count: items lie inside
        the arena, so no wall stands between one and the camera.  With no
        obstacles nothing is cast.  The items are visited in trash order,
        which is the order the generator is drawn in.
        """
        nz = self.noise
        rng = self.rng
        pose = self.robot.true_pose
        cam_x = pose.x + math.cos(pose.theta) * cam.forward_offset
        cam_y = pose.y + math.sin(pose.theta) * cam.forward_offset
        out: list[BoundingBox] = []
        for item in self.trash:
            if item.collected:
                continue
            p = item.position
            gr = math.hypot(p.x - cam_x, p.y - cam_y)
            if gr > detect_max_range or gr < 1e-6:
                continue
            pix = ground_point_to_pixel(pose, p, cam)
            if pix is None:
                continue
            if self.obstacles:
                ang = math.atan2(p.y - cam_y, p.x - cam_x)
                if self._obstacle_entry(cam_x, cam_y, ang) < gr - 1e-9:
                    continue
            # random() is the draw uniform() makes, at about a third of
            # its cost
            if rng.random() >= nz.p_detect(gr):
                continue
            box = self._render_box(pix, gr, cam)
            if box is not None:
                out.append(box)
        if nz.false_positive_rate > 0.0 and frame_dt > 0.0:
            k = int(rng.poisson(nz.false_positive_rate * frame_dt))
            for _ in range(k):
                half = rng.uniform(4.0, PHANTOM_MAX_HALF)
                u = rng.uniform(half, cam.image_width - half)
                v = rng.uniform(0.5 * cam.image_height, cam.image_height - half)
                depth = rng.uniform(cam.mount_height + PHANTOM_DEPTH_MARGIN, detect_max_range)
                conf = rng.random()
                out.append(
                    BoundingBox(u - half, u + half, v - half, v + half, depth, conf)
                )
        return out

    def _render_box(
        self, pix: tuple[float, float, float], gr: float, cam: CameraModel
    ) -> BoundingBox | None:
        nz = self.noise
        normal = self.rng.standard_normal
        u_c, v_c, depth = pix
        # 0.0 + sigma * z is the draw `rng.normal(0.0, sigma)` makes
        if nz.pixel_sigma > 0.0:
            u_c += 0.0 + nz.pixel_sigma * normal()
            v_c += 0.0 + nz.pixel_sigma * normal()
        if nz.depth_sigma_per_meter > 0.0:
            depth += 0.0 + (nz.depth_sigma_per_meter * gr) * normal()
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
            mu += 0.0 + self.noise.conf_sigma * self.rng.standard_normal()
        return min(max(mu, 0.0), 1.0)


def _unicycle(
    x: float, y: float, theta: float, v: float, omega: float, dt: float
) -> tuple[float, float, float]:
    """Exact unicycle step: straight line for omega ~ 0, circle arc else.
    Returns the new (x, y, theta), theta not wrapped."""
    if abs(omega) < 1e-9:
        return x + v * dt * math.cos(theta), y + v * dt * math.sin(theta), theta + omega * dt
    th1 = theta + omega * dt
    r = v / omega
    return (
        x + r * (math.sin(th1) - math.sin(theta)),
        y - r * (math.cos(th1) - math.cos(theta)),
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


def aerial_survey(world: World, lane_spacing: float = 1.5) -> list[RawDetection]:
    """Top-down survey pass over the arena, delivered through the comm link.

    The drone flies boustrophedon lanes parallel to y, spaced lane_spacing
    apart and spanning the arena width inclusive of both edges, overflying
    each lane end by one footprint so edge items get full frame coverage.
    Frames fire every lane_spacing of travel; the camera footprint is a
    square of half-width lane_spacing, so every arena point is covered by
    at least two lanes and at least two frames per lane (>= 4 sightings
    before drops).  Each framed, uncollected item yields one detection at
    its true position plus N(0, detect_pos_sigma) per axis, scored
    SURVEY_CONFIDENCE.  After the whole pass each message is dropped with
    probability comm_drop, one uniform draw per message in send order;
    the rest arrive in send order.  The survey ends before any message is
    used, so the link adds no delay.
    """
    if lane_spacing <= 0.0:
        raise ValueError("lane_spacing must be positive")
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
    frame_interval = lane_spacing / DRONE_SPEED
    t = 0.0
    messages: list[RawDetection] = []
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
                    messages.append(RawDetection(t, GroundPoint(px, py), SURVEY_CONFIDENCE))
            if nz.false_positive_rate > 0.0:
                k = int(rng.poisson(nz.false_positive_rate * frame_interval))
                for _ in range(k):
                    messages.append(
                        RawDetection(
                            t,
                            GroundPoint(
                                rng.uniform(arena.x0, arena.x1),
                                rng.uniform(arena.y0, arena.y1),
                            ),
                            float(rng.uniform()),
                        )
                    )
            t += frame_interval
    drop = nz.comm_drop
    return [msg for msg in messages if not (drop > 0.0 and rng.uniform() < drop)]

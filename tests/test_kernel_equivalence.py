"""The per-tick simulation kernel against the straightforward versions it
replaced.

`World.step_world` bisects contacts on plain floats and reuses the last
contact tick's fraction when its pose and command repeat,
`World._ray_ranges` casts every ray against every obstacle in one
broadcast, `World.detect` casts each occlusion ray on plain floats against
the obstacles, and none in an arena without obstacles, and draws with
`random()`, and `DelayQueue` keeps the earliest ready time its callers
compare against.  Each must give bit-for-bit what the references below
give: a Pose2D-building bisection through `_advance` on every contact
tick, a numpy loop over obstacles, one occlusion ray per item through
`np.cos` and `np.sin`, `uniform()` draws, and a list filtered on every
call.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from littersim.geometry import (
    BoundingBox,
    CameraModel,
    GroundPoint,
    Pose2D,
    ground_point_to_pixel,
)
from littersim import simworld
from littersim.pickup import MotionCommand
from littersim.simworld import (
    DelayQueue,
    NoiseModel,
    Rect,
    World,
    WorldConfig,
    _seg_dist,
    _unicycle,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# --------------------------------------------------------------------- #
# references


def _advance(pose, v, omega, dt):
    """`_unicycle` from a pose to a pose."""
    return Pose2D(*_unicycle(pose.x, pose.y, pose.theta, v, omega, dt))


def _directions(angles):
    dx = np.cos(angles)
    dy = np.sin(angles)
    dx = np.where(np.abs(dx) < 1e-12, 1e-12, dx)
    dy = np.where(np.abs(dy) < 1e-12, 1e-12, dy)
    return dx, dy


def loop_ray_ranges(world, ox, oy, angles):
    """The arena exit, then one slab test per obstacle folded into the
    running minimum."""
    dx, dy = _directions(angles)
    tx = np.maximum((world.arena.x0 - ox) / dx, (world.arena.x1 - ox) / dx)
    ty = np.maximum((world.arena.y0 - oy) / dy, (world.arena.y1 - oy) / dy)
    return loop_obstacle_entry(world, ox, oy, angles, best=np.minimum(tx, ty))


def loop_obstacle_entry(world, ox, oy, angles, best=np.inf):
    """One slab test per obstacle, folded into the running minimum from
    `best`: inf when no obstacle is entered."""
    dx, dy = _directions(angles)
    best = np.broadcast_to(best, dx.shape)
    for ob in world.obstacles:
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


def _reference_collides(world, x, y):
    if not world.arena.contains(x, y):
        return True
    return any(ob.contains(x, y) for ob in world.obstacles)


def reference_step_world(world, cmd):
    """`World.step_world` with a Pose2D built through `_advance` for every
    bisection probe."""
    dt = world.cfg.dt
    v = cmd.v
    omega = cmd.omega
    old = world.robot.true_pose
    frac = 1.0
    nxt = _advance(old, v, omega, dt)
    world.last_contact = False
    if _reference_collides(world, nxt.x, nxt.y):
        world.last_contact = True
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            p = _advance(old, v, omega, mid * dt)
            if _reference_collides(world, p.x, p.y):
                hi = mid
            else:
                lo = mid
        frac = lo
        nxt = _advance(old, v, omega, frac * dt)
    world.robot.true_pose = nxt

    nz = world.noise
    moving = abs(v) > 1e-12 or abs(omega) > 1e-12
    bv, bo = v, omega + nz.odom_heading_bias * v
    if moving and nz.odom_noise_sigma > 0.0:
        bv += world.rng.normal(0.0, nz.odom_noise_sigma)
        bo += world.rng.normal(0.0, nz.odom_noise_sigma)
    world.robot.believed_pose = _advance(world.robot.believed_pose, bv * frac, bo * frac, dt)

    if getattr(cmd, "mechanism_on", False):
        for item in world.trash:
            if item.collected:
                continue
            d = _seg_dist(item.position.x, item.position.y, old.x, old.y, nxt.x, nxt.y)
            if d <= world.brush_halfwidth:
                item.collected = True
    world.t += dt


def reference_detect(world, cam, frame_dt, detect_max_range=4.0):
    """`World.detect` with one occlusion ray cast per item against the
    obstacles alone, and `uniform()` draws."""
    nz = world.noise
    pose = world.robot.true_pose
    cam_x = pose.x + math.cos(pose.theta) * cam.forward_offset
    cam_y = pose.y + math.sin(pose.theta) * cam.forward_offset
    out = []
    for item in world.trash:
        if item.collected:
            continue
        gr = math.hypot(item.position.x - cam_x, item.position.y - cam_y)
        if gr > detect_max_range or gr < 1e-6:
            continue
        pix = ground_point_to_pixel(pose, item.position, cam)
        if pix is None:
            continue
        ang = math.atan2(item.position.y - cam_y, item.position.x - cam_x)
        hit = float(loop_obstacle_entry(world, cam_x, cam_y, np.array([ang]))[0])
        if hit < gr - 1e-9:
            continue
        if world.rng.uniform() >= nz.p_detect(gr):
            continue
        box = world._render_box(pix, gr, cam)
        if box is not None:
            out.append(box)
    if nz.false_positive_rate > 0.0 and frame_dt > 0.0:
        k = int(world.rng.poisson(nz.false_positive_rate * frame_dt))
        for _ in range(k):
            half = world.rng.uniform(4.0, 24.0)
            u = world.rng.uniform(half, cam.image_width - half)
            v = world.rng.uniform(0.5 * cam.image_height, cam.image_height - half)
            depth = world.rng.uniform(cam.mount_height + 0.1, detect_max_range)
            conf = world.rng.uniform()
            out.append(BoundingBox(u - half, u + half, v - half, v + half, depth, conf))
    return out


class ListDelayQueue:
    """Filters the whole list on every pop."""

    def __init__(self):
        self._items = []

    def push(self, ready_t, item):
        self._items.append((ready_t, item))

    def pop_ready(self, now):
        out = [item for ready, item in self._items if ready <= now]
        self._items = [(ready, item) for ready, item in self._items if ready > now]
        return out


# --------------------------------------------------------------------- #
# strategies

# axis-aligned bearings exercise the 1e-12 direction clamp
_AXES = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi])
_BEARINGS = st.one_of(
    _AXES,
    st.tuples(_AXES, st.floats(-1e-12, 1e-12)).map(sum),
    st.floats(-4.0, 4.0),
)


@st.composite
def _rects(draw, w, h):
    x0 = draw(st.floats(0.0, w - 0.05))
    y0 = draw(st.floats(0.0, h - 0.05))
    x1 = draw(st.floats(x0 + 0.05, min(w, x0 + 1.5)))
    y1 = draw(st.floats(y0 + 0.05, min(h, y0 + 1.5)))
    assume(x1 > x0 and y1 > y0)
    return Rect(x0, y0, x1, y1)


def _snap(draw, value, extent, rects, axis):
    """Optionally move a coordinate onto an arena or obstacle face."""
    faces = [0.0, extent]
    for r in rects:
        faces += [r.x0, r.x1] if axis == 0 else [r.y0, r.y1]
    return draw(st.one_of(st.just(value), st.sampled_from(faces)))


@st.composite
def _worlds(draw, noisy=False):
    w = draw(st.sampled_from([2.0, 3.0, 8.0]))
    h = draw(st.sampled_from([2.0, 3.0, 6.0]))
    rects = draw(st.lists(_rects(w, h), max_size=6))
    sx = _snap(draw, draw(st.floats(0.0, w)), w, rects, 0)
    sy = _snap(draw, draw(st.floats(0.0, h)), h, rects, 1)
    assume(0.0 <= sx <= w and 0.0 <= sy <= h)
    assume(not any(r.contains(sx, sy) for r in rects))
    start = Pose2D(sx, sy, draw(_BEARINGS))
    cfg = WorldConfig(
        arena_w=w,
        arena_h=h,
        dt=draw(st.sampled_from([0.05, 0.2, 0.5])),
        seed=draw(st.integers(0, 2**16)),
        start=start,
        obstacles=tuple(rects),
        trash=(),
    )
    return cfg, NoiseModel() if noisy else NoiseModel.zero()


# |omega| on both sides of _advance's 1e-9 straight-line switch
_OMEGAS = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-9, math.nextafter(1e-9, 0.0), math.nextafter(1e-9, 1.0)]).flatmap(
        lambda m: st.sampled_from([m, -m])
    ),
    st.floats(-3.0, 3.0),
)
_COMMANDS = st.builds(
    MotionCommand,
    st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    _OMEGAS,
    st.booleans(),
)


def _bits(pose):
    return (repr(pose.x), repr(pose.y), repr(pose.theta))


# --------------------------------------------------------------------- #
# ray casting


# where a +x ray from (0, 0.5), its y direction clamped to 1e-12, reaches
# y = 0.5 + 1e-12
_GRAZE = ((0.5 + 1e-12) - 0.5) / 1e-12


@st.composite
def _casts(draw):
    cfg, noise = draw(_worlds())
    world = World(cfg, noise)
    # origins on arena and obstacle corners and faces, or anywhere inside
    ox = _snap(draw, draw(st.floats(0.0, cfg.arena_w)), cfg.arena_w, world.obstacles, 0)
    oy = _snap(draw, draw(st.floats(0.0, cfg.arena_h)), cfg.arena_h, world.obstacles, 1)
    assume(world.arena.contains(ox, oy))
    n = draw(st.sampled_from([1, 32, draw(st.integers(1, 32))]))
    angles = np.array(draw(st.lists(_BEARINGS, min_size=n, max_size=n)))
    return world, ox, oy, angles


@SETTINGS
@given(_casts())
# a corner origin with no obstacles at all, on every axis
@example((
    World(WorldConfig(obstacles=(), trash=()), NoiseModel.zero()),
    0.0,
    0.0,
    np.array([0.0, math.pi / 2, math.pi, -math.pi / 2]),
))
# a ray along +x whose clamped y direction meets the box's top face exactly
# where it enters across x: entry equals exit, which still counts as a hit
@example((
    World(
        WorldConfig(
            obstacles=(Rect(_GRAZE, 0.5 + 1e-12 - 0.4, _GRAZE + 1.0, 0.5 + 1e-12),),
            trash=(),
            start=Pose2D(4.0, 4.0),
        ),
        NoiseModel.zero(),
    ),
    0.0,
    0.5,
    np.array([0.0]),
))
def test_ray_ranges_equal_the_per_obstacle_loop(case):
    world, ox, oy, angles = case
    exit_range, entry = world._ray_ranges(ox, oy, angles)
    got = np.minimum(exit_range, entry)
    want = loop_ray_ranges(world, ox, oy, angles)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert entry.tobytes() == loop_obstacle_entry(world, ox, oy, angles).tobytes()
    # a batched cast equals one cast per ray, which scan relies on
    singles = [world._ray_ranges(ox, oy, angles[i : i + 1]) for i in range(len(angles))]
    assert exit_range.tobytes() == np.concatenate([e for e, _ in singles]).tobytes()
    assert entry.tobytes() == np.concatenate([n for _, n in singles]).tobytes()
    # detect's float cast of each ray finds the same obstacle entry
    floats = [world._obstacle_entry(ox, oy, a) for a in angles.tolist()]
    assert [e.hex() for e in floats] == [e.hex() for e in entry.tolist()]


def test_scan_bearings_are_the_linspace_of_each_fov():
    world = World(WorldConfig(obstacles=(Rect(2.0, 0.0, 2.5, 6.0),), trash=()), NoiseModel.zero())
    for cam, n in [(CameraModel(), 32), (CameraModel(hfov=1.0), 32), (CameraModel(), 7)]:
        for _ in range(2):
            pose = world.robot.true_pose
            got_bearings, ranges = world.scan(
                cam, n_beams=n, max_range=3.5, poses=[(pose.x, pose.y, pose.theta)]
            )
            bearings = np.linspace(-0.5 * cam.hfov, 0.5 * cam.hfov, n)
            assert got_bearings.tobytes() == bearings.tobytes()
            want = np.minimum(loop_ray_ranges(world, pose.x, pose.y, pose.theta + bearings), 3.5)
            assert ranges.dtype == want.dtype and ranges.shape == (1, n)
            assert ranges[0].tobytes() == want.tobytes()


@st.composite
def _scan_poses(draw):
    """A world and (x, y, theta) rows inside its arena, on obstacle and
    arena corners and faces or anywhere, with a drawn ray block size."""
    cfg, noise = draw(_worlds())
    world = World(cfg, noise)
    poses = []
    for _ in range(draw(st.integers(0, 12))):
        x = _snap(draw, draw(st.floats(0.0, cfg.arena_w)), cfg.arena_w, world.obstacles, 0)
        y = _snap(draw, draw(st.floats(0.0, cfg.arena_h)), cfg.arena_h, world.obstacles, 1)
        assume(world.arena.contains(x, y))
        poses.append((x, y, draw(_BEARINGS)))
    n_beams = draw(st.sampled_from([2, 7, 32]))
    block = draw(st.one_of(st.sampled_from([1, n_beams, 1024]), st.integers(1, 100)))
    return world, np.array(poses).reshape(-1, 3), n_beams, block


@SETTINGS
@given(_scan_poses(), st.sampled_from([CameraModel(), CameraModel(hfov=1.0)]))
def test_multi_pose_scan_equals_one_cast_per_pose(case, cam):
    # the blocked multi-origin cast gives every pose's row the bits of a
    # `_ray_ranges` call from that pose alone
    world, poses, n_beams, block = case
    with mock.patch.object(simworld, "SCAN_BLOCK", block):
        bearings, ranges = world.scan(cam, n_beams, 3.5, poses)
    assert ranges.shape == (len(poses), n_beams)
    want = [
        np.minimum(np.minimum(*world._ray_ranges(x, y, theta + bearings)), 3.5)
        for x, y, theta in poses.tolist()
    ]
    assert ranges.tobytes() == np.concatenate([np.empty(0), *want]).tobytes()


# --------------------------------------------------------------------- #
# kinematics


def _box_on_probe(start, cmd, dt, frac, across_x):
    """A 0.5 m box whose near face passes exactly through the bisection
    probe at `frac` of the tick, so a probe that differs from `_advance` by
    one ulp can land on the other side of the face."""
    probe = _advance(start, cmd.v, cmd.omega, frac * dt)
    if across_x:
        lo = probe.x if probe.x > start.x else probe.x - 0.5
        box = Rect(lo, probe.y - 0.5, lo + 0.5, probe.y + 0.5)
    else:
        lo = probe.y if probe.y > start.y else probe.y - 0.5
        box = Rect(probe.x - 0.5, lo, probe.x + 0.5, lo + 0.5)
    cfg = WorldConfig(arena_w=8.0, arena_h=8.0, dt=dt, start=start, obstacles=(box,), trash=())
    return cfg, NoiseModel()


@st.composite
def _faces_on_probes(draw):
    start = Pose2D(draw(st.floats(2.5, 5.5)), draw(st.floats(2.5, 5.5)), draw(_BEARINGS))
    cmd = MotionCommand(draw(st.floats(0.5, 2.0)), draw(_OMEGAS))
    dt = draw(st.sampled_from([0.05, 0.2, 0.5]))
    case = _box_on_probe(
        start, cmd, dt, draw(st.sampled_from([0.5, 0.25, 0.75])), draw(st.booleans())
    )
    assume(not case[0].obstacles[0].contains(start.x, start.y))
    return case, [cmd] * draw(st.integers(1, 3))


@SETTINGS
@given(
    st.one_of(
        st.tuples(_worlds(noisy=True), st.lists(_COMMANDS, min_size=1, max_size=25)),
        _faces_on_probes(),
    )
)
# here (v * h) * cos(theta) and v * (h * cos(theta)) differ by an ulp at the
# first probe, so only _advance's evaluation order finds the face
@example((
    _box_on_probe(Pose2D(4.72, 4.0, -0.59), MotionCommand(1.61, 0.0), 0.05, 0.5, True),
    [MotionCommand(1.61, 0.0)],
))
def test_step_world_equals_the_pose_building_bisection(drive):
    (cfg, noise), commands = drive
    got = World(cfg, noise)
    want = World(cfg, noise)
    for cmd in commands:
        got.step_world(cmd)
        reference_step_world(want, cmd)
        assert _bits(got.robot.true_pose) == _bits(want.robot.true_pose)
        assert _bits(got.robot.believed_pose) == _bits(want.robot.believed_pose)
        assert got.last_contact == want.last_contact
        assert got.t == want.t
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


@SETTINGS
@given(_worlds(), st.lists(_COMMANDS, min_size=1, max_size=25))
def test_step_world_never_ends_a_tick_in_collision(case, commands):
    cfg, noise = case
    world = World(cfg, noise)
    for cmd in commands:
        world.step_world(cmd)
        p = world.robot.true_pose
        assert world.arena.contains(p.x, p.y)
        assert not any(ob.contains(p.x, p.y) for ob in world.obstacles)


def _drive_both(got, want, commands):
    """Step `got` and the reference `want` through `commands`, comparing
    after every tick.  Returns one (contact, bisected) pair per tick;
    a bisecting tick steps `_unicycle` at least 40 times, a memo hit
    at most 3."""
    ticks = []
    for cmd in commands:
        with mock.patch.object(simworld, "_unicycle", wraps=_unicycle) as step:
            got.step_world(cmd)
        reference_step_world(want, cmd)
        assert got.last_contact == want.last_contact
        assert _bits(got.robot.true_pose) == _bits(want.robot.true_pose)
        assert _bits(got.robot.believed_pose) == _bits(want.robot.believed_pose)
        assert got.rng.bit_generator.state == want.rng.bit_generator.state
        ticks.append((got.last_contact, step.call_count >= 40))
    return ticks


_BOX = Rect(1.0, 0.0, 1.4, 2.0)


def _box_world(start):
    cfg = WorldConfig(arena_w=2.0, arena_h=2.0, obstacles=(_BOX,), trash=(), start=start)
    return World(cfg, NoiseModel()), World(cfg, NoiseModel())


def test_driving_into_a_box_and_a_wall_makes_contact():
    # the equivalence above must cover real contacts, not only free motion
    for cmd in (MotionCommand(1.0, 0.0), MotionCommand(1.0, 1e-9), MotionCommand(-1.0, 0.3)):
        ticks = _drive_both(*_box_world(Pose2D(0.5, 1.0, 0.0)), [cmd] * 40)
        assert any(contact for contact, _ in ticks)
    # pinned ticks reuse the contact fraction; a new command bisects
    # again, and so does the first command when it comes back
    for start, a, b in [
        # into the box, then along an arc into it
        (Pose2D(0.9, 1.0, 0.0), MotionCommand(1.0, 0.0), MotionCommand(0.5, 0.4)),
        # backing into the wall, then straight back into it
        (Pose2D(0.12, 1.0, 0.0), MotionCommand(-1.0, 0.3), MotionCommand(-0.5, 0.0)),
    ]:
        got, want = _box_world(start)
        ticks = _drive_both(got, want, [a] * 6 + [b] * 4 + [a] * 6)
        for part in (ticks[:6], ticks[6:10], ticks[10:]):
            bisected = [bisect for contact, bisect in part if contact]
            assert bisected[0] and not bisected[-1]
        # the same command from a pose moved back along the heading
        # between contact ticks bisects again and stops at the face,
        # where the last fraction would leave it short
        back = 0.6 * a.v * got.cfg.dt
        for world in (got, want):
            p = world.robot.true_pose
            world.robot.true_pose = Pose2D(
                p.x - back * math.cos(p.theta), p.y - back * math.sin(p.theta), p.theta
            )
        ticks = _drive_both(got, want, [a] * 3)
        assert ticks[0] == (True, True)


# --------------------------------------------------------------------- #
# detection


@SETTINGS
@given(
    _worlds(),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=8),
    st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_detect_equals_one_occlusion_ray_per_item(case, spots, collected):
    cfg, _ = case
    trash = tuple((GroundPoint(u * cfg.arena_w, v * cfg.arena_h), 0.3) for u, v in spots)
    cfg = replace(cfg, trash=trash)
    noise = NoiseModel(false_positive_rate=2.0)
    got = World(cfg, noise)
    want = World(cfg, noise)
    for world in (got, want):
        for item, flag in zip(world.trash, collected):
            item.collected = flag
    cam = CameraModel()
    for _ in range(3):
        assert repr(got.detect(cam, 0.5)) == repr(reference_detect(want, cam, 0.5))
        assert got.rng.bit_generator.state == want.rng.bit_generator.state


@st.composite
def _open_arenas(draw):
    """An arena without obstacles, with the robot and the items on walls
    and corners, a hair inside them, lined up with each other, or
    anywhere."""
    w = draw(st.sampled_from([2.0, 3.0, 8.0]))
    h = draw(st.sampled_from([2.0, 3.0, 6.0]))

    def coord(extent):
        edges = [0.0, extent, 1e-7, extent - 1e-7, 1e-6, extent - 1e-6, 2e-6, extent - 2e-6]
        return draw(st.one_of(st.sampled_from(edges), st.floats(0.0, extent)))

    sx, sy = coord(w), coord(h)
    spots = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = coord(w), coord(h)
        spots.append(draw(st.sampled_from([(x, y), (sx, y), (x, sy)])))
    return WorldConfig(
        arena_w=w,
        arena_h=h,
        start=Pose2D(sx, sy, draw(_BEARINGS)),
        obstacles=(),
        trash=tuple((GroundPoint(x, y), 0.3) for x, y in spots),
    )


@SETTINGS
@given(_open_arenas(), st.sampled_from([NoiseModel(false_positive_rate=2.0), NoiseModel.zero()]))
# the robot on the right wall, looking along it at an item on it: the
# ray's x direction clamps to 1e-12 and a wall cast would put the exit at
# 0, but no wall hides an item, so the item is seen
@example(
    WorldConfig(
        start=Pose2D(8.0, 1.0, math.pi / 2),
        obstacles=(),
        trash=((GroundPoint(8.0, 3.0), 0.3),),
    ),
    NoiseModel.zero(),
)
def test_detect_without_obstacles_equals_the_cast(cfg, noise):
    # skipping the occlusion cast in an open arena gives the boxes and the
    # generator state of casting every ray against the obstacles
    got = World(cfg, noise)
    want = World(cfg, noise)
    cam = CameraModel()
    for _ in range(3):
        assert repr(got.detect(cam, 0.5)) == repr(reference_detect(want, cam, 0.5))
        assert got.rng.bit_generator.state == want.rng.bit_generator.state


@pytest.mark.parametrize("obstacles", [(), (Rect(2.0, 2.0, 3.0, 3.0),)])
def test_an_item_on_a_wall_is_seen_along_it(obstacles):
    # the wall the camera looks along hides nothing, with or without a cast
    cfg = WorldConfig(
        start=Pose2D(8.0, 1.0, math.pi / 2),
        obstacles=obstacles,
        trash=((GroundPoint(8.0, 3.0), 0.3),),
    )
    assert len(World(cfg, NoiseModel.zero()).detect(CameraModel(), 0.5)) == 1


@SETTINGS
@given(
    st.integers(0, 2**64 - 1),
    st.lists(
        st.one_of(
            st.sampled_from(["uniform", "normal", "normal_pair", "poisson"]),
            st.floats(1e-3, 100.0),
        ),
        max_size=60,
    ),
)
def test_random_draws_what_uniform_draws(seed, ops):
    # Each cheaper draw the simulator makes against the call it replaced:
    # the same values from the same stream position, and the same stream
    # afterwards.  detect draws its p_detect and phantom confidence samples
    # with random() for uniform(); step_world draws both odometry normals
    # with one standard_normal(out=) for two scalar draws; a float op is a
    # sigma, drawn as 0.0 + sigma * standard_normal() for
    # normal(0.0, sigma), as step_world, _render_box and conf_sample do
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    pair = np.empty(2)
    for op in ops:
        if op == "uniform":
            assert a.uniform().hex() == b.random().hex()
        elif op == "normal":
            assert a.standard_normal() == b.standard_normal()
        elif op == "normal_pair":
            first, second = a.standard_normal(), a.standard_normal()
            b.standard_normal(out=pair)
            got = pair.tolist()
            assert [first.hex(), second.hex()] == [z.hex() for z in got]
        elif op == "poisson":
            assert a.poisson(0.5) == b.poisson(0.5)
        else:
            assert a.normal(0.0, op).hex() == (0.0 + op * b.standard_normal()).hex()
        assert a.bit_generator.state == b.bit_generator.state


# --------------------------------------------------------------------- #
# frame queue

_READY = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.75, 3.0])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.one_of(_READY, st.floats(0.0, 4.0))),
        st.tuples(st.just("pop"), st.one_of(_READY, st.floats(-1.0, 5.0))),
    ),
    max_size=40,
)


@SETTINGS
@given(_OPS)
def test_delay_queue_equals_the_list_filter(ops):
    got = DelayQueue()
    want = ListDelayQueue()
    for k, (op, t) in enumerate(ops):
        if op == "push":
            got.push(t, k)
            want.push(t, k)
        else:
            assert got.pop_ready(t) == want.pop_ready(t)
        # nothing the reference holds is ready before `earliest`
        assert got.earliest == min((ready for ready, _ in want._items), default=math.inf)
    assert got.pop_ready(math.inf) == want.pop_ready(math.inf)
    assert got.earliest == math.inf

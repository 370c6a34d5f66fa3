import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littersim.geometry import CameraModel, GroundPoint, Pose2D, ground_point_to_pixel
from littersim.pickup import MotionCommand
from littersim.simworld import (
    MAX_TRASH_MASS,
    DelayQueue,
    LayoutError,
    NoiseModel,
    Rect,
    World,
    WorldConfig,
    aerial_survey,
    random_layout,
)


def empty_world(noise=None, **kw):
    cfg = WorldConfig(obstacles=(), trash=(), **kw)
    return World(cfg, noise if noise is not None else NoiseModel.zero())


def closed_form(pose, v, omega, t):
    if abs(omega) < 1e-12:
        return (
            pose.x + v * t * math.cos(pose.theta),
            pose.y + v * t * math.sin(pose.theta),
            pose.theta,
        )
    r = v / omega
    th1 = pose.theta + omega * t
    return (
        pose.x + r * (math.sin(th1) - math.sin(pose.theta)),
        pose.y - r * (math.cos(th1) - math.cos(pose.theta)),
        th1,
    )


def test_straight_motion_matches_closed_form():
    w = empty_world()
    for _ in range(40):
        w.step_world(MotionCommand(0.3, 0.0))
    x, y, th = closed_form(Pose2D(0.6, 0.6, 0.0), 0.3, 0.0, 40 * w.cfg.dt)
    p = w.robot.true_pose
    assert (p.x, p.y, p.theta) == pytest.approx((x, y, th), abs=1e-12)
    # zero noise model: belief tracks truth exactly
    b = w.robot.believed_pose
    assert (b.x, b.y, b.theta) == pytest.approx((p.x, p.y, p.theta), abs=1e-12)


def test_arc_motion_matches_closed_form():
    w = empty_world()
    n = 50
    for _ in range(n):
        w.step_world(MotionCommand(0.3, 0.4))
    x, y, th = closed_form(Pose2D(0.6, 0.6, 0.0), 0.3, 0.4, n * w.cfg.dt)
    p = w.robot.true_pose
    assert (p.x, p.y) == pytest.approx((x, y), abs=1e-9)
    assert p.theta == pytest.approx(th, abs=1e-9)


def test_spin_in_place_keeps_position():
    w = empty_world()
    for _ in range(100):
        w.step_world(MotionCommand(0.0, 0.5))
    p = w.robot.true_pose
    assert (p.x, p.y) == pytest.approx((0.6, 0.6), abs=1e-12)


def test_contact_stops_exactly_at_wall():
    w = empty_world(start=Pose2D(0.6, 0.6, math.pi))
    hit = False
    for _ in range(100):
        w.step_world(MotionCommand(0.5, 0.0))
        if w.last_contact:
            hit = True
            break
    assert hit
    assert 0.0 <= w.robot.true_pose.x < 1e-9
    # pressing on makes no further progress
    x = w.robot.true_pose.x
    w.step_world(MotionCommand(0.5, 0.0))
    assert w.last_contact
    assert abs(w.robot.true_pose.x - x) < 1e-9


def test_contact_stops_at_obstacle_face():
    ob = Rect(2.0, 0.0, 2.5, 6.0)
    cfg = WorldConfig(obstacles=(ob,), trash=(), start=Pose2D(0.6, 0.6, 0.0))
    w = World(cfg, NoiseModel.zero())
    for _ in range(200):
        w.step_world(MotionCommand(0.5, 0.0))
        if w.last_contact:
            break
    assert w.last_contact
    assert w.robot.true_pose.x == pytest.approx(2.0, abs=1e-9)
    assert w.robot.true_pose.x < 2.0  # strictly outside the closed rectangle


def test_odometry_stalls_with_the_wheels_on_contact():
    # believed pose advances by the same contact fraction as truth
    w = empty_world(start=Pose2D(0.6, 0.6, math.pi))
    for _ in range(100):
        w.step_world(MotionCommand(0.5, 0.0))
    b = w.robot.believed_pose
    p = w.robot.true_pose
    assert (b.x, b.y, b.theta) == pytest.approx((p.x, p.y, p.theta), abs=1e-9)


def test_heading_bias_accrues_per_meter():
    noise = NoiseModel.zero()
    noise = NoiseModel(
        **{**noise.__dict__, "odom_heading_bias": 0.02}
    )
    w = empty_world(noise=noise)
    n = 100
    for _ in range(n):
        w.step_world(MotionCommand(0.4, 0.0))
    dist = 0.4 * n * w.cfg.dt
    assert w.robot.true_pose.theta == 0.0
    assert w.robot.believed_pose.theta == pytest.approx(0.02 * dist, rel=1e-6)


def test_parked_robot_draws_no_odometry_noise():
    noise = NoiseModel()  # full noise
    a = empty_world(noise=noise, seed=3)
    b = empty_world(noise=noise, seed=3)
    # a idles first; identical later drive must see identical noise draws
    for _ in range(100):
        a.step_world(MotionCommand(0.0, 0.0))
    pa = a.robot.believed_pose
    assert (pa.x, pa.y, pa.theta) == (0.6, 0.6, 0.0)
    for _ in range(20):
        a.step_world(MotionCommand(0.3, 0.1))
        b.step_world(MotionCommand(0.3, 0.1))
    assert a.robot.believed_pose == b.robot.believed_pose


def test_pinned_step_lands_on_the_truth_and_keeps_the_stream():
    # a pinned tick draws the same odometry noise as a plain one, so the
    # runs stay on one generator stream, and ends with belief on truth
    pinned = empty_world(noise=NoiseModel(), seed=5)
    plain = empty_world(noise=NoiseModel(), seed=5)
    for cmd in (MotionCommand(0.4, 0.2), MotionCommand(0.0, 0.0), MotionCommand(0.0, -0.5)):
        for _ in range(20):
            pinned.step_world(cmd, pinned=True)
            plain.step_world(cmd)
            assert pinned.robot.believed_pose == pinned.robot.true_pose
            assert pinned.robot.true_pose == plain.robot.true_pose
            assert pinned.rng.bit_generator.state == plain.rng.bit_generator.state
            assert pinned.t == plain.t
    assert plain.robot.believed_pose != plain.robot.true_pose


def test_brush_collects_within_halfwidth_only():
    trash = (
        (GroundPoint(1.0, 0.70), 0.3),  # 0.10 m off the sweep line
        (GroundPoint(1.4, 0.80), 0.3),  # 0.20 m off, outside the brush
    )
    cfg = WorldConfig(obstacles=(), trash=trash, start=Pose2D(0.6, 0.6, 0.0))
    w = World(cfg, NoiseModel.zero())
    for _ in range(200):
        w.step_world(MotionCommand(0.3, 0.0, mechanism_on=True))
    assert w.trash[0].collected
    assert not w.trash[1].collected


def test_mechanism_off_collects_nothing():
    trash = ((GroundPoint(1.0, 0.6), 0.3),)
    cfg = WorldConfig(obstacles=(), trash=trash, start=Pose2D(0.6, 0.6, 0.0))
    w = World(cfg, NoiseModel.zero())
    for _ in range(100):
        w.step_world(MotionCommand(0.3, 0.0))
    assert not w.trash[0].collected


def test_world_validation_rejects_bad_layouts():
    with pytest.raises(ValueError):
        World(
            WorldConfig(obstacles=(Rect(7.5, 5.5, 9.0, 6.5),), trash=()),
            NoiseModel.zero(),
        )
    with pytest.raises(ValueError):
        World(
            WorldConfig(obstacles=(), trash=((GroundPoint(9.0, 1.0), 0.3),)),
            NoiseModel.zero(),
        )
    with pytest.raises(ValueError):
        World(
            WorldConfig(obstacles=(), trash=((GroundPoint(1.0, 1.0), MAX_TRASH_MASS + 0.01),)),
            NoiseModel.zero(),
        )
    with pytest.raises(ValueError):
        World(
            WorldConfig(obstacles=(), trash=(), start=Pose2D(-1.0, 0.6, 0.0)),
            NoiseModel.zero(),
        )
    with pytest.raises(ValueError):
        WorldConfig(dt=0.0)
    with pytest.raises(ValueError):
        WorldConfig(trash_count=-1)
    with pytest.raises(ValueError):
        Rect(1.0, 1.0, 1.0, 2.0)


@pytest.mark.parametrize(
    "box",
    [
        Rect(0.3, 0.3, 1.0, 1.0),  # around the default start (0.6, 0.6)
        Rect(0.6, 0.2, 1.5, 1.0),  # start on its edge, which already collides
    ],
)
def test_world_rejects_a_start_pose_inside_an_obstacle(box):
    with pytest.raises(LayoutError, match="start pose lies inside obstacle"):
        World(WorldConfig(obstacles=(box,), trash=()), NoiseModel.zero())
    # just outside the box is a valid start
    outside = Pose2D(box.x1 + 0.01, 0.6, 0.0)
    World(WorldConfig(obstacles=(box,), trash=(), start=outside), NoiseModel.zero())


def test_seeded_layouts_never_cover_the_start():
    for seed in range(50):
        World(WorldConfig(seed=seed), NoiseModel.zero())


def test_detect_zero_noise_is_exact():
    trash = ((GroundPoint(2.6, 0.6), 0.3),)
    cfg = WorldConfig(obstacles=(), trash=trash, start=Pose2D(0.6, 0.6, 0.0))
    w = World(cfg, NoiseModel.zero())
    cam = CameraModel()
    boxes = w.detect(cam, frame_dt=0.1)
    assert len(boxes) == 1
    box = boxes[0]
    pix = ground_point_to_pixel(w.robot.true_pose, GroundPoint(2.6, 0.6), cam)
    assert box.center_u() == pytest.approx(pix[0])
    assert box.center_v() == pytest.approx(pix[1])
    assert box.depth == pytest.approx(pix[2])
    gr = math.hypot(2.6 - 0.7, 0.0)  # camera sits forward_offset ahead
    assert box.confidence == pytest.approx(w.noise.conf_mu(gr))
    # two identical calls under zero noise agree box for box
    assert w.detect(cam, frame_dt=0.1) == boxes


def test_detect_respects_occlusion_range_and_collection():
    cam = CameraModel()
    blocker = Rect(1.5, 0.0, 1.7, 1.2)
    trash = ((GroundPoint(2.6, 0.6), 0.3),)
    cfg = WorldConfig(obstacles=(blocker,), trash=trash, start=Pose2D(0.6, 0.6, 0.0))
    w = World(cfg, NoiseModel.zero())
    assert w.detect(cam, 0.1) == []
    cfg2 = WorldConfig(obstacles=(), trash=trash, start=Pose2D(0.6, 0.6, 0.0))
    w2 = World(cfg2, NoiseModel.zero())
    assert w2.detect(cam, 0.1, detect_max_range=1.0) == []  # beyond range cap
    w2.trash[0].collected = True
    assert w2.detect(cam, 0.1) == []


def test_detect_drops_boxes_clipping_the_image_edge():
    # very close item: huge apparent box would clip the bottom edge
    trash = ((GroundPoint(0.95, 0.6), 0.3),)
    cfg = WorldConfig(obstacles=(), trash=trash, start=Pose2D(0.6, 0.6, 0.0))
    w = World(cfg, NoiseModel.zero())
    assert w.detect(CameraModel(), 0.1) == []


def test_detect_rate_tracks_p_detect():
    noise = NoiseModel(
        odom_heading_bias=0.0,
        odom_noise_sigma=0.0,
        detect_pos_sigma=0.0,
        p_detect_intercept=0.95,
        p_detect_slope=0.1,
        p_detect_min=0.05,
        p_detect_max=0.95,
        pixel_sigma=0.0,
        depth_sigma_per_meter=0.0,
        conf_sigma=0.0,
        false_positive_rate=0.0,
    )
    trash = ((GroundPoint(2.6, 0.6), 0.3),)
    cfg = WorldConfig(obstacles=(), trash=trash, start=Pose2D(0.6, 0.6, 0.0), seed=9)
    w = World(cfg, noise)
    cam = CameraModel()
    n = 2000
    hits = sum(len(w.detect(cam, 0.1)) for _ in range(n))
    p = 0.95 - 0.1 * 1.9  # ground range is 1.9 m from the camera
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(hits / n - p) < 3.0 * sigma


def test_false_positive_rate_poisson_mean():
    noise = NoiseModel(
        odom_noise_sigma=0.0,
        pixel_sigma=0.0,
        depth_sigma_per_meter=0.0,
        conf_sigma=0.0,
        false_positive_rate=0.5,
    )
    cfg = WorldConfig(obstacles=(), trash=(), seed=10)
    w = World(cfg, noise)
    cam = CameraModel()
    n = 2000
    frame_dt = 0.4
    total = sum(len(w.detect(cam, frame_dt)) for _ in range(n))
    lam = 0.5 * frame_dt
    sigma = math.sqrt(lam / n)
    assert abs(total / n - lam) < 3.0 * sigma
    # phantom boxes carry scores spanning [0, 1), not the range-law scores
    boxes = []
    while len(boxes) < 50:
        boxes.extend(w.detect(cam, frame_dt))
    assert min(b.confidence for b in boxes) < 0.3


def test_scan_ranges_hit_walls_and_obstacles():
    ob = Rect(2.0, 0.0, 2.5, 6.0)
    cfg = WorldConfig(obstacles=(ob,), trash=(), start=Pose2D(0.6, 0.6, 0.0))
    w = World(cfg, NoiseModel.zero())
    cam = CameraModel()
    bearings, ranges = w.scan(cam, n_beams=33, max_range=3.5, poses=[(0.6, 0.6, 0.0)])
    assert bearings.shape == (33,) and ranges.shape == (1, 33)
    # dead ahead
    assert bearings[16] == pytest.approx(0.0)
    assert ranges[0, 16] == pytest.approx(1.4)  # obstacle face at x = 2.0
    assert (ranges <= 3.5).all()
    # facing the near wall: range is the wall distance
    w2 = empty_world(start=Pose2D(0.6, 0.6, math.pi))
    _, ranges = w2.scan(cam, n_beams=33, max_range=3.5, poses=[(0.6, 0.6, math.pi)])
    assert ranges[0, 16] == pytest.approx(0.6)
    # one row per pose; the robot's own pose is not used
    _, rows = w2.scan(cam, n_beams=33, max_range=3.5, poses=[(0.6, 0.6, 0.0), (0.6, 0.6, math.pi)])
    assert rows[0, 16] == pytest.approx(3.5)  # capped before the far wall
    assert rows[1, 16] == pytest.approx(0.6)


def test_world_streams_are_deterministic():
    cfg = WorldConfig(seed=21)
    a = World(cfg, NoiseModel())
    b = World(cfg, NoiseModel())
    assert a.obstacles == b.obstacles
    assert [(t.position, t.mass) for t in a.trash] == [
        (t.position, t.mass) for t in b.trash
    ]
    cam = CameraModel()
    for i in range(50):
        a.step_world(MotionCommand(0.3, 0.1))
        b.step_world(MotionCommand(0.3, 0.1))
        if i % 5 == 0:
            assert a.detect(cam, 0.25) == b.detect(cam, 0.25)
    assert a.robot.believed_pose == b.robot.believed_pose
    assert a.robot.true_pose == b.robot.true_pose
    # a different seed diverges
    c = World(WorldConfig(seed=22), NoiseModel())
    assert c.obstacles != a.obstacles


def test_random_layout_spacing_rules():
    start = Pose2D(0.6, 0.6, 0.0)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        obstacles, trash = random_layout(rng, 8.0, 6.0, 5, 3, start, 0.3)
        assert len(obstacles) == 5
        assert len(trash) == 3
        for ob in obstacles:
            assert ob.x0 >= 0.8 - 1e-9 and ob.x1 <= 8.0 - 0.8 + 1e-9
            assert ob.y0 >= 0.8 - 1e-9 and ob.y1 <= 6.0 - 0.8 + 1e-9
            assert ob.distance_to(start.x, start.y) >= 0.6
        for i, a in enumerate(obstacles):
            for b in obstacles[i + 1:]:
                gx = max(b.x0 - a.x1, a.x0 - b.x1)
                gy = max(b.y0 - a.y1, a.y0 - b.y1)
                assert max(gx, gy) >= 0.7
        for p, m in trash:
            assert m == 0.3
            assert 0.5 <= p.x <= 7.5 and 0.5 <= p.y <= 5.5
            assert math.hypot(p.x - start.x, p.y - start.y) >= 1.0
            assert all(ob.distance_to(p.x, p.y) >= 0.6 for ob in obstacles)
        for i, (p, _) in enumerate(trash):
            for q, _ in trash[i + 1:]:
                assert math.hypot(p.x - q.x, p.y - q.y) >= 1.5


def test_delay_queue_releases_on_time():
    q = DelayQueue()
    q.push(1.0, "a")
    q.push(0.5, "b")
    q.push(2.0, "c")
    assert q.pop_ready(0.4) == []
    assert q.pop_ready(1.0) == ["a", "b"]
    assert q.pop_ready(1.0) == []
    assert q.pop_ready(5.0) == ["c"]


def test_aerial_survey_zero_noise_covers_every_item():
    trash = ((GroundPoint(1.1, 1.2), 0.3), (GroundPoint(6.8, 4.9), 0.3))
    cfg = WorldConfig(obstacles=(), trash=trash, start=Pose2D(0.6, 0.6, 0.0))
    w = World(cfg, NoiseModel.zero())
    dets = aerial_survey(w)
    positions = {(p.x, p.y) for p, _ in trash}
    for d in dets:
        assert (d.point.x, d.point.y) in positions
        assert d.confidence == 0.9
    for px, py in positions:
        n = sum(1 for d in dets if (d.point.x, d.point.y) == (px, py))
        assert n >= 4
    # collected items are invisible from the air
    w.trash[0].collected = True
    dets2 = aerial_survey(w)
    assert all((d.point.x, d.point.y) != (trash[0][0].x, trash[0][0].y) for d in dets2)


def reference_survey(world, lane_spacing, latency):
    """`aerial_survey` as it was with a link delay: each message is sent
    with its frame time, dropped with probability comm_drop, delivered
    `latency` later, and the survivors are stable-sorted by delivery
    time."""
    rng = world.rng
    nz = world.noise
    arena = world.arena
    lane_xs = []
    x = arena.x0
    while x < arena.x1 - 1e-9:
        lane_xs.append(x)
        x += lane_spacing
    lane_xs.append(arena.x1)
    frame_interval = lane_spacing / 2.0
    t = 0.0
    messages = []
    for i, lx in enumerate(lane_xs):
        y0, y1 = arena.y0 - lane_spacing, arena.y1 + lane_spacing
        if i % 2 == 1:
            y0, y1 = y1, y0
        stepdir = math.copysign(lane_spacing, y1 - y0)
        for k in range(int(abs(y1 - y0) / lane_spacing) + 1):
            fy = y0 + k * stepdir
            for item in world.trash:
                p = item.position
                if item.collected:
                    continue
                if abs(p.x - lx) <= lane_spacing and abs(p.y - fy) <= lane_spacing:
                    px, py = p.x, p.y
                    if nz.detect_pos_sigma > 0.0:
                        px += rng.normal(0.0, nz.detect_pos_sigma)
                        py += rng.normal(0.0, nz.detect_pos_sigma)
                    messages.append((t, (t, GroundPoint(px, py), 0.9)))
            if nz.false_positive_rate > 0.0:
                for _ in range(int(rng.poisson(nz.false_positive_rate * frame_interval))):
                    point = GroundPoint(
                        rng.uniform(arena.x0, arena.x1), rng.uniform(arena.y0, arena.y1)
                    )
                    messages.append((t, (t, point, float(rng.uniform()))))
            t += frame_interval
    delivered = []
    for send_t, msg in messages:
        if nz.comm_drop > 0.0 and rng.uniform() < nz.comm_drop:
            continue
        delivered.append((send_t + latency, msg))
    delivered.sort(key=lambda pair: pair[0])
    return [msg for _, msg in delivered]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**16),
    st.integers(0, 4),
    st.lists(st.booleans(), min_size=4, max_size=4),
    st.one_of(st.sampled_from([0.5, 1.5, 2.5, 8.0]), st.floats(0.3, 9.0)),
    st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    st.sampled_from([0.0, NoiseModel().false_positive_rate, 5.0]),
    st.sampled_from([0.0, NoiseModel().detect_pos_sigma]),
    st.sampled_from([0.0, 0.2, 7.5]),
)
def test_aerial_survey_equals_the_delayed_link(
    seed, n_trash, collected, lane_spacing, drop, fp_rate, pos_sigma, latency
):
    # a constant link delay keeps the send order, so dropping it changes
    # neither the messages nor the generator stream
    cfg = WorldConfig(seed=seed, obstacle_count=0, trash_count=n_trash)
    noise = NoiseModel(
        comm_drop=drop, false_positive_rate=fp_rate, detect_pos_sigma=pos_sigma
    )
    got = World(cfg, noise)
    want = World(cfg, noise)
    for world in (got, want):
        for item, flag in zip(world.trash, collected):
            item.collected = flag
    survey = [(d.t, d.point, d.confidence) for d in aerial_survey(got, lane_spacing)]
    assert survey == reference_survey(want, lane_spacing, latency)
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


def test_aerial_survey_drops_at_the_link_rate_in_send_order():
    # thousands of phantoms: the dropped share is comm_drop within 3 sigma,
    # and the survivors keep their send order
    cfg = WorldConfig(seed=30, obstacles=(), trash=())
    sent = aerial_survey(World(cfg, NoiseModel(comm_drop=0.0, false_positive_rate=60.0)))
    kept = aerial_survey(World(cfg, NoiseModel(comm_drop=0.3, false_positive_rate=60.0)))
    assert len(sent) > 1500
    frac = 1.0 - len(kept) / len(sent)
    assert abs(frac - 0.3) < 3.0 * math.sqrt(0.3 * 0.7 / len(sent))
    remaining = iter(sent)
    assert all(msg in remaining for msg in kept)


def test_aerial_survey_rejects_bad_lane_spacing():
    w = empty_world()
    with pytest.raises(ValueError):
        aerial_survey(w, lane_spacing=0.0)


def test_noise_model_clamps():
    nz = NoiseModel()
    assert nz.p_detect(0.0) == nz.p_detect_max
    assert nz.p_detect(100.0) == nz.p_detect_min
    assert nz.conf_mu(1.0) == pytest.approx(nz.conf_mu_intercept - nz.conf_mu_slope)
    z = NoiseModel.zero()
    assert z.p_detect(3.0) == 1.0
    assert z.comm_drop == 0.0 and z.false_positive_rate == 0.0

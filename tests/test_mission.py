import math
import operator
import os
import subprocess
import sys
from dataclasses import replace
from itertools import count, islice
from types import SimpleNamespace

import numpy as np
import pytest

import littersim
from littersim import batch, mission
from littersim.clusterfilter import FilterConfig
from littersim.config import ConfigError, MissionConfig, build_config
from littersim.geometry import CameraModel, GroundPoint, Pose2D, project_detection
from littersim.gridmap import FREE, UNKNOWN, load_map
from littersim.mission import PathFollower, run_batch, run_mapping, run_mission, write_report
from littersim.pickup import PickupConfig, PickupPhase
from littersim.pickup import step as pickup_step
from littersim.report import COLLECTED, UNDETECTED, UNREACHABLE
from littersim.simworld import NoiseModel, Rect, World, WorldConfig


def make_cfg(
    trash,
    obstacles=(),
    arena=(5.0, 4.0),
    seed=0,
    noise=None,
    filter_cfg=None,
    **mission_kw,
):
    return MissionConfig(
        world=WorldConfig(
            arena_w=arena[0],
            arena_h=arena[1],
            seed=seed,
            obstacles=tuple(obstacles),
            trash=tuple(trash),
        ),
        noise=noise if noise is not None else NoiseModel.zero(),
        camera=CameraModel(),
        filter=filter_cfg if filter_cfg is not None else FilterConfig(),
        pickup=PickupConfig(),
        **mission_kw,
    )


def test_zero_noise_mission_collects_everything():
    cfg = make_cfg(
        trash=((GroundPoint(3.5, 3.0), 0.3), (GroundPoint(1.8, 2.6), 0.3)),
        obstacles=(Rect(2.2, 1.0, 2.8, 1.6),),
    )
    report = run_mission(cfg)
    assert report.success
    assert report.n_collected == 2
    assert [p.outcome for p in report.per_trash] == [COLLECTED, COLLECTED]
    assert len(report.hypotheses) == 2
    for p in report.per_trash:
        assert p.matched is not None
        assert p.map_error < cfg.map_resolution
    assert 0.0 < report.wall_time < cfg.max_time


def test_mission_dump_files(tmp_path):
    out = str(tmp_path / "run")
    cfg = make_cfg(trash=((GroundPoint(3.5, 3.0), 0.3),), output_dir=out)
    report = run_mission(cfg)
    assert report.success
    for name in ("report.txt", "hypotheses.txt", "trajectory.txt", "ground_truth.txt", "map.grid"):
        assert os.path.exists(os.path.join(out, name)), name
    assert os.path.exists(os.path.join(out, "episode_00.txt"))
    text = open(os.path.join(out, "report.txt"), encoding="utf-8").read()
    fields = dict(
        line.split(" = ", 1) for line in text.strip().splitlines()
    )
    assert fields["success"] == "true"
    assert fields["map_file"] == "map.grid"  # basename, not a path
    assert fields["n_trash"] == "1"
    assert fields["n_collected"] == "1"
    assert fields["trash_0_outcome"] == COLLECTED
    assert float(fields["mean_map_error_m"]) < cfg.map_resolution
    # the saved grid loads back with arena-covering dimensions
    grid = load_map(os.path.join(out, "map.grid"))
    assert grid.width == math.ceil(5.0 / cfg.map_resolution)
    assert grid.height == math.ceil(4.0 / cfg.map_resolution)
    # episode log lines carry time, phase, command, mechanism flag, pose
    first = open(os.path.join(out, "episode_00.txt"), encoding="utf-8").readline().split()
    assert len(first) == 8
    float(first[0])
    assert first[4] in ("0", "1")
    # and quote the tick's trajectory line for t and the pose
    with open(os.path.join(out, "trajectory.txt"), encoding="ascii") as fh:
        trajectory = set(fh.read().splitlines())
    with open(os.path.join(out, "episode_00.txt"), encoding="utf-8") as fh:
        for line in fh:
            t, _, _, _, _, x, y, theta = line.split()
            assert f"{t} {x} {y} {theta}" in trajectory


def test_collection_builds_one_cost_field(monkeypatch):
    # order_waypoints and every approach_goal share the field collect builds
    from littersim import planner

    built = []
    init = planner.CostField.__init__

    def counting_init(self, grid):
        built.append(grid)
        init(self, grid)

    monkeypatch.setattr(planner.CostField, "__init__", counting_init)
    cfg = make_cfg(
        trash=((GroundPoint(3.5, 3.0), 0.3), (GroundPoint(1.8, 2.6), 0.3)),
        obstacles=(Rect(2.2, 1.0, 2.8, 1.6),),
    )
    report = run_mission(cfg)
    assert report.n_collected == 2
    assert len(built) == 1


def test_trajectory_keeps_every_pose_sample(tmp_path, monkeypatch):
    # seed 3 runs for about 177 s, far past the 60 s lookup horizon
    steps = []
    step_world = World.step_world

    def counting_step(world, cmd, pinned=False):
        steps.append(world.t)
        return step_world(world, cmd, pinned)

    monkeypatch.setattr(World, "step_world", counting_step)
    out = tmp_path / "run"
    report = run_mission(build_config({"world.seed": ["3"]}, output_dir=str(out)))
    assert report.wall_time > 120.0
    lines = (out / "trajectory.txt").read_text(encoding="ascii").splitlines()
    assert lines[0].split()[0] == "0.0"
    assert len(lines) == len(steps) + 1
    assert float(lines[-1].split()[0]) == report.wall_time


def test_empty_trash_is_vacuous_success():
    cfg = make_cfg(trash=())
    report = run_mission(cfg)
    assert report.success
    assert report.per_trash == []
    assert report.n_trash == 0
    assert len(report.hypotheses) == 0
    assert math.isnan(report.mean_map_error)


def test_sealed_trash_reports_unreachable():
    box = (
        Rect(3.0, 2.0, 3.2, 4.0),
        Rect(4.8, 2.0, 5.0, 4.0),
        Rect(3.2, 2.0, 4.8, 2.2),
        Rect(3.2, 3.8, 4.8, 4.0),
    )
    cfg = make_cfg(
        trash=((GroundPoint(4.0, 3.0), 0.3),),
        obstacles=box,
        arena=(8.0, 6.0),
    )
    report = run_mission(cfg)
    assert not report.success
    assert report.per_trash[0].outcome == UNREACHABLE
    # the survey still confirmed and localized it through the roof
    assert report.per_trash[0].matched is not None
    assert report.per_trash[0].map_error < 0.5


def test_unconfirmed_trash_reports_undetected():
    cfg = make_cfg(
        trash=((GroundPoint(3.0, 2.5), 0.3),),
        arena=(4.0, 3.0),
        filter_cfg=FilterConfig(accept_threshold=999),
    )
    report = run_mission(cfg)
    assert not report.success
    assert report.per_trash[0].outcome == UNDETECTED
    assert report.per_trash[0].matched is None
    assert math.isnan(report.per_trash[0].map_error)
    assert len(report.hypotheses) == 0


def test_trial_scenario_runs_one_episode(tmp_path):
    out = str(tmp_path / "trial")
    cfg = make_cfg(
        trash=None or (),
        arena=(8.0, 6.0),
        scenario="pickup_trial",
        trial_distance=1.0,
        output_dir=out,
    )
    report = run_mission(cfg)
    assert report.success
    assert report.n_trash == 1
    assert report.map_file == ""
    assert report.per_trash[0].outcome == COLLECTED
    assert os.path.exists(os.path.join(out, "episode_00.txt"))
    assert not os.path.exists(os.path.join(out, "map.grid"))
    # the item really spawns trial_distance ahead of the start pose
    assert report.per_trash[0].truth.x == pytest.approx(4.0 - 0.5 + 1.0)
    assert report.per_trash[0].truth.y == pytest.approx(3.0)


def test_pickup_trial_loads_no_scipy_morphology_or_graph_module():
    # a fresh interpreter: this test process has long imported scipy
    code = (
        "import sys\n"
        "import littersim\n"
        "from littersim.config import build_config\n"
        "report = littersim.run_mission(build_config({'mission.scenario': ['pickup_trial']}))\n"
        "assert report.n_trash == 1\n"
        "print(sorted(m for m in ('scipy.ndimage', 'scipy.sparse.csgraph') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(littersim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_full_mission_loads_no_scipy_morphology_module(tmp_path):
    # a fresh interpreter: map cleanup, inflation and tour reachability run
    # on numpy and the sparse graph alone
    code = (
        "import sys\n"
        "import littersim\n"
        "from littersim.config import build_config\n"
        f"report = littersim.run_mission(build_config({{}}, {str(tmp_path)!r}))\n"
        "assert report.per_trash\n"
        "print('scipy.ndimage' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(littersim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
    assert os.path.exists(os.path.join(tmp_path, "map.grid"))


def test_trial_rerun_is_identical_under_full_noise():
    cfg = make_cfg(
        trash=(),
        arena=(8.0, 6.0),
        seed=7,
        noise=NoiseModel(),
        scenario="pickup_trial",
        trial_distance=1.0,
    )
    a = run_mission(cfg)
    b = run_mission(cfg)
    assert a.success == b.success
    assert a.wall_time == b.wall_time
    assert a.per_trash[0].outcome == b.per_trash[0].outcome


def test_full_mission_rerun_is_identical_under_full_noise():
    cfg = make_cfg(
        trash=((GroundPoint(3.5, 3.0), 0.3),),
        obstacles=(Rect(2.2, 1.0, 2.8, 1.6),),
        seed=4,
        noise=NoiseModel(),
    )
    a = run_mission(cfg)
    b = run_mission(cfg)
    assert a.success == b.success
    assert a.wall_time == b.wall_time
    assert a.hypotheses == b.hypotheses
    assert a.per_trash == b.per_trash or (
        [p.outcome for p in a.per_trash] == [p.outcome for p in b.per_trash]
    )


def test_run_mapping_returns_grid_and_confirmations():
    cfg = make_cfg(trash=((GroundPoint(3.5, 3.0), 0.3),))
    grid, hyps, world = run_mapping(cfg)
    assert isinstance(world, World)
    assert len(hyps) == 1
    truth = world.trash[0].position
    err = math.hypot(hyps[0].point.x - truth.x, hyps[0].point.y - truth.y)
    assert err < cfg.map_resolution
    # the sweep saw most of the small arena
    assert (grid.cells == FREE).mean() > 0.5


def test_write_report_bytes_are_stable(tmp_path):
    cfg = make_cfg(trash=((GroundPoint(3.5, 3.0), 0.3),))
    report = run_mission(cfg)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_report(report, str(p1))
    write_report(report, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_path_follower_rotates_then_drives():
    f = PathFollower([GroundPoint(1.0, 0.0)], speed=0.5, turn_rate=1.2, reach=0.05)
    cmd = f.command(Pose2D(0.0, 0.0, math.pi / 2), 0.05)
    assert cmd.v == 0.0
    assert cmd.omega == pytest.approx(-1.2)
    f2 = PathFollower([GroundPoint(1.0, 0.0)], speed=0.5, turn_rate=1.2, reach=0.05)
    cmd2 = f2.command(Pose2D(0.0, 0.0, 0.0), 0.05)
    assert cmd2.v == 0.5
    assert cmd2.omega == 0.0
    # reaching the final waypoint within one cell returns None
    assert f2.command(Pose2D(0.96, 0.0, 0.0), 0.05) is None


def test_path_follower_advances_intermediate_waypoints():
    wps = [GroundPoint(0.5, 0.0), GroundPoint(1.0, 0.0)]
    f = PathFollower(wps, speed=0.5, turn_rate=1.2, reach=0.05)
    # within 1.5 cells of the first waypoint: chases the second instead
    cmd = f.command(Pose2D(0.43, 0.0, 0.0), 0.05)
    assert cmd.v == 0.5
    assert f._idx == 1
    with pytest.raises(ValueError):
        PathFollower([], speed=0.5, turn_rate=1.2, reach=0.05)


def test_run_batch_rows_aggregates_and_csv(tmp_path):
    out = str(tmp_path / "batch")
    raw = {
        "mission.scenario": ["pickup_trial"],
        "noise.odom_noise_sigma": ["0.0"],
        "noise.pixel_sigma": ["0.0"],
    }
    rows, aggs = run_batch(
        raw,
        seeds=[0, 1, 2],
        sweep=[("mission.trial_distance", ["0.5", "1.0"])],
        out_dir=out,
    )
    assert len(rows) == 6
    assert len(aggs) == 2
    for agg in aggs:
        assert agg["n_runs"] == 3
        assert 0.0 <= agg["success_rate"] <= 1.0
    # seeds iterate fastest inside one sweep point
    assert [r["seed"] for r in rows] == [0, 1, 2, 0, 1, 2]
    assert rows[0]["mission.trial_distance"] == "0.5"
    assert rows[3]["mission.trial_distance"] == "1.0"
    runs_lines = open(os.path.join(out, "runs.csv"), encoding="utf-8").read().splitlines()
    assert runs_lines[0] == (
        "seed,mission.trial_distance,success,n_collected,n_trash,"
        "mean_map_error_m,wall_time_s"
    )
    assert len(runs_lines) == 7
    assert runs_lines[1].split(",")[2] in ("true", "false")
    agg_lines = open(os.path.join(out, "aggregate.csv"), encoding="utf-8").read().splitlines()
    assert agg_lines[0] == (
        "mission.trial_distance,n_runs,success_rate,mean_map_error_m,mean_wall_time_s"
    )
    assert len(agg_lines) == 3


def test_run_batch_without_sweep_or_seeds():
    rows, aggs = run_batch(
        {"mission.scenario": ["pickup_trial"]}, seeds=[0], sweep=[]
    )
    assert len(rows) == 1
    assert len(aggs) == 1
    assert aggs[0]["n_runs"] == 1
    with pytest.raises(ConfigError):
        run_batch({}, seeds=[], sweep=[])


def test_run_batch_builds_every_sweep_point_before_any_mission(monkeypatch):
    # the second sweep point is invalid: the batch ends before the first
    # point's missions run, naming the point and the seed its config was
    # built with; 10**12 seeds per point cost nothing
    ran = []
    monkeypatch.setattr(mission, "run_mission", lambda cfg: ran.append(cfg))
    with pytest.raises(ConfigError) as info:
        run_batch({}, seeds=range(3, 10**12), sweep=[("mission.n_beams", ["32", "1"])])
    assert str(info.value) == "seed 3, mission.n_beams=1: mission.n_beams: need at least 2 beams"
    assert ran == []


def test_run_batch_runs_a_sweep_that_mends_the_config(monkeypatch):
    # the config alone is invalid, and every sweep point makes it valid
    ran = []

    def stub(cfg):
        ran.append(cfg.n_beams)
        return SimpleNamespace(success=True, n_collected=0, n_trash=0, mean_map_error=0.0, wall_time=1.0)

    monkeypatch.setattr(mission, "run_mission", stub)
    # one CPU keeps a batch's missions in this process, where the stub is
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 1)
    run_batch({"mission.n_beams": ["1"]}, seeds=[0], sweep=[("mission.n_beams", ["32", "64"])])
    assert ran == [32, 64]


def _reference_pickup_episode(self, state, expected):
    """`_Runner._pickup_episode` as a loop that projects every ready frame
    through `_near`, in every phase, and logs nothing."""
    cfg = self.cfg
    dt = cfg.world.dt
    world = self.world
    t0 = world.t
    cap = (
        cfg.pickup.timeout
        + (cfg.standoff + 1.0) / cfg.pickup.drive_speed
        + 2.0 * math.pi / cfg.pickup.spin_rate
        + 5.0
    )

    def finished():
        terminal = state.phase in (PickupPhase.DONE, PickupPhase.TIMED_OUT)
        return terminal or world.t - t0 >= cap

    def command(detections):
        nonlocal state
        state, cmd = mission.pickup_step(state, world.robot.believed_pose, detections, cfg.pickup, dt)
        return cmd

    self._run(command, accept=self._near(expected), after=finished)
    return state.phase is PickupPhase.DONE


def _recorded_run(cfg, path, reference):
    """report.txt bytes, the per-tick (phase, command) rows and the number
    of projected boxes of one run."""
    steps = []
    projected = []

    def record_step(*args):
        state, cmd = pickup_step(*args)
        steps.append((state.phase, cmd))
        return state, cmd

    def record_projection(*args):
        projected.append(args)
        return project_detection(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mission, "pickup_step", record_step)
        mp.setattr(mission, "project_detection", record_projection)
        if reference:
            mp.setattr(mission._Runner, "_pickup_episode", _reference_pickup_episode)
        write_report(run_mission(cfg), str(path))
    return path.read_bytes(), steps, len(projected)


EPISODE_CASES = [
    *(
        {"mission.scenario": ["pickup_trial"], "mission.trial_distance": [d], "world.seed": [str(s)]}
        for d in ("0.5", "1.0", "2.0")
        for s in range(4)
    ),
    {"world.seed": ["0"]},
    {"world.seed": ["0"], "pickup.reidentify": ["false"]},
]


def test_pickup_episodes_equal_the_loop_that_projects_every_frame(tmp_path):
    # frames are projected only while the FSM spin-searches; after the lock
    # they are popped on the same ticks and dropped unread, so every tick
    # chooses the same command and the reports keep their bytes
    projected = {"new": 0, "reference": 0}
    for raw in EPISODE_CASES:
        cfg = build_config(raw)
        report, steps, n = _recorded_run(cfg, tmp_path / "new.txt", reference=False)
        want_report, want_steps, want_n = _recorded_run(cfg, tmp_path / "ref.txt", reference=True)
        assert steps == want_steps, raw
        assert report == want_report, raw
        assert len(steps) > 0 and n <= want_n
        projected["new"] += n
        projected["reference"] += want_n
    assert projected["new"] < projected["reference"]


@pytest.mark.parametrize(
    "raw",
    [{"world.seed": ["0"]}, {"mission.scenario": ["pickup_trial"], "world.seed": ["4"]}],
    ids=["full", "pickup_trial"],
)
def test_a_run_without_a_dump_keeps_no_step_log_and_the_same_report(tmp_path, monkeypatch, raw):
    runners = []
    init = mission._Runner.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runners.append(self)

    monkeypatch.setattr(mission._Runner, "__init__", keep)
    out = tmp_path / "dump"
    dumped = run_mission(build_config(raw, output_dir=str(out)))
    plain = run_mission(build_config(raw))
    dumped_runner, plain_runner = runners
    assert dumped_runner.episode_logs
    assert len(dumped_runner.episode_logs) == len(list(out.glob("episode_*.txt")))
    assert plain_runner.episode_logs == []
    # only the dumped run writes a map file for the report to name
    write_report(dumped, str(tmp_path / "dumped.txt"))
    write_report(replace(plain, map_file=dumped.map_file), str(tmp_path / "plain.txt"))
    assert (tmp_path / "plain.txt").read_bytes() == (tmp_path / "dumped.txt").read_bytes()


def test_pool_map_keeps_order_and_submits_a_small_window():
    pulled = []

    def items():
        for i in count():
            pulled.append(i)
            yield i

    results = batch._pool_map(operator.neg, items(), 2)
    assert list(islice(results, 5)) == [0, -1, -2, -3, -4]
    # an endless input is read at most 2 x workers items ahead
    assert len(pulled) <= 5 + 2 * 2
    results.close()


# names perfbench/tracer.py rebinds on the mission module to time each layer
TRACED = (
    "integrate_scan",
    "project_detection",
    "pickup_step",
    "ingest",
    "approach_goal",
    "astar",
    "order_waypoints",
    "morph_close_open",
    "inflate",
    "save_map",
    "aerial_survey",
)


def test_traced_layers_are_looked_up_on_the_mission_module(tmp_path, monkeypatch):
    # a layer bound anywhere else would escape the wrapper and read 0 calls
    calls = dict.fromkeys(TRACED, 0)
    for name in TRACED:
        original = getattr(mission, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(mission, name, counted)
    run_mission(build_config({"world.seed": ["0"]}, output_dir=str(tmp_path)))
    assert [name for name, n in calls.items() if n == 0] == []


@pytest.mark.parametrize("overrides", [{}, {"mission.max_time": ["60"]}], ids=["full", "max_time_60"])
def test_mapping_sweep_folds_its_queued_scans_once(monkeypatch, overrides):
    # the sweep queues every scan pose and folds the scans in one call,
    # also when max_time cuts it short; the grid it hands to the cleanup
    # is the one that folding the same scans one at a time gives
    cfg = build_config({"world.seed": ["0"], **overrides})
    folds = []
    before_cleanup = []
    integrate_scan, morph_close_open = mission.integrate_scan, mission.morph_close_open

    def record_fold(grid, poses, bearings, ranges, max_range):
        folds.append((poses, bearings, ranges, max_range))
        integrate_scan(grid, poses, bearings, ranges, max_range)

    def record_cleanup(grid):
        before_cleanup.append(grid.copy())
        return morph_close_open(grid)

    monkeypatch.setattr(mission, "integrate_scan", record_fold)
    monkeypatch.setattr(mission, "morph_close_open", record_cleanup)
    runner, _grid = mission._mapped(cfg)
    assert len(folds) == 1 and len(before_cleanup) == 1
    assert runner.pending_poses == []
    poses, bearings, ranges, max_range = folds[0]
    assert len(poses) > 100
    assert ranges.shape == (len(poses), cfg.n_beams)
    assert max_range == cfg.scan_max_range
    if overrides:
        assert runner.world.t >= cfg.max_time
    one_at_a_time = mission._Runner(cfg).grid
    assert (one_at_a_time.cells == UNKNOWN).all()
    for i in range(len(poses)):
        integrate_scan(one_at_a_time, poses[i : i + 1], bearings, ranges[i : i + 1], max_range)
    assert one_at_a_time == before_cleanup[0]


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_mapping_sweep_casts_from_the_true_pose_of_each_tick(monkeypatch, seed):
    # every queued pose is the true pose of the tick that queued it, so the
    # cast at sweep end gives the ranges a scan on that tick would have
    cfg = build_config({"world.seed": [str(seed)]})
    queued = []
    live_scans = []
    runners = []
    init = mission._Runner.__init__
    scan = World.scan

    class RecordingQueue(list):
        # the tick loop queues each scan pose by appending it here
        def append(self, pose):
            super().append(pose)
            world = runners[-1].world
            true = world.robot.true_pose
            queued.append((pose, true))
            row = [(true.x, true.y, true.theta)]
            live_scans.append(scan(world, cfg.camera, cfg.n_beams, cfg.scan_max_range, row)[1])

    def hooked_init(runner, *args, **kwargs):
        init(runner, *args, **kwargs)
        runner.pending_poses = RecordingQueue()
        runners.append(runner)

    casts = []

    def record_cast(world, *args, **kwargs):
        casts.append(scan(world, *args, **kwargs))
        return casts[-1]

    monkeypatch.setattr(mission._Runner, "__init__", hooked_init)
    monkeypatch.setattr(World, "scan", record_cast)
    mission._mapped(cfg)
    assert len(queued) > 100
    assert all(pose == true_pose for pose, true_pose in queued)
    assert len(casts) == 1
    _bearings, ranges = casts[0]
    assert ranges.tobytes() == np.concatenate(live_scans).tobytes()


@pytest.mark.parametrize("first", ["littersim.batch", "littersim.report", "littersim.mission"])
def test_the_split_modules_import_in_any_order(first):
    # a fresh interpreter: an import cycle or a dropped re-export would
    # otherwise show only when a script or the benchmark imports them
    code = (
        f"import {first}\n"
        "import littersim.batch, littersim.mission, littersim.report\n"
        "assert littersim.mission.run_batch is littersim.batch.run_batch\n"
        "assert littersim.mission.write_report is littersim.report.write_report\n"
        "from littersim.mission import MIN_APPROACH, run_mapping, run_mission, write_report\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(littersim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr

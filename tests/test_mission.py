import math
import os

import pytest

from littersim.clusterfilter import FilterConfig
from littersim.config import ConfigError, MissionConfig, build_config
from littersim.geometry import CameraModel, GroundPoint, Pose2D
from littersim.gridmap import FREE, load_map
from littersim.mission import (
    COLLECTED,
    UNDETECTED,
    UNREACHABLE,
    PathFollower,
    run_batch,
    run_mapping,
    run_mission,
    write_report,
)
from littersim.pickup import PickupConfig
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

    def counting_step(world, cmd):
        steps.append(world.t)
        return step_world(world, cmd)

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
    f = PathFollower([GroundPoint(1.0, 0.0)], speed=0.5, turn_rate=1.2, resolution=0.05)
    cmd = f.command(Pose2D(0.0, 0.0, math.pi / 2), 0.05)
    assert cmd.v == 0.0
    assert cmd.omega == pytest.approx(-1.2)
    f2 = PathFollower([GroundPoint(1.0, 0.0)], speed=0.5, turn_rate=1.2, resolution=0.05)
    cmd2 = f2.command(Pose2D(0.0, 0.0, 0.0), 0.05)
    assert cmd2.v == 0.5
    assert cmd2.omega == 0.0
    # reaching the final waypoint within one cell returns None
    assert f2.command(Pose2D(0.96, 0.0, 0.0), 0.05) is None


def test_path_follower_advances_intermediate_waypoints():
    wps = [GroundPoint(0.5, 0.0), GroundPoint(1.0, 0.0)]
    f = PathFollower(wps, speed=0.5, turn_rate=1.2, resolution=0.05)
    # within 1.5 cells of the first waypoint: chases the second instead
    cmd = f.command(Pose2D(0.43, 0.0, 0.0), 0.05)
    assert cmd.v == 0.5
    assert f._idx == 1
    with pytest.raises(ValueError):
        PathFollower([], speed=0.5, turn_rate=1.2, resolution=0.05)


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

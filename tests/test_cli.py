import os
import subprocess
import sys

import pytest

import littersim
from littersim import cli, mission
from littersim.cli import _parse_seeds, _parse_sweep, main
from littersim.config import ConfigError
from littersim.gridmap import load_map

TRIAL_CFG = (
    "mission.scenario = pickup_trial\n"
    "mission.trial_distance = 1.0\n"
    "noise.odom_noise_sigma = 0.0\n"
    "noise.pixel_sigma = 0.0\n"
)

TINY_MAP_CFG = (
    "world.arena_w = 4.0\n"
    "world.arena_h = 3.0\n"
    "world.obstacle_count = 0\n"
    "world.trash_count = 0\n"
)


def test_parse_seeds_forms():
    assert list(_parse_seeds("0..3")) == [0, 1, 2, 3]
    assert _parse_seeds("5") == [5]
    assert _parse_seeds("5,7, 9") == [5, 7, 9]
    assert list(_parse_seeds("4..4")) == [4]
    with pytest.raises(ConfigError):
        _parse_seeds("3..1")
    with pytest.raises(ConfigError):
        _parse_seeds("a..b")
    with pytest.raises(ConfigError):
        _parse_seeds("1,x")


def test_huge_seed_range_is_not_materialised():
    # a list of 10**15 + 1 ints would not fit in memory; the range holds
    # only its ends
    seeds = _parse_seeds(f"0..{10**15}")
    assert len(seeds) == 10**15 + 1
    assert seeds[0] == 0 and seeds[-1] == 10**15


def test_parse_sweep_forms():
    assert _parse_sweep(["k=1,2"]) == [("k", ["1", "2"])]
    assert _parse_sweep(["a=1", "b = x, y"]) == [("a", ["1"]), ("b", ["x", "y"])]
    assert _parse_sweep([]) == []
    with pytest.raises(ConfigError):
        _parse_sweep(["novalue"])
    with pytest.raises(ConfigError):
        _parse_sweep(["=1,2"])
    with pytest.raises(ConfigError):
        _parse_sweep(["k="])


def test_run_command_prints_summary(tmp_path, capsys):
    cfg = tmp_path / "trial.cfg"
    cfg.write_text(TRIAL_CFG, encoding="utf-8")
    out = str(tmp_path / "out")
    code = main(["run", "--config", str(cfg), "--seed", "3", "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "seed = 3" in stdout
    assert "success = true" in stdout
    assert "collected = 1/1" in stdout
    assert f"wrote {out}" in stdout
    assert os.path.exists(os.path.join(out, "report.txt"))


def test_run_command_defaults_without_config(tmp_path, capsys):
    # no config file at all: built-in defaults drive a full mission
    code = main(["run", "--seed", "1"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "seed = 1" in stdout
    assert "wall_time_s = " in stdout


def test_batch_command_prints_aggregates(tmp_path, capsys):
    cfg = tmp_path / "trial.cfg"
    cfg.write_text(TRIAL_CFG, encoding="utf-8")
    out = str(tmp_path / "batch")
    code = main(
        [
            "batch",
            "--config",
            str(cfg),
            "--seeds",
            "0..2",
            "--sweep",
            "mission.trial_distance=0.5,1.0",
            "--out",
            out,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    lines = [l for l in stdout.splitlines() if "success_rate=" in l]
    assert len(lines) == 2
    assert all("mission.trial_distance=" in l and "n_runs=3" in l for l in lines)
    assert os.path.exists(os.path.join(out, "runs.csv"))
    assert os.path.exists(os.path.join(out, "aggregate.csv"))


def test_map_command_writes_grid(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_MAP_CFG, encoding="utf-8")
    out = str(tmp_path / "arena.grid")
    code = main(["map", "--config", str(cfg), "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "confirmed_hypotheses = 0" in stdout
    grid = load_map(out)
    assert grid.width == 80
    assert grid.height == 60


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "io error" in capsys.readouterr().err


def test_bad_config_content_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("world.sede = 1\n", encoding="utf-8")
    code = main(["run", "--config", str(cfg)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_bad_seeds_and_sweep_exit_1(tmp_path, capsys):
    cfg = tmp_path / "trial.cfg"
    cfg.write_text(TRIAL_CFG, encoding="utf-8")
    assert main(["batch", "--config", str(cfg), "--seeds", "9..1"]) == 1
    assert main(["batch", "--config", str(cfg), "--seeds", ""]) == 1
    assert (
        main(
            ["batch", "--config", str(cfg), "--seeds", "0", "--sweep", "nokey"]
        )
        == 1
    )
    err = capsys.readouterr().err
    assert err.count("config error") == 3


def test_negative_seed_exits_1(tmp_path, capsys):
    # numpy's generator takes no negative seed; the config says so first
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("world.seed = -5\n", encoding="utf-8")
    assert main(["run", "--seed", "-1"]) == 1
    assert main(["run", "--config", str(cfg)]) == 1
    assert main(["map", "--config", str(cfg), "--out", str(tmp_path / "m.grid")]) == 1
    assert main(["batch", "--seeds=-1..0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: seed must be non-negative, got -1"] + [
        "config error: seed must be non-negative, got -5"
    ] * 2 + ["config error: seed must be non-negative, got -1"]


def test_negative_seed_range_exits_1(capsys):
    # a seed list that starts with a minus reaches the seed check as a
    # separate argument too, not an argparse usage error with exit 2
    assert main(["batch", "--seeds", "-1..0"]) == 1
    assert main(["batch", "--seeds", "-3,1", "--sweep", "world.trash_count=1"]) == 1
    assert main(["batch", "--seeds", "-2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "config error: seed must be non-negative, got -1",
        "config error: seed must be non-negative, got -3",
        "config error: seed must be non-negative, got -2",
    ]


def test_batch_rejects_sweeping_the_seed(tmp_path, capsys):
    # --seeds would override the swept seed on every row
    cfg = tmp_path / "trial.cfg"
    cfg.write_text(TRIAL_CFG, encoding="utf-8")
    out = tmp_path / "batch"
    code = main([
        "batch", "--config", str(cfg), "--seeds", "0", "--sweep", "world.seed=1,2",
        "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: world.seed cannot be swept; list the seeds with --seeds\n"
    )
    assert not out.exists()


def test_batch_rejects_a_key_swept_twice(tmp_path, capsys):
    # two sweeps of one key would share one runs.csv column
    cfg = tmp_path / "trial.cfg"
    cfg.write_text(TRIAL_CFG, encoding="utf-8")
    code = main([
        "batch", "--config", str(cfg), "--seeds", "0",
        "--sweep", "world.trash_count=1", "--sweep", "mission.standoff=2.0",
        "--sweep", "world.trash_count=2",
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: sweep key 'world.trash_count' is given more than once\n"
    )


def test_survey_latency_key_is_unknown(tmp_path, capsys):
    # the survey ends before any of its messages is used, so a link delay
    # could change nothing; the key is gone, not silently ignored
    cfg = tmp_path / "latency.cfg"
    cfg.write_text("noise.comm_latency = 0.2\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "config error: line 1: unknown key 'noise.comm_latency'\n"
    )


def test_unknown_override_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "trial.cfg"
    cfg.write_text(TRIAL_CFG, encoding="utf-8")
    code = main(
        ["batch", "--config", str(cfg), "--seeds", "0", "--sweep", "mission.typo=1"]
    )
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("noise.comm_drop = 3\n", "noise.comm_drop: must lie in [0, 1]"),
        ("noise.p_detect_min = 2\n", "noise.p_detect_min: must lie in [0, 1]"),
        ("noise.pixel_sigma = -1\n", "noise.pixel_sigma: must be non-negative"),
        ("noise.odom_noise_sigma = -1\n", "noise.odom_noise_sigma: must be non-negative"),
        ("noise.false_positive_rate = -1\n", "noise.false_positive_rate: must be non-negative"),
        ("noise.conf_sigma = -1\n", "noise.conf_sigma: must be non-negative"),
        ("noise.detector_latency = -1\n", "noise.detector_latency: must be non-negative"),
        (
            "world.obstacle = 0.3 0.3 1.0 1.0\n",
            "world layout: start pose lies inside obstacle",
        ),
        ("world.obstacle_count = 60\n", "could not place obstacles"),
        ("world.arena_w = 0.5\n", "could not place obstacles"),
        (
            "world.arena_w = 0.5\nworld.obstacle_count = 0\n",
            "arena too small to keep trash",
        ),
        ("camera.image_width = 40\n", "camera.image_width: must be at least 48 px"),
        ("camera.image_height = 40\n", "camera.image_height: must be at least 48 px"),
        ("pickup.align_tolerance = -1\n", "align_tolerance must be positive"),
        ("mission.turn_rate = 1e-309\n", "mission.turn_rate: a lane-end spin takes inf s"),
        (
            "mission.turn_rate = 0.1\nmission.max_time = 60\n",
            "mission.turn_rate: a lane-end spin takes 62.8319 s, longer than "
            "mission.max_time 60.0",
        ),
        (
            "mission.mapping_speed = 0.0001\n",
            "mission.mapping_speed: a jog's reverse takes 4000 s",
        ),
        (
            "mission.nav_speed = 1e-309\n",
            "mission.nav_speed: a drive along the arena diagonal takes inf s",
        ),
        (
            "mission.nav_speed = 0.01\nmission.max_time = 600\n",
            "mission.nav_speed: a drive along the arena diagonal takes 1000 s, longer than "
            "mission.max_time 600.0",
        ),
        (
            "mission.n_beams = 1000000000000\n",
            "mission.n_beams: 1000000000000 beams on each of up to 2251 scans exceed "
            "the 4194304 rays one sweep may cast",
        ),
    ],
)
@pytest.mark.parametrize("command", ["run", "map", "batch"])
def test_impossible_config_exits_1_from_every_command(tmp_path, capsys, text, message, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    extra = {
        "run": [],
        "map": ["--out", str(tmp_path / "m.grid")],
        "batch": ["--seeds", "0..1"],
    }[command]
    code = main([command, "--config", str(cfg), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")
    assert message in err
    assert "Traceback" not in err


def test_batch_names_the_seed_whose_layout_fails(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_MAP_CFG, encoding="utf-8")
    code = main(
        [
            "batch", "--config", str(cfg), "--seeds", "4",
            "--sweep", "world.obstacle_count=0,60",
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(
        "config error: seed 4, world.obstacle_count=60: world layout: "
        "could not place obstacles"
    )


@pytest.mark.parametrize(
    "text",
    [
        "mission.turn_rate = 1e-309\n",
        # rate * dt underflows to zero
        "mission.turn_rate = 5e-324\n",
    ],
)
def test_vanishing_rates_never_give_a_traceback(tmp_path, text):
    # a lane-end spin at such a rate needs more ticks than an int can
    # count; the count is capped at the ticks left before max_time
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(text, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(littersim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "littersim", "run", "--config", str(cfg)],
        env=env, capture_output=True, text=True,
    )
    assert "Traceback" not in out.stderr
    if out.returncode == 0:
        assert "wall_time_s = " in out.stdout
    else:
        assert out.returncode == 1
        assert out.stderr.startswith("config error: ")


@pytest.mark.parametrize("dt", ["1e-9", "1e-300"])
@pytest.mark.parametrize("command", ["run", "map", "batch"])
def test_a_dt_over_the_tick_cap_exits_1_before_any_mission(tmp_path, capsys, monkeypatch, dt, command):
    # such a mission would never end; the config rejects it before it starts
    def no_mission(cfg):
        raise AssertionError("a mission ran")

    for module, name in ((cli, "run_mission"), (cli, "run_mapping"), (mission, "run_mission")):
        monkeypatch.setattr(module, name, no_mission)
    # one CPU keeps a batch's missions in this process, where the stub is
    monkeypatch.setattr(mission, "_usable_cpus", lambda: 1)
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(f"world.dt = {dt}\n", encoding="utf-8")
    extra = {"run": [], "map": ["--out", str(tmp_path / "m.grid")], "batch": ["--seeds", "0..1"]}
    code = main([command, "--config", str(cfg), *extra[command]])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: world.dt: {float(dt)!r} s needs ")
    assert "Traceback" not in err


def test_batch_with_an_invalid_sweep_point_runs_no_mission(capsys, monkeypatch):
    def no_mission(cfg):
        raise AssertionError("a mission ran")

    monkeypatch.setattr(mission, "run_mission", no_mission)
    # one CPU keeps a batch's missions in this process, where the stub is
    monkeypatch.setattr(mission, "_usable_cpus", lambda: 1)
    code = main(["batch", "--seeds", "0..1", "--sweep", "mission.n_beams=32,1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: seed 0, mission.n_beams=1: mission.n_beams: need at least 2 beams\n"
    )


def test_parallel_batch_prints_what_a_sequential_one_prints(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "trial.cfg"
    cfg.write_text(TRIAL_CFG, encoding="utf-8")
    printed = []
    for cpus in (1, 2):
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        args = ["batch", "--config", str(cfg), "--seeds", "0..4", "--out", str(out)]
        assert main([*args, "--sweep", "mission.trial_distance=0.5,2.0"]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        files = [(out / name).read_bytes() for name in ("runs.csv", "aggregate.csv")]
        printed.append((stdout, files))
    assert printed[0] == printed[1]


@pytest.mark.parametrize("seeds", ["0..3", f"0..{10**12}"])
def test_parallel_batch_names_the_first_failing_seed_a_sequential_one_names(
    tmp_path, capsys, monkeypatch, seeds
):
    # the runs at obstacle_count 0 succeed and every run at 60 fails; both
    # orders name the first failure in sweep order.  With 10**12 seeds per
    # point the failure is the first run, and only a few runs are ever
    # submitted
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_MAP_CFG, encoding="utf-8")
    sweep = "world.obstacle_count=0,60" if seeds == "0..3" else "world.obstacle_count=60"
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(mission, "_usable_cpus", lambda: cpus)
        code = main(["batch", "--config", str(cfg), "--seeds", seeds, "--sweep", sweep])
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(
        "config error: seed 0, world.obstacle_count=60: world layout: could not place obstacles"
    )

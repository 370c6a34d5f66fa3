import os

import pytest

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
    assert _parse_seeds("0..3") == [0, 1, 2, 3]
    assert _parse_seeds("5") == [5]
    assert _parse_seeds("5,7, 9") == [5, 7, 9]
    assert _parse_seeds("4..4") == [4]
    with pytest.raises(ConfigError):
        _parse_seeds("3..1")
    with pytest.raises(ConfigError):
        _parse_seeds("a..b")
    with pytest.raises(ConfigError):
        _parse_seeds("1,x")


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

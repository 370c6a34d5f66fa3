import math

import pytest

from littersim.config import (
    ConfigError,
    MissionConfig,
    apply_override,
    build_config,
    load_config,
    parse_config,
)
from littersim.geometry import GroundPoint
from littersim.simworld import Rect


def test_parse_basic_lines_comments_and_blanks():
    raw = parse_config(
        """
        # scenario header comment
        world.seed = 7
        world.arena_w = 10.0   # trailing comment

        noise.comm_drop = 0.1
        """
    )
    assert raw == {
        "world.seed": ["7"],
        "world.arena_w": ["10.0"],
        "noise.comm_drop": ["0.1"],
    }


def test_parse_repeatables_accumulate_and_scalars_keep_last():
    raw = parse_config(
        "world.obstacle = 1 1 2 2\n"
        "world.obstacle = 3 3 4 4\n"
        "world.trash = 5.0 5.0\n"
        "world.seed = 1\n"
        "world.seed = 2\n"
    )
    assert raw["world.obstacle"] == ["1 1 2 2", "3 3 4 4"]
    assert raw["world.trash"] == ["5.0 5.0"]
    assert raw["world.seed"] == ["2"]
    cfg = build_config(raw)
    assert cfg.world.seed == 2
    assert cfg.world.obstacles == (Rect(1, 1, 2, 2), Rect(3, 3, 4, 4))


def test_parse_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("world.seed = 1\nnot an assignment\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config("world.sede = 1\n")
    with pytest.raises(ConfigError, match="line 3.*empty value"):
        parse_config("\n\nworld.seed =\n")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="world.seed"):
        build_config({"world.seed": ["seven"]})
    with pytest.raises(ConfigError, match="world.arena_w"):
        build_config({"world.arena_w": ["wide"]})
    with pytest.raises(ConfigError, match="world.arena_w"):
        build_config({"world.arena_w": ["inf"]})
    with pytest.raises(ConfigError, match="pickup.reidentify"):
        build_config({"pickup.reidentify": ["yes"]})
    # booleans are the lowercase words only
    assert build_config({"pickup.reidentify": ["false"]}).pickup.reidentify is False


def test_defaults_build_without_any_input():
    cfg = build_config({})
    assert isinstance(cfg, MissionConfig)
    assert cfg.scenario == "full"
    assert cfg.world.arena_w == 8.0
    assert cfg.output_dir is None


def test_trash_lines_with_and_without_mass():
    cfg = build_config(
        {
            "world.trash": ["1.0 2.0", "3.0 4.0 0.5"],
            "world.trash_mass": ["0.25"],
        }
    )
    assert cfg.world.trash == (
        (GroundPoint(1.0, 2.0), 0.25),
        (GroundPoint(3.0, 4.0), 0.5),
    )
    with pytest.raises(ConfigError, match="world.trash"):
        build_config({"world.trash": ["1.0"]})
    with pytest.raises(ConfigError, match="world.obstacle"):
        build_config({"world.obstacle": ["1 2 3"]})
    with pytest.raises(ConfigError, match="world.obstacle"):
        build_config({"world.obstacle": ["2 2 1 1"]})  # inverted extent


def test_overrides_set_scalars_and_reject_repeatables():
    raw = {"world.seed": ["1"]}
    apply_override(raw, "world.seed", "9")
    apply_override(raw, "mission.standoff", "1.5")
    cfg = build_config(raw)
    assert cfg.world.seed == 9
    assert cfg.standoff == 1.5
    with pytest.raises(ConfigError):
        apply_override(raw, "world.obstacle", "1 1 2 2")
    with pytest.raises(ConfigError):
        apply_override(raw, "world.tresh", "1 1")


def test_mission_validation():
    with pytest.raises(ConfigError, match="scenario"):
        build_config({"mission.scenario": ["patrol"]})
    with pytest.raises(ConfigError, match="standoff"):
        build_config({"mission.standoff": ["0"]})
    with pytest.raises(ConfigError, match="inflate_radius"):
        build_config({"mission.inflate_radius": ["-0.1"]})
    with pytest.raises(ConfigError, match="n_beams"):
        build_config({"mission.n_beams": ["1"]})
    with pytest.raises(ConfigError, match="trial_distance"):
        build_config({"mission.trial_distance": ["5.0"]})
    # inflate_radius zero is allowed
    assert build_config({"mission.inflate_radius": ["0"]}).inflate_radius == 0.0


def test_component_validation_reports_as_config_error():
    with pytest.raises(ConfigError):
        build_config({"world.dt": ["0"]})
    with pytest.raises(ConfigError):
        build_config({"pickup.timeout": ["1.0"]})  # under one revolution
    with pytest.raises(ConfigError):
        build_config({"camera.hfov": ["4.0"]})
    with pytest.raises(ConfigError):
        build_config({"filter.accept_threshold": ["0"]})


@pytest.mark.parametrize(
    "key,value",
    [
        ("noise.comm_drop", "3"),
        ("noise.comm_drop", "-0.1"),
        ("noise.p_detect_min", "2"),
        ("noise.p_detect_min", "-0.5"),
        ("noise.p_detect_max", "1.5"),
    ],
)
def test_noise_probabilities_must_lie_in_unit_interval(key, value):
    with pytest.raises(ConfigError, match=rf"^{key}: must lie in \[0, 1\]"):
        build_config({key: [value]})


@pytest.mark.parametrize(
    "key",
    [
        "noise.odom_noise_sigma",
        "noise.detect_pos_sigma",
        "noise.pixel_sigma",
        "noise.depth_sigma_per_meter",
        "noise.conf_sigma",
        "noise.false_positive_rate",
        "noise.detector_latency",
        "noise.comm_latency",
    ],
)
def test_noise_sigmas_rates_and_latencies_must_be_non_negative(key):
    with pytest.raises(ConfigError, match=rf"^{key}: must be non-negative, got -1.0"):
        build_config({key: ["-1"]})
    with pytest.raises(ConfigError, match=rf"^{key}: must be non-negative"):
        build_config({key: ["-1e-12"]})
    # zero switches the noise source off and is fine
    cfg = build_config({key: ["0"]})
    assert getattr(cfg.noise, key.split(".")[1]) == 0.0


def test_noise_detection_clamp_must_be_ordered():
    with pytest.raises(ConfigError, match=r"^noise.p_detect_min: 0.9 exceeds"):
        build_config({"noise.p_detect_min": ["0.9"], "noise.p_detect_max": ["0.5"]})
    # the endpoints and an equal clamp are fine
    cfg = build_config(
        {"noise.comm_drop": ["1"], "noise.p_detect_min": ["0"], "noise.p_detect_max": ["0"]}
    )
    assert cfg.noise.comm_drop == 1.0 and cfg.noise.p_detect_max == 0.0


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "world.seed = 11\n"
        "world.trash = 2.0 2.0\n"
        "mission.scenario = pickup_trial\n"
        "mission.trial_distance = 1.0\n",
        encoding="utf-8",
    )
    cfg = load_config(str(path), overrides=[("world.seed", "12")], output_dir="out")
    assert cfg.world.seed == 12
    assert cfg.scenario == "pickup_trial"
    assert cfg.trial_distance == 1.0
    assert cfg.output_dir == "out"
    # None path means pure defaults
    assert load_config(None).world.seed == 0


def test_load_config_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "absent.cfg"))


def test_start_pose_keys():
    cfg = build_config(
        {
            "world.start_x": ["1.5"],
            "world.start_y": ["2.5"],
            "world.start_theta": [str(math.pi / 2)],
        }
    )
    assert cfg.world.start.x == 1.5
    assert cfg.world.start.y == 2.5
    assert cfg.world.start.theta == pytest.approx(math.pi / 2)

import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest

from littersim import config, mission
from littersim.clusterfilter import FilterConfig
from littersim.config import (
    _MULTI,
    _SCHEMA,
    ConfigError,
    MissionConfig,
    apply_override,
    build_config,
    load_config,
    parse_config,
)
from littersim.geometry import CameraModel, GroundPoint
from littersim.pickup import PickupConfig
from littersim.simworld import NoiseModel, Rect, WorldConfig

README = Path(__file__).resolve().parent.parent / "README.md"
SECTIONS = {
    "world": WorldConfig,
    "noise": NoiseModel,
    "camera": CameraModel,
    "filter": FilterConfig,
    "pickup": PickupConfig,
    "mission": MissionConfig,
}


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


@pytest.mark.parametrize("key", ["camera.image_width", "camera.image_height"])
def test_camera_image_must_fit_a_phantom_box(key):
    # phantom boxes have half-sizes up to PHANTOM_MAX_HALF = 24 px
    with pytest.raises(ConfigError, match=rf"^{key}: must be at least 48 px, got 40$"):
        build_config({key: ["40"]})
    with pytest.raises(ConfigError, match=rf"^{key}: must be at least 48 px, got 47$"):
        build_config({key: ["47"]})
    cfg = build_config({key: ["48"]})
    assert getattr(cfg.camera, key.split(".")[1]) == 48


@pytest.mark.parametrize("value", ["-1", "0", "-1e-12"])
def test_pickup_align_tolerance_must_be_positive(value):
    with pytest.raises(ConfigError, match=r"^align_tolerance must be positive, got "):
        build_config({"pickup.align_tolerance": [value]})
    assert build_config({"pickup.align_tolerance": ["1e-6"]}).pickup.align_tolerance == 1e-6


@pytest.mark.parametrize(
    "overrides, count",
    [
        ({"mission.map_resolution": ["0.001"]}, "48000000 grid cells over the arena"),
        # one cell more than the cap: 2048 x 2049; 6000 s lets a drive
        # along its 2897-m diagonal finish
        ({"world.arena_w": ["2048"], "world.arena_h": ["2048.5"],
          "mission.map_resolution": ["1"], "mission.max_time": ["6000"]},
         "4196352 grid cells over the arena"),
        # a side alone over the cap; its ratio to the resolution is infinite
        ({"mission.map_resolution": ["1e-300"]}, "over 4194304 grid cells along a side"),
    ],
    ids=["fine", "cap+1", "vanishing"],
)
def test_map_resolution_over_the_cell_cap_is_a_config_error(overrides, count):
    # the config rejects the grid before anything allocates it; no grid is
    # built here
    with pytest.raises(
        ConfigError,
        match=rf"^mission.map_resolution: .* m needs {count}; "
        rf"at most {config.MAX_GRID_CELLS} are allowed$",
    ):
        build_config(overrides)
    at_cap = {"world.arena_w": ["2048"], "world.arena_h": ["2048"],
              "mission.map_resolution": ["1"], "mission.max_time": ["6000"]}
    assert build_config(at_cap).grid_shape == (2048, 2048)
    assert config.MAX_GRID_CELLS == 2048 * 2048
    assert build_config({}).grid_shape == (160, 120)


@pytest.mark.parametrize(
    "overrides, scans",
    [
        ({"mission.n_beams": ["1000000000000"]}, "2251"),
        # one beam more than the default 2251 scans allow
        ({"mission.n_beams": ["1864"]}, "2251"),
        # a scan at most every tick of 0.01 s: 47 x 90001 rays
        ({"mission.n_beams": ["47"], "world.dt": ["0.01"], "mission.scan_interval": ["0.001"]},
         "90001"),
        # the bound on scans overflows to infinity
        ({"world.dt": ["5e-324"], "mission.scan_interval": ["5e-324"]}, "inf"),
    ],
    ids=["huge", "cap+1", "per_tick", "infinite"],
)
def test_n_beams_over_the_ray_cap_is_a_config_error(overrides, scans):
    # the config rejects the sweep before anything casts a ray; no scan is
    # run here
    with pytest.raises(
        ConfigError,
        match=rf"^mission.n_beams: \d+ beams on each of up to {scans} scans exceed "
        rf"the {config.MAX_SWEEP_RAYS} rays one sweep may cast$",
    ):
        build_config(overrides)
    assert build_config({"mission.n_beams": ["1863"]}).n_beams == 1863
    assert config.MAX_SWEEP_RAYS == 2**22


@pytest.mark.parametrize(
    "dt, ticks",
    [
        ("1e-9", "9e+11"),
        # t += dt would stop advancing t long before max_time
        ("1e-300", "9e+302"),
        # the ratio overflows to infinity
        ("5e-324", "inf"),
    ],
)
def test_a_dt_over_the_tick_cap_is_a_config_error(dt, ticks):
    # rejected by the config, before the mission runs a tick
    with pytest.raises(
        ConfigError,
        match=rf"^world.dt: {re.escape(repr(float(dt)))} s needs {re.escape(ticks)} ticks to "
        rf"reach mission.max_time 900.0; at most {config.MAX_TICKS} are allowed$",
    ):
        build_config({"world.dt": [dt], "mission.scan_interval": ["1"]})


def test_a_dt_at_the_tick_cap_is_accepted():
    assert config.MAX_TICKS == 2**20
    dt = 900.0 / config.MAX_TICKS
    cfg = build_config({"world.dt": [repr(dt)]})
    assert cfg.max_time / cfg.world.dt == config.MAX_TICKS
    with pytest.raises(ConfigError, match=r"^world.dt: "):
        build_config({"world.dt": [repr(math.nextafter(dt, 0.0))]})
    default = build_config({})
    assert default.max_time / default.world.dt == 18000.0


def test_the_lane_cap_counts_the_lanes_the_sweep_drives():
    # lanes at x = 0.5, 1.5, ... up to arena_w - 0.5: exactly MAX_LANES of
    # them are accepted, and the sweep drives each
    assert config.MAX_LANES == 4096
    raw = {
        "mission.mapping_lane_spacing": ["1.0"],
        "mission.map_resolution": ["0.5"],
        "mission.max_time": ["10000"],
    }
    cfg = build_config({**raw, "world.arena_w": ["4096"]})
    assert len(mission._lanes(cfg)) == config.MAX_LANES
    with pytest.raises(ConfigError, match=r"^mission.mapping_lane_spacing: 1.0 m gives more than"):
        build_config({**raw, "world.arena_w": ["4097"]})
    assert len(mission._lanes(build_config({}))) == 6


def _dataclass_default(key: str):
    """The default of the field that `section.name` names: a field of the
    section's dataclass, or of WorldConfig's start pose for world.start_*."""
    section, name = key.split(".")
    if name.startswith("start_"):
        return getattr(WorldConfig().start, name[len("start_") :])
    return next(f.default for f in fields(SECTIONS[section]) if f.name == name)


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _other_value(value):
    """A valid value of the same type that differs from `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.01 if value < 1.0 else value * 0.9
    return "pickup_trial" if value == "full" else "full"


def _with_field(cfg: MissionConfig, key: str, value) -> MissionConfig:
    """`cfg` with only the field that `key` names set to `value`."""
    section, name = key.split(".")
    if section == "mission":
        return replace(cfg, **{name: value})
    if name.startswith("start_"):
        start = replace(cfg.world.start, **{name[len("start_") :]: value})
        return replace(cfg, world=replace(cfg.world, start=start))
    return replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})


def test_every_key_set_to_its_default_builds_the_defaults():
    raw = {key: [_text(_dataclass_default(key))] for key in _SCHEMA}
    # repr also tells an int field from a float one of the same value
    assert repr(build_config(raw)) == repr(build_config({}))


@pytest.mark.parametrize("key", sorted(_SCHEMA))
def test_every_key_sets_exactly_its_own_field(key):
    value = _other_value(_dataclass_default(key))
    cfg = build_config({key: [_text(value)]})
    assert repr(cfg) == repr(_with_field(build_config({}), key, value))
    assert cfg != build_config({})


@pytest.mark.parametrize(
    "key", ["mission.output_dir", "world.sede", "world.start", "mission.world", "world.trash_"]
)
def test_build_config_rejects_keys_outside_the_schema(key):
    with pytest.raises(ConfigError, match=rf"^unknown key '{re.escape(key)}'$"):
        build_config({key: ["/x"]})


def test_a_field_type_without_a_caster_fails_the_schema(monkeypatch):
    @dataclass(frozen=True)
    class Extra:
        weights: list[float] = None

    monkeypatch.setitem(config._SECTIONS, "extra", Extra)
    with pytest.raises(TypeError, match=r"^extra.weights: no config caster"):
        config._build_schema()


def _readme_key_rows() -> list[tuple[list[str], list[str]]]:
    """(keys, defaults) of every row of README's config key tables."""
    text = README.read_text(encoding="utf-8")
    tables = text[text.index("### world") : text.index("## Output files")]
    rows = []
    for line in tables.splitlines():
        if line.startswith("| `"):
            key_col, default_col = line.split("|")[1:3]
            rows.append((re.findall(r"`([a-z_]+\.[a-z_]+)`", key_col), default_col.strip().split(", ")))
    return rows


def test_readme_lists_exactly_the_config_keys():
    listed = [key for keys, _ in _readme_key_rows() for key in keys]
    assert sorted(listed) == sorted([*_SCHEMA, *_MULTI])


def test_readme_defaults_are_the_dataclass_defaults():
    for keys, defaults in _readme_key_rows():
        if defaults == ["repeatable"]:
            assert all(key in _MULTI for key in keys)
            continue
        assert len(defaults) == len(keys), keys
        for key, text in zip(keys, defaults):
            assert _SCHEMA[key](text) == _dataclass_default(key), key

"""Scenario configuration: a small line-oriented format and its loader.

Config files are plain text, one `section.key = value` assignment per
line, `#` comments, blank lines ignored.  Two keys are repeatable and
accumulate: `world.obstacle = x0 y0 x1 y1` and `world.trash = x y [mass]`.
Every other key holds a single scalar; assigning it twice keeps the last
value.  Unknown keys are errors, not warnings, so typos cannot silently
fall back to defaults.  The same key syntax drives batch sweep overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .clusterfilter import FilterConfig
from .geometry import CameraModel, GroundPoint, Pose2D
from .pickup import ACTIVATION_RADIUS, PickupConfig
from .simworld import PHANTOM_MAX_HALF, NoiseModel, Rect, WorldConfig

SCENARIOS = ("full", "pickup_trial")
# the sidestep after a contact first backs off this far, meters
JOG_REVERSE = 0.4


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class MissionConfig:
    """Everything one mission run needs, component configs plus the
    mission-level knobs.

    scenario: "full" runs survey/map/plan/collect; "pickup_trial" runs a
        single pickup episode with one trash item trial_distance ahead.
    standoff: approach-goal distance from a trash hypothesis, meters.
    map_resolution / inflate_radius: occupancy grid cell size and the
        obstacle inflation applied before planning, meters.
    survey_lane_spacing / mapping_lane_spacing: coverage lane pitch for
        the aerial pass and the ground sweep, meters.
    scan_max_range / detect_max_range: range scanner cap and detector
        range cap, meters.
    n_beams: rays per range scan.
    scan_interval / frame_interval: seconds between scans / camera frames.
    mapping_speed / nav_speed / turn_rate: drive speeds (m/s) and the
        in-place turn rate (rad/s) used outside pickup episodes.
    confirm_radius: detections farther than this from the expected trash
        position are ignored during a pickup episode, meters.
    max_time: hard mission time budget, seconds.
    """

    world: WorldConfig
    noise: NoiseModel
    camera: CameraModel
    filter: FilterConfig
    pickup: PickupConfig
    scenario: str = "full"
    trial_distance: float = 2.0
    standoff: float = 2.0
    map_resolution: float = 0.05
    inflate_radius: float = 0.23
    survey_lane_spacing: float = 1.5
    mapping_lane_spacing: float = 1.2
    scan_max_range: float = 3.5
    detect_max_range: float = 4.0
    n_beams: int = 32
    scan_interval: float = 0.4
    frame_interval: float = 0.25
    mapping_speed: float = 0.6
    nav_speed: float = 0.5
    turn_rate: float = 1.2
    confirm_radius: float = 1.0
    max_time: float = 900.0
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"mission.scenario: {self.scenario!r} is not one of {SCENARIOS}"
            )
        positive = {
            "trial_distance": self.trial_distance,
            "standoff": self.standoff,
            "map_resolution": self.map_resolution,
            "survey_lane_spacing": self.survey_lane_spacing,
            "mapping_lane_spacing": self.mapping_lane_spacing,
            "scan_max_range": self.scan_max_range,
            "detect_max_range": self.detect_max_range,
            "scan_interval": self.scan_interval,
            "frame_interval": self.frame_interval,
            "mapping_speed": self.mapping_speed,
            "nav_speed": self.nav_speed,
            "turn_rate": self.turn_rate,
            "confirm_radius": self.confirm_radius,
            "max_time": self.max_time,
        }
        for name, value in positive.items():
            if not value > 0.0 or not math.isfinite(value):
                raise ConfigError(f"mission.{name}: must be positive, got {value!r}")
        if self.scenario == "full":
            # a full mission must be able to finish one lane-end spin and
            # one jog's reverse within its time budget
            for name, motion, need in (
                ("turn_rate", "a lane-end spin", 2.0 * math.pi / self.turn_rate),
                ("mapping_speed", "a jog's reverse", JOG_REVERSE / self.mapping_speed),
            ):
                if need > self.max_time:
                    raise ConfigError(
                        f"mission.{name}: {motion} takes {need:g} s, longer than "
                        f"mission.max_time {self.max_time!r}"
                    )
        if self.inflate_radius < 0.0:
            raise ConfigError("mission.inflate_radius: must be non-negative")
        if self.n_beams < 2:
            raise ConfigError("mission.n_beams: need at least 2 beams")
        for name in (
            "odom_noise_sigma",
            "detect_pos_sigma",
            "pixel_sigma",
            "depth_sigma_per_meter",
            "conf_sigma",
            "false_positive_rate",
            "detector_latency",
            "comm_latency",
        ):
            value = getattr(self.noise, name)
            if not value >= 0.0:
                raise ConfigError(f"noise.{name}: must be non-negative, got {value!r}")
        for name in ("comm_drop", "p_detect_min", "p_detect_max"):
            value = getattr(self.noise, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"noise.{name}: must lie in [0, 1], got {value!r}")
        if self.noise.p_detect_min > self.noise.p_detect_max:
            raise ConfigError(
                f"noise.p_detect_min: {self.noise.p_detect_min!r} exceeds "
                f"noise.p_detect_max {self.noise.p_detect_max!r}"
            )
        # a phantom detector box must fit inside the image both ways
        min_pixels = 2.0 * PHANTOM_MAX_HALF
        for name in ("image_width", "image_height"):
            value = getattr(self.camera, name)
            if value < min_pixels:
                raise ConfigError(
                    f"camera.{name}: must be at least {min_pixels:g} px, got {value!r}"
                )
        if self.trial_distance > ACTIVATION_RADIUS + 0.25:
            raise ConfigError(
                "mission.trial_distance: exceeds the pickup activation radius "
                f"({ACTIVATION_RADIUS} m + 0.25 m tolerance)"
            )


def _cast_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _cast_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _cast_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"expected true or false, got {text!r}")


def _cast_str(text: str) -> str:
    return text


# dotted key -> caster for every single-valued key
_SCHEMA = {
    "world.arena_w": _cast_float,
    "world.arena_h": _cast_float,
    "world.dt": _cast_float,
    "world.seed": _cast_int,
    "world.start_x": _cast_float,
    "world.start_y": _cast_float,
    "world.start_theta": _cast_float,
    "world.obstacle_count": _cast_int,
    "world.trash_count": _cast_int,
    "world.trash_mass": _cast_float,
    "noise.odom_heading_bias": _cast_float,
    "noise.odom_noise_sigma": _cast_float,
    "noise.detect_pos_sigma": _cast_float,
    "noise.p_detect_intercept": _cast_float,
    "noise.p_detect_slope": _cast_float,
    "noise.p_detect_min": _cast_float,
    "noise.p_detect_max": _cast_float,
    "noise.pixel_sigma": _cast_float,
    "noise.depth_sigma_per_meter": _cast_float,
    "noise.conf_mu_intercept": _cast_float,
    "noise.conf_mu_slope": _cast_float,
    "noise.conf_sigma": _cast_float,
    "noise.false_positive_rate": _cast_float,
    "noise.detector_latency": _cast_float,
    "noise.comm_latency": _cast_float,
    "noise.comm_drop": _cast_float,
    "camera.image_width": _cast_int,
    "camera.image_height": _cast_int,
    "camera.hfov": _cast_float,
    "camera.vfov": _cast_float,
    "camera.mount_height": _cast_float,
    "camera.forward_offset": _cast_float,
    "filter.cluster_radius": _cast_float,
    "filter.accept_threshold": _cast_int,
    "pickup.timeout": _cast_float,
    "pickup.confidence_threshold": _cast_float,
    "pickup.overshoot": _cast_float,
    "pickup.spin_rate": _cast_float,
    "pickup.drive_speed": _cast_float,
    "pickup.brush_halfwidth": _cast_float,
    "pickup.align_tolerance": _cast_float,
    "pickup.reidentify": _cast_bool,
    "mission.scenario": _cast_str,
    "mission.trial_distance": _cast_float,
    "mission.standoff": _cast_float,
    "mission.map_resolution": _cast_float,
    "mission.inflate_radius": _cast_float,
    "mission.survey_lane_spacing": _cast_float,
    "mission.mapping_lane_spacing": _cast_float,
    "mission.scan_max_range": _cast_float,
    "mission.detect_max_range": _cast_float,
    "mission.n_beams": _cast_int,
    "mission.scan_interval": _cast_float,
    "mission.frame_interval": _cast_float,
    "mission.mapping_speed": _cast_float,
    "mission.nav_speed": _cast_float,
    "mission.turn_rate": _cast_float,
    "mission.confirm_radius": _cast_float,
    "mission.max_time": _cast_float,
}

# repeatable keys accumulate raw value strings
_MULTI = ("world.obstacle", "world.trash")


def parse_config(text: str) -> dict[str, list[str]]:
    """Parse config text into raw {dotted_key: [value strings]}.

    Raises ConfigError on syntax errors and unknown keys, naming the line.
    """
    raw: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = content.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA and key not in _MULTI:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in _MULTI:
            raw.setdefault(key, []).append(value)
        else:
            raw[key] = [value]
    return raw


def apply_override(raw: dict[str, list[str]], key: str, value: str) -> None:
    """Set one scalar key in a raw config dict (sweep/CLI override)."""
    if key in _MULTI:
        raise ConfigError(f"{key}: repeatable keys cannot be overridden")
    if key not in _SCHEMA:
        raise ConfigError(f"unknown key {key!r}")
    raw[key] = [value]


def _parse_rect(text: str) -> Rect:
    parts = text.split()
    if len(parts) != 4:
        raise ConfigError(f"world.obstacle: expected 'x0 y0 x1 y1', got {text!r}")
    x0, y0, x1, y1 = (_cast_float(p) for p in parts)
    try:
        return Rect(x0, y0, x1, y1)
    except ValueError as exc:
        raise ConfigError(f"world.obstacle: {exc}") from None


def _parse_trash(text: str) -> tuple[float, float, float | None]:
    parts = text.split()
    if len(parts) not in (2, 3):
        raise ConfigError(f"world.trash: expected 'x y' or 'x y mass', got {text!r}")
    x = _cast_float(parts[0])
    y = _cast_float(parts[1])
    mass = _cast_float(parts[2]) if len(parts) == 3 else None
    return (x, y, mass)


def build_config(
    raw: dict[str, list[str]], output_dir: str | None = None
) -> MissionConfig:
    """Turn a raw key dict into a validated MissionConfig."""

    def get(key: str):
        values = raw.get(key)
        if values is None:
            return None
        try:
            return _SCHEMA[key](values[-1])
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None

    def section(prefix: str) -> dict:
        out = {}
        for key in _SCHEMA:
            sec, _, name = key.partition(".")
            if sec == prefix:
                value = get(key)
                if value is not None:
                    out[name] = value
        return out

    world_kw = section("world")
    start = Pose2D(
        world_kw.pop("start_x", 0.6),
        world_kw.pop("start_y", 0.6),
        world_kw.pop("start_theta", 0.0),
    )
    trash_mass = world_kw.get("trash_mass", WorldConfig.trash_mass)
    obstacles = None
    if "world.obstacle" in raw:
        obstacles = tuple(_parse_rect(v) for v in raw["world.obstacle"])
    trash = None
    if "world.trash" in raw:
        trash = tuple(
            (GroundPoint(x, y), mass if mass is not None else trash_mass)
            for x, y, mass in (_parse_trash(v) for v in raw["world.trash"])
        )
    mission_kw = section("mission")
    try:
        return MissionConfig(
            world=WorldConfig(start=start, obstacles=obstacles, trash=trash, **world_kw),
            noise=NoiseModel(**section("noise")),
            camera=CameraModel(**section("camera")),
            filter=FilterConfig(**section("filter")),
            pickup=PickupConfig(**section("pickup")),
            output_dir=output_dir,
            **mission_kw,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(
    path: str | None,
    overrides: list[tuple[str, str]] | None = None,
    output_dir: str | None = None,
) -> MissionConfig:
    """Load a config file (None for all defaults), apply overrides, build.

    File read errors propagate as OSError; everything else that is wrong
    with the input surfaces as ConfigError.
    """
    if path is None:
        raw: dict[str, list[str]] = {}
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = parse_config(fh.read())
    for key, value in overrides or []:
        apply_override(raw, key, value)
    return build_config(raw, output_dir)

"""Scenario configuration: a small line-oriented format and its loader.

Config files are plain text, one `section.key = value` assignment per
line, `#` comments, blank lines ignored.  Two keys are repeatable and
accumulate: `world.obstacle = x0 y0 x1 y1` and `world.trash = x y [mass]`.
Every other key holds a single scalar; assigning it twice keeps the last
value: one `section.field` key per scalar field of the section's config
dataclass, cast by its annotation, plus `world.start_x`, `_y`, `_theta`.
Unknown keys are errors, not warnings, so typos cannot silently fall back
to defaults.  The same key syntax drives batch sweep overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .clusterfilter import FilterConfig
from .geometry import CameraModel, GroundPoint, Pose2D
from .pickup import ACTIVATION_RADIUS, ACTIVATION_TOLERANCE, PickupConfig
from .simworld import PHANTOM_MAX_HALF, NoiseModel, Rect, WorldConfig

SCENARIOS = ("full", "pickup_trial")
# the sidestep after a contact first backs off this far, meters
JOG_REVERSE = 0.4
# most cells the occupancy grid may have, about 218 times the default
# 160 x 120 grid; a finer map_resolution is a config error
MAX_GRID_CELLS = 2**22
# most rays one mapping sweep may cast, about 58 times the default 32
# beams x 2251 scans; a larger n_beams is a config error
MAX_SWEEP_RAYS = 2**22


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
        # every float knob but inflate_radius must be positive and finite
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and f.name != "inflate_radius" and not 0.0 < value < math.inf:
                raise ConfigError(f"mission.{f.name}: must be positive, got {value!r}")
        if self.scenario == "full":
            # a full mission must be able to finish one lane-end spin, one
            # jog's reverse and one drive across the arena within its time
            # budget
            diagonal = math.hypot(self.world.arena_w, self.world.arena_h)
            for name, motion, need in (
                ("turn_rate", "a lane-end spin", 2.0 * math.pi / self.turn_rate),
                ("mapping_speed", "a jog's reverse", JOG_REVERSE / self.mapping_speed),
                ("nav_speed", "a drive along the arena diagonal", diagonal / self.nav_speed),
            ):
                if need > self.max_time:
                    raise ConfigError(
                        f"mission.{name}: {motion} takes {need:g} s, longer than "
                        f"mission.max_time {self.max_time!r}"
                    )
        # checked before any grid is allocated; each side is checked first,
        # so grid_shape never rounds up an infinite ratio
        too_fine = f"mission.map_resolution: {self.map_resolution!r} m needs"
        limit = f"at most {MAX_GRID_CELLS} are allowed"
        for side in (self.world.arena_w, self.world.arena_h):
            if not side / self.map_resolution <= MAX_GRID_CELLS:
                raise ConfigError(
                    f"{too_fine} over {MAX_GRID_CELLS} grid cells along a side; {limit}"
                )
        cols, rows = self.grid_shape
        if cols * rows > MAX_GRID_CELLS:
            raise ConfigError(f"{too_fine} {cols * rows} grid cells over the arena; {limit}")
        if self.inflate_radius < 0.0:
            raise ConfigError("mission.inflate_radius: must be non-negative")
        if self.n_beams < 2:
            raise ConfigError("mission.n_beams: need at least 2 beams")
        # checked before the sweep casts a ray: it queues a scan at most once
        # a tick and a scan_interval before max_time; scans may be infinite
        scans = self.max_time / max(self.scan_interval, self.world.dt) + 1.0
        if not self.n_beams <= MAX_SWEEP_RAYS / scans:
            raise ConfigError(
                f"mission.n_beams: {self.n_beams} beams on each of up to {scans:g} "
                f"scans exceed the {MAX_SWEEP_RAYS} rays one sweep may cast"
            )
        for name in (
            "odom_noise_sigma",
            "detect_pos_sigma",
            "pixel_sigma",
            "depth_sigma_per_meter",
            "conf_sigma",
            "false_positive_rate",
            "detector_latency",
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
        if self.trial_distance > ACTIVATION_RADIUS + ACTIVATION_TOLERANCE:
            raise ConfigError(
                "mission.trial_distance: exceeds the pickup activation radius "
                f"({ACTIVATION_RADIUS} m + {ACTIVATION_TOLERANCE} m tolerance)"
            )

    @property
    def grid_shape(self) -> tuple[int, int]:
        """(width, height) of the occupancy grid in cells: the arena
        divided by map_resolution, rounded up."""
        return (
            math.ceil(self.world.arena_w / self.map_resolution),
            math.ceil(self.world.arena_h / self.map_resolution),
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


_CASTERS = {"float": _cast_float, "int": _cast_int, "bool": _cast_bool, "str": str}

# config section -> the dataclass whose fields its keys name
_SECTIONS = {
    "world": WorldConfig,
    "noise": NoiseModel,
    "camera": CameraModel,
    "filter": FilterConfig,
    "pickup": PickupConfig,
    "mission": MissionConfig,
}
# fields that are not single-valued keys: the start pose (set through
# world.start_*), the repeatable layout lists, the component configs and
# the output directory (a run option)
_NOT_KEYS = {"world.start", "world.obstacles", "world.trash", "mission.output_dir"} | {
    f"mission.{section}" for section in _SECTIONS if section != "mission"
}


def _build_schema() -> dict:
    """Dotted key -> caster for every single-valued key, one per scalar
    field of the section dataclasses, cast by its annotation."""
    schema = {f"world.start_{name}": _cast_float for name in ("x", "y", "theta")}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            key = f"{section}.{f.name}"
            if key in _NOT_KEYS:
                continue
            if f.type not in _CASTERS:
                raise TypeError(f"{key}: no config caster for field type {f.type!r}")
            schema[key] = _CASTERS[f.type]
    return schema


_SCHEMA = _build_schema()

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
    """Turn a raw key dict into a validated MissionConfig.

    Raises ConfigError for a key that is not a config key, a value that
    does not cast, and a config that fails validation.
    """
    kw: dict[str, dict] = {section: {} for section in _SECTIONS}
    for key, values in raw.items():
        if key in _MULTI:
            continue
        cast = _SCHEMA.get(key)
        if cast is None:
            raise ConfigError(f"unknown key {key!r}")
        try:
            value = cast(values[-1])
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        section, _, name = key.partition(".")
        kw[section][name] = value
    world_kw = kw["world"]
    default = WorldConfig().start
    start = Pose2D(
        world_kw.pop("start_x", default.x),
        world_kw.pop("start_y", default.y),
        world_kw.pop("start_theta", default.theta),
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
    try:
        return MissionConfig(
            world=WorldConfig(start=start, obstacles=obstacles, trash=trash, **world_kw),
            noise=NoiseModel(**kw["noise"]),
            camera=CameraModel(**kw["camera"]),
            filter=FilterConfig(**kw["filter"]),
            pickup=PickupConfig(**kw["pickup"]),
            output_dir=output_dir,
            **kw["mission"],
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

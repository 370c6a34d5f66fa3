"""Deterministic 2D litter-collection mission simulator.

A ground robot surveys an arena from the air, fuses noisy detections into
trash hypotheses, maps obstacles with a lidar-like scanner, plans a tour,
and runs a camera-guided pickup maneuver on each target.  Everything is
seeded through a single RNG stream so a (config, seed) pair reproduces a
mission byte for byte.
"""

from .clusterfilter import FilterConfig, RawDetection, TrashHypothesis, confirmed, ingest
from .config import ConfigError, MissionConfig, load_config, parse_config
from .geometry import (
    BoundingBox,
    CameraModel,
    CoincidentPoint,
    DegenerateDepth,
    GeometryError,
    GroundPoint,
    Pose2D,
    Side,
)
from .gridmap import FormatError, OccupancyGrid, load_map, save_map
from .mission import MissionReport, PerTrash, run_batch, run_mapping, run_mission
from .pickup import PickupConfig, PickupPhase, PickupState, TooFar
from .posebuffer import OutOfRange, PoseBuffer
from .simworld import NoiseModel, Rect, TrashItem, World, WorldConfig

__all__ = [
    "BoundingBox",
    "CameraModel",
    "CoincidentPoint",
    "ConfigError",
    "DegenerateDepth",
    "FilterConfig",
    "FormatError",
    "GeometryError",
    "GroundPoint",
    "MissionConfig",
    "MissionReport",
    "NoiseModel",
    "OccupancyGrid",
    "OutOfRange",
    "PerTrash",
    "PickupConfig",
    "PickupPhase",
    "PickupState",
    "PoseBuffer",
    "Pose2D",
    "RawDetection",
    "Rect",
    "Side",
    "TooFar",
    "TrashHypothesis",
    "TrashItem",
    "World",
    "WorldConfig",
    "confirmed",
    "ingest",
    "load_config",
    "load_map",
    "parse_config",
    "run_batch",
    "run_mapping",
    "run_mission",
    "save_map",
]

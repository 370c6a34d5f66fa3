"""Mission reports and dump files.  Times are simulated seconds and
floats are written with `repr`, so identical runs give identical bytes."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .clusterfilter import FilterConfig, TrashHypothesis, write_hypotheses
from .geometry import GroundPoint, distance
from .posebuffer import PoseBuffer, write_trajectory
from .simworld import World

COLLECTED = "Collected"
TIMED_OUT = "TimedOut"
UNREACHABLE = "Unreachable"
UNDETECTED = "Undetected"

# greedy truth-to-hypothesis pairing cutoff, meters
MATCH_RADIUS = 0.5


@dataclass(frozen=True)
class PerTrash:
    """End-of-mission accounting for one ground-truth trash item."""

    truth: GroundPoint
    matched: GroundPoint | None
    map_error: float
    outcome: str


@dataclass(frozen=True)
class MissionReport:
    seed: int
    success: bool
    wall_time: float
    map_file: str
    hypotheses: list[TrashHypothesis]
    per_trash: list[PerTrash]

    @property
    def n_trash(self) -> int:
        return len(self.per_trash)

    @property
    def n_collected(self) -> int:
        return sum(1 for p in self.per_trash if p.outcome == COLLECTED)

    @property
    def mean_map_error(self) -> float:
        return _finite_mean([p.map_error for p in self.per_trash])


def _finite_mean(values: list[float]) -> float:
    """Mean of the finite values; NaN when there are none."""
    finite = [v for v in values if math.isfinite(v)]
    return sum(finite) / len(finite) if finite else float("nan")


def build_report(
    world: World, targets: list[TrashHypothesis], results: dict[int, str], map_file: str
) -> MissionReport:
    """Settle each item's outcome against the confirmed `targets`, paired
    nearest first; `results` maps a target's index to its episode result."""
    truths = world.trash
    pairs = sorted(
        (distance(item.position, h.point), ti, hi)
        for ti, item in enumerate(truths)
        for hi, h in enumerate(targets)
        if distance(item.position, h.point) <= MATCH_RADIUS
    )
    match: dict[int, int] = {}
    used: set[int] = set()
    for _d, ti, hi in pairs:
        if ti in match or hi in used:
            continue
        match[ti] = hi
        used.add(hi)
    per_trash: list[PerTrash] = []
    for ti, item in enumerate(truths):
        hi = match.get(ti)
        matched = targets[hi].point if hi is not None else None
        err = distance(item.position, matched) if matched is not None else float("nan")
        if item.collected:
            outcome = COLLECTED
        elif hi is None:
            outcome = UNDETECTED
        else:
            result = results.get(hi, TIMED_OUT)
            outcome = UNREACHABLE if result == UNREACHABLE else TIMED_OUT
        per_trash.append(PerTrash(item.position, matched, err, outcome))
    return MissionReport(
        seed=world.cfg.seed,
        success=all(p.outcome == COLLECTED for p in per_trash),
        wall_time=world.t,
        map_file=map_file,
        hypotheses=targets,
        per_trash=per_trash,
    )


def dump(
    out_dir: str, report: MissionReport, world: World, poses: PoseBuffer,
    hypotheses: list[TrashHypothesis], filter_cfg: FilterConfig, episode_logs: list[list[tuple]],
) -> None:
    """Write the report and the other dump files; an `episode_logs` row is
    (index of the tick's pose in `poses`, FSM phase, command)."""
    os.makedirs(out_dir, exist_ok=True)
    write_report(report, os.path.join(out_dir, "report.txt"))
    write_hypotheses(hypotheses, filter_cfg, os.path.join(out_dir, "hypotheses.txt"))
    lines = write_trajectory(poses, os.path.join(out_dir, "trajectory.txt"))
    with open(os.path.join(out_dir, "ground_truth.txt"), "w", encoding="utf-8") as fh:
        for ob in world.obstacles:
            fh.write(f"obstacle = {ob.x0!r} {ob.y0!r} {ob.x1!r} {ob.y1!r}\n")
        for item in world.trash:
            flag = "true" if item.collected else "false"
            fh.write(f"trash = {item.position.x!r} {item.position.y!r} {item.mass!r} {flag}\n")
    for i, log in enumerate(episode_logs):
        with open(os.path.join(out_dir, f"episode_{i:02d}.txt"), "w", encoding="utf-8") as fh:
            for k, phase, cmd in log:
                # quotes the tick's trajectory line: t, then x y theta
                t, _, pose = lines[k].partition(" ")
                fh.write(f"{t} {phase.value} {cmd.v!r} {cmd.omega!r} {int(cmd.mechanism_on)} {pose}")


def write_report(report: MissionReport, path: str) -> None:
    """Write `report` as plain `key = value` lines."""
    lines = [
        f"seed = {report.seed}",
        f"success = {'true' if report.success else 'false'}",
        f"n_trash = {report.n_trash}",
        f"n_collected = {report.n_collected}",
        f"mean_map_error_m = {report.mean_map_error!r}",
        f"wall_time_s = {report.wall_time!r}",
        f"map_file = {os.path.basename(report.map_file)}",
        f"hypothesis_count = {len(report.hypotheses)}",
    ]
    for i, h in enumerate(report.hypotheses):
        lines.append(f"hypothesis_{i} = {h.point.x!r} {h.point.y!r} {h.count}")
    for i, p in enumerate(report.per_trash):
        lines.append(f"trash_{i}_truth = {p.truth.x!r} {p.truth.y!r}")
        lines.append(f"trash_{i}_outcome = {p.outcome}")
        if p.matched is not None:
            lines.append(f"trash_{i}_matched = {p.matched.x!r} {p.matched.y!r}")
        else:
            lines.append(f"trash_{i}_matched = none")
        lines.append(f"trash_{i}_map_error_m = {p.map_error!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

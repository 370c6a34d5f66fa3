"""The benchmark's three workloads, built from the run's seed.

Each workload turns an episode index into library calls.  `episode(i)` is
the timed part: what a user of the library pays for one mission, one
pickup trial, or one collection phase's planning.  `check(i, result)` is
untimed: it verifies the outputs and digests them, and raises `CheckFailed`
when they are wrong.  Episode i's inputs depend only on the seed and i, so
any episode can be replayed and must give the same digest.

`warm_up()` runs one fixed episode that does not depend on the seed, so
set-up time measures the code and the machine, not the seed's layout.

The first `check_episodes` episodes of a run form its fixed outcome set:
the success rate, map error and output digest come from them alone, so
they repeat exactly for a seed however fast the code runs.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass

from littersim.config import build_config
from littersim.geometry import GroundPoint
from littersim.gridmap import FREE, inflate
from littersim.mission import MIN_APPROACH, run_mapping, run_mission, write_report
from littersim.planner import COST_TIE, CostField, approach_goal, astar, order_waypoints


class CheckFailed(AssertionError):
    """An episode's output broke one of the benchmark's output checks."""


@dataclass(frozen=True)
class Outcome:
    """What the untimed check learned from one episode."""

    digest: bytes
    items: int
    succeeded: int
    sim_s: float = 0.0
    map_error: float = math.nan


def _check_counts(report) -> None:
    if report.n_collected > report.n_trash:
        raise CheckFailed(f"collected {report.n_collected} of {report.n_trash} items")


class FullMission:
    """Default full missions, `world.trash_count` 1..4 as in the clutter
    sweep, each writing its dump files like `littersim run --out`.

    The missions are a fixed corpus, world seeds 0 to n_layouts - 1 times
    trash counts 1 to 4, and the seed picks the order a run takes them in.
    With a seeded layout per mission, the median of 16 missions differed
    by up to 15% between seeds when their missions were run interleaved,
    so on the same stretch of machine time."""

    name = "full_mission"
    n_layouts = 8
    check_episodes = 4 * n_layouts
    files = ("report.txt", "map.grid", "hypotheses.txt")

    def __init__(self, seed: int, out_dir: str):
        self.order = list(range(4 * self.n_layouts))
        random.Random(seed).shuffle(self.order)
        self.out_dir = out_dir

    def episode(self, i: int):
        k = self.order[i % len(self.order)]
        raw = {
            "world.seed": [str(k // 4)],
            "world.trash_count": [str(1 + k % 4)],
        }
        return run_mission(build_config(raw, output_dir=self.out_dir))

    def warm_up(self):
        """A small mission through every phase, a third of a default
        mission's time."""
        raw = {
            "world.seed": ["0"],
            "world.arena_w": ["4"],
            "world.arena_h": ["4"],
            "world.obstacle_count": ["1"],
            "world.trash_count": ["1"],
        }
        return run_mission(build_config(raw, output_dir=self.out_dir))

    def check(self, i: int, report) -> Outcome:
        _check_counts(report)
        h = hashlib.sha256()
        for name in self.files:
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                h.update(fh.read())
        return Outcome(
            h.digest(), report.n_trash, report.n_collected, report.wall_time, report.mean_map_error
        )


class PickupTrial:
    """Single pickup episodes at trial distances 0.5, 1 and 2 m."""

    name = "pickup_trial"
    check_episodes = 3000
    distances = ("0.5", "1.0", "2.0")

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.report_path = os.path.join(out_dir, "report.txt")

    def episode(self, i: int):
        return self._trial(self.distances[i % 3], self.seed * 100000 + i // 3)

    def warm_up(self):
        return self._trial("1.0", 0)

    @staticmethod
    def _trial(distance: str, world_seed: int):
        raw = {
            "mission.scenario": ["pickup_trial"],
            "mission.trial_distance": [distance],
            "world.seed": [str(world_seed)],
        }
        return run_mission(build_config(raw))

    def check(self, i: int, report) -> Outcome:
        _check_counts(report)
        write_report(report, self.report_path)
        with open(self.report_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).digest()
        return Outcome(digest, report.n_trash, report.n_collected, report.wall_time)


@dataclass(frozen=True)
class _Leg:
    start: GroundPoint
    target: GroundPoint
    goal: object
    plan: object


class PlanQueries:
    """One collection phase's planning per episode, on maps mapped during
    set-up: inflate, cost field, tour order, then an approach goal and an
    A* path for every item, each leg starting where the last one ended.
    Episodes cycle over the maps and over Free start cells on a 0.6 m
    lattice, shuffled by the seed.

    The maps are a fixed corpus, world seeds 0 to n_maps - 1, and the seed
    picks the queries.  The items are each map's four true trash positions.
    Both keep a query's cost a property of the planner: with seeded maps,
    or with the confirmed hypotheses a mission plans to (4 to 7 of them,
    with phantoms), throughput spread by over 20% across seeds."""

    name = "plan_queries"
    check_episodes = 150
    n_maps = 4
    lattice = 0.6

    def __init__(self, seed: int, out_dir: str):
        self.maps = []
        for m in range(self.n_maps):
            raw = {"world.seed": [str(m)], "world.trash_count": ["4"]}
            cfg = build_config(raw)
            grid, _hypotheses, world = run_mapping(cfg)
            starts = self._starts(inflate(grid, cfg.inflate_radius))
            random.Random(seed * 1000 + m).shuffle(starts)
            self.maps.append((cfg, grid, [item.position for item in world.trash], starts))

    def _starts(self, nav) -> list[GroundPoint]:
        out = []
        n_cols = int(nav.width * nav.resolution / self.lattice)
        n_rows = int(nav.height * nav.resolution / self.lattice)
        for r in range(n_rows):
            for c in range(n_cols):
                cell = nav.world_to_cell((c + 0.5) * self.lattice, (r + 0.5) * self.lattice)
                if cell is not None and nav.cells[cell[1], cell[0]] == FREE:
                    out.append(GroundPoint(*nav.cell_center(*cell)))
        return out

    def episode(self, i: int):
        m = i % len(self.maps)
        starts = self.maps[m][3]
        return self._plan(m, starts[(i // len(self.maps)) % len(starts)])

    def warm_up(self):
        """Map 0's planning from its lowest start cell, whatever the seed."""
        return self._plan(0, min(self.maps[0][3], key=lambda p: (p.x, p.y)))

    def _plan(self, m: int, current: GroundPoint):
        cfg, grid, points, _starts = self.maps[m]
        nav = inflate(grid, cfg.inflate_radius)
        cost_field = CostField(nav)
        legs = []
        for target, _reachable in order_waypoints(current, points, nav):
            goal = approach_goal(
                target,
                nav,
                current,
                cfg.standoff,
                min_dist=min(MIN_APPROACH, 0.5 * cfg.standoff),
                cost_field=cost_field,
            )
            plan = None if goal is None else astar(nav, current, goal.pose.position)
            legs.append(_Leg(current, target, goal, plan))
            if plan is not None:
                current = goal.pose.position
        return nav, cost_field, legs

    def check(self, i: int, result) -> Outcome:
        nav, cost_field, legs = result
        h = hashlib.sha256()
        for leg in legs:
            h.update(repr((leg.target.x, leg.target.y)).encode())
            if leg.plan is None:
                h.update(b"none")
                continue
            goal = leg.goal.pose
            col, row = nav.world_to_cell(goal.x, goal.y)
            expected = float(cost_field.field(leg.start)[row, col])
            if abs(leg.plan.cost - expected) > COST_TIE:
                raise CheckFailed(f"A* cost {leg.plan.cost!r} != cost field {expected!r}")
            h.update(repr((goal.x, goal.y, goal.theta, leg.plan.cost)).encode())
            h.update(repr([(p.x, p.y) for p in leg.plan.waypoints]).encode())
        found = sum(1 for leg in legs if leg.plan is not None)
        return Outcome(h.digest(), len(legs), found)


WORKLOADS = {w.name: w for w in (FullMission, PickupTrial, PlanQueries)}

"""Per-layer tracer built from outside the library.

Each traced function is replaced, while a traced episode runs, by a
wrapper bound under the same name where its caller looks it up:
`littersim.mission` imports most layer functions by name, `littersim.planner`
imports `trace_cells` by name, `World` and `PoseBuffer` methods live on their
classes, and the benchmark's own workload module binds what it calls
directly.  The wrappers record one span per call (name, episode, parent,
start, end) and a few counters, and re-raise every exception unchanged, so
the library behaves exactly as it does untraced.  `uninstall` puts every
original back.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from littersim import gridmap, mission, planner
from littersim.geometry import DegenerateDepth
from littersim.pickup import PickupPhase
from littersim.planner import CostField, StartOccupied
from littersim.posebuffer import OutOfRange, PoseBuffer
from littersim.simworld import World

# Spans kept for the trace file; counters and busy times cover every call.
MAX_SPANS = 200_000


@dataclass(frozen=True)
class Target:
    owner: object
    attr: str
    name: str
    after: Callable | None = None
    errors: dict = field(default_factory=dict)


def _count_cells(counts, args, result):
    counts["gridmap.trace_cells.cells"] += len(result)


def _count_contact(counts, args, result):
    counts["simworld.step_world.contacts"] += 1 if args[0].last_contact else 0


def _count_boxes(counts, args, result):
    counts["simworld.detect.boxes"] += len(result)


def _count_pickup_end(counts, args, result):
    before, after = args[0].phase, result[0].phase
    if before is not after and after in (PickupPhase.DONE, PickupPhase.TIMED_OUT):
        counts[f"pickup.step.{after.name.lower()}"] += 1


def _count_confirmed(counts, args, result):
    state, cfg = args[0], args[2]
    if len(result) > len(state):
        return  # founded a new hypothesis, which starts unconfirmed
    for before, after in zip(state, result):
        if before is not after:
            if after.count > cfg.accept_threshold:
                counts["clusterfilter.ingest.confirmed"] += 1
            return


def _count_found(counts, args, result):
    if result is not None:
        counts["planner.approach_goal.found"] += 1


def layer_targets(caller) -> list[Target]:
    """Every traced binding.  `caller` is the benchmark module that calls
    `build_config`, `run_mission` and the planning functions itself."""
    return [
        Target(mission, "integrate_scan", "gridmap.integrate_scan"),
        Target(gridmap, "trace_cells", "gridmap.trace_cells", after=_count_cells),
        Target(planner, "trace_cells", "gridmap.trace_cells_los"),
        Target(mission, "morph_close_open", "gridmap.morph_close_open"),
        Target(mission, "inflate", "gridmap.inflate"),
        Target(caller, "inflate", "gridmap.inflate"),
        Target(mission, "save_map", "gridmap.save_map"),
        Target(World, "step_world", "simworld.step_world", after=_count_contact),
        Target(World, "scan", "simworld.scan"),
        Target(World, "detect", "simworld.detect", after=_count_boxes),
        Target(mission, "aerial_survey", "simworld.aerial_survey"),
        Target(PoseBuffer, "insert", "posebuffer.insert"),
        Target(
            PoseBuffer, "pose_at", "posebuffer.pose_at",
            errors={OutOfRange: "posebuffer.pose_at.out_of_range"},
        ),
        Target(
            mission, "project_detection", "geometry.project_detection",
            errors={DegenerateDepth: "geometry.project_detection.degenerate"},
        ),
        Target(mission, "pickup_step", "pickup.step", after=_count_pickup_end),
        Target(mission, "ingest", "clusterfilter.ingest", after=_count_confirmed),
        Target(CostField, "__init__", "planner.costfield_build"),
        Target(CostField, "field", "planner.costfield_field"),
        *(
            Target(
                owner, "approach_goal", "planner.approach_goal", after=_count_found,
                errors={StartOccupied: "planner.approach_goal.start_occupied"},
            )
            for owner in (mission, caller)
        ),
        Target(mission, "astar", "planner.astar"),
        Target(caller, "astar", "planner.astar"),
        Target(mission, "order_waypoints", "planner.order_waypoints"),
        Target(caller, "order_waypoints", "planner.order_waypoints"),
        Target(caller, "build_config", "config.build_config"),
        Target(caller, "run_mission", "mission.run_mission"),
    ]


class Tracer:
    """Spans and counters for the calls made inside `begin`/`end` episodes.

    Calls made outside an episode (set-up, output checks) pass straight
    through unrecorded.
    """

    def __init__(self, caller):
        self.targets = [] if caller is None else layer_targets(caller)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stats: dict[str, list] = {}  # name -> [calls, busy s, self s]
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._episode: int | None = None
        # seconds the wrapper adds to a call inside its own window, and
        # outside every window it measures
        self.inner_s = self.outer_s = 0.0
        if caller is not None:
            self.inner_s, self.outer_s = _calibrate()

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, busy seconds, self seconds) recorded under `name`.  Busy
        time includes nested layer calls; self time leaves them out.  Both
        leave out the tracer's own cost, to within that of an empty call."""
        return tuple(self._stats.get(name, (0, 0.0, 0.0)))

    def install(self) -> None:
        for t in self.targets:
            original = getattr(t.owner, t.attr)
            self._originals.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(original, t))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def begin(self, episode: int) -> None:
        self._episode = episode

    def end(self) -> None:
        self._episode = None

    def _wrap(self, fn, target: Target):
        name, after = target.name, target.after
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])
        counts, stack, spans, ids = self.counts, self._stack, self.spans, self._ids
        clock = time.perf_counter
        inner_s, outer_s = self.inner_s, self.outer_s

        def close(frame, parent, episode, enter, start, end):
            # A span's own window is [start, end] less the wrapper's calling
            # cost in it.  The rest of the wrapper's cost is measured from
            # `enter` to the last clock read here, plus the calibrated part
            # outside both.  The parent subtracts the whole call from its
            # self time, and it and its ancestors subtract the tracer's
            # share from their busy time.
            stack.pop()
            dur = end - start - inner_s
            stat[0] += 1
            stat[1] += dur - frame[2]
            stat[2] += dur - frame[1]
            if len(spans) < MAX_SPANS:
                spans.append((frame[0], parent, episode, name, start, end))
            if stack:
                whole = clock() - enter + outer_s
                stack[-1][1] += whole
                stack[-1][2] += whole - dur + frame[2]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            episode = self._episode
            if episode is None:
                return fn(*args, **kwargs)
            # [span id, seconds in child calls, seconds of the tracer's own
            #  cost nested anywhere inside this span]
            frame = [next(ids), 0.0, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                for kind, counter in target.errors.items():
                    if isinstance(exc, kind):
                        counts[counter] += 1
                close(frame, parent, episode, enter, start, end)
                raise
            end = clock()
            if after is not None:
                after(counts, args, result)
            close(frame, parent, episode, enter, start, end)
            return result

        return wrapper

    def write_spans(self, path: str) -> None:
        """One tab-separated line per kept span, in start order."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tparent\tepisode\tname\tstart_s\tend_s\n")
            for span in sorted(self.spans):
                fh.write("\t".join(repr(v) if isinstance(v, float) else str(v) for v in span) + "\n")


def _noop(*args):
    pass


def _calibrate(calls: int = 10_000, repeats: int = 5) -> tuple[float, float]:
    """(inner, outer) seconds the wrapper adds to each call: inside the
    window it measures, and outside it.  Taken from a wrapped empty
    function called by a wrapped loop, median of `repeats`."""
    probe = Tracer(None)
    leaf = probe._wrap(_noop, Target(None, "", "leaf"))

    def loop(fn):
        for _ in range(calls):
            fn(0, 1, 2)

    parent = probe._wrap(loop, Target(None, "", "parent"))
    probe.begin(0)
    plain, busy, self_s = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        loop(_noop)
        plain.append(time.perf_counter() - t0)
        busy0, self0 = probe.stat("leaf")[1], probe.stat("parent")[2]
        parent(leaf)
        busy.append(probe.stat("leaf")[1] - busy0)
        self_s.append(probe.stat("parent")[2] - self0)
    # the loop's own cost is in both `plain` and the parent's self time
    median = statistics.median
    return median(busy) / calls, (median(self_s) - median(plain)) / calls

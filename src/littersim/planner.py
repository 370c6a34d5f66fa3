"""Grid planning: A* paths, greedy visit ordering, and standoff goal selection.

All planning runs over an OccupancyGrid that the caller has already
inflated by the robot radius; only Free cells are traversable (Unknown is
as solid as Occupied here).  Moves are 8-connected with straight steps
costing one resolution and diagonal steps sqrt(2) resolutions.

Cost comparisons snap to 1e-9: costs are float sums of {res, sqrt(2)*res}
accumulated in different orders by different routines, so exact equality is
meaningless but anything closer than the snap is a tie, resolved toward the
earlier candidate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import GroundPoint, Pose2D
# trace_cells is not called here but stays bound: tracing tools wrap it
# under this module's name
from .gridmap import FREE, OccupancyGrid, trace_cells, trace_many  # noqa: F401

SQRT2 = math.sqrt(2.0)
COST_TIE = 1e-9
_RIM = 1e-9  # distance band around the annulus bounds re-decided with math.hypot
# a first, bounded cost search stops this many cells' worth of path past
# the nearest target's octile distance
_LIMIT_MARGIN_CELLS = 10
# after the cheapest tie group, `_cheapest` hands its pass test whole tie
# groups of at most about this many targets at once, which bounds the
# temporaries of one batched sight-line trace
_MAX_BATCH = 64


class StartOccupied(ValueError):
    """Plan requested from a cell that is not Free (or is off the grid)."""


@dataclass(frozen=True)
class PathPlan:
    """A* result: cell-center waypoints from start to goal and the path cost
    in meters."""

    waypoints: list[GroundPoint]
    cost: float


@dataclass(frozen=True)
class NavGoal:
    """Where to drive and what the drive is for: a standoff pose facing the
    trash point it serves."""

    pose: Pose2D
    target: GroundPoint


_OFFSETS = (
    (1, 0, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (0, -1, 1.0),
    (1, 1, SQRT2),
    (1, -1, SQRT2),
    (-1, 1, SQRT2),
    (-1, -1, SQRT2),
)

# CostField's neighbour order: increasing flat index row * width + col
_CSR_OFFSETS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))
_CSR_DIAGONAL = np.array([bool(dc and dr) for dc, dr in _CSR_OFFSETS])
# a uint64 made of eight bytes of 0 or 1, times this, holds their sum in its top byte
_BYTE_SUM = np.uint64(0x0101010101010101)


def astar(grid: OccupancyGrid, start: GroundPoint, goal: GroundPoint) -> PathPlan | None:
    """Shortest 8-connected path between the cells holding start and goal.

    Returns None when the goal cell is blocked or unreachable.  The octile
    heuristic is admissible and consistent for these step costs, so the
    returned cost is the true minimum.

    The search runs on flat indices into the grid padded by one non-Free
    cell on every side, `(row + 1) * (width + 2) + col + 1`, so no step
    needs a bounds test: the Free flags are one `bytes` object, and the
    neighbours of a cell are fixed index deltas, taken in `_OFFSETS`
    order.  Heap keys are (f, push counter, index), so equal f pop in push
    order.

    Raises:
        StartOccupied: when the start cell is off-grid or not Free.
    """
    s = _start_cell(grid, start)
    g = grid.world_to_cell(goal.x, goal.y)
    if g is None or grid.cells[g[1], g[0]] != FREE:
        return None
    res = grid.resolution
    W2 = grid.width + 2
    padded = np.zeros((grid.height + 2, W2), dtype=np.uint8)
    padded[1:-1, 1:-1] = grid.cells == FREE
    free = padded.tobytes()
    steps = [(dr * W2 + dc, dc, dr, step * res) for dc, dr, step in _OFFSETS]
    gc, gr = g[0] + 1, g[1] + 1
    start_idx = (s[1] + 1) * W2 + s[0] + 1
    goal_idx = gr * W2 + gc
    # the octile heuristic is res * (max(dx, dy) + extra * min(dx, dy))
    extra = SQRT2 - 1.0
    dx, dy = abs(s[0] + 1 - gc), abs(s[1] + 1 - gr)
    g_cost = {start_idx: 0.0}
    came: dict[int, int] = {}
    heap = [(res * (max(dx, dy) + extra * min(dx, dy)), 0, start_idx)]
    tie = 1
    closed = bytearray(len(free))
    pop, push, get, inf = heapq.heappop, heapq.heappush, g_cost.get, math.inf
    while heap:
        idx = pop(heap)[2]
        if closed[idx]:
            continue
        if idx == goal_idx:
            break
        closed[idx] = 1
        row, col = divmod(idx, W2)
        base = g_cost[idx]
        for delta, dc, dr, step in steps:
            nidx = idx + delta
            if not free[nidx]:
                continue
            cand = base + step
            if cand < get(nidx, inf):
                g_cost[nidx] = cand
                came[nidx] = idx
                dx, dy = abs(col + dc - gc), abs(row + dr - gr)
                if dx > dy:
                    push(heap, (cand + res * (dx + extra * dy), tie, nidx))
                else:
                    push(heap, (cand + res * (dy + extra * dx), tie, nidx))
                tie += 1
    if goal_idx not in g_cost:
        return None
    cells = [goal_idx]
    while cells[-1] != start_idx:
        cells.append(came[cells[-1]])
    cells.reverse()
    waypoints = [GroundPoint(*grid.cell_center(i % W2 - 1, i // W2 - 1)) for i in cells]
    return PathPlan(waypoints, g_cost[goal_idx])


class CostField:
    """Single-source shortest-path costs over a fixed grid.

    Builds the 8-connected free-cell graph once and answers full cost
    fields per start cell; the costs agree with `astar` (same graph, same
    weights).  Used where a routine needs distances to many targets at
    once, which per-target A* would repeat needlessly.

    The graph is a canonical CSR matrix over flat cell indices
    `row * width + col`, built directly from the 8-neighbourhood: an edge
    joins two Free neighbours and weighs one resolution straight or
    sqrt(2) resolutions diagonal.  Each row lists its neighbours in
    increasing flat index, `(dc, dr)` = (-1,-1), (0,-1), (1,-1), (-1,0),
    (1,0), (-1,1), (0,1), (1,1), so the column indices are sorted without
    a sort pass.  Index arrays are int32 whenever they fit.

    The build makes one (height, width, 8) boolean edge mask, slot k of a
    cell holding its edge to the k-th neighbour.  `indptr` is the running
    sum of the per-cell edge counts, each the sum of a cell's 8 flag bytes
    read as one uint64 (a multiply by 0x0101010101010101 gathers the byte
    sum in the top byte).  `indices` and `data` are gathered from the
    per-slot neighbour indices and diagonal flags by the mask, one boolean
    pass each.
    """

    def __init__(self, grid: OccupancyGrid):
        from scipy.sparse import csr_matrix

        self.grid = grid
        W, H = grid.width, grid.height
        n = W * H
        free = grid.cells == FREE
        padded = np.zeros((H + 2, W + 2), dtype=bool)
        padded[1:-1, 1:-1] = free
        edges = np.empty((H, W, 8), dtype=bool)
        for k, (dc, dr) in enumerate(_CSR_OFFSETS):
            np.logical_and(
                free, padded[1 + dr : 1 + dr + H, 1 + dc : 1 + dc + W], out=edges[:, :, k]
            )
        index_dtype = np.int32 if 8 * n <= np.iinfo(np.int32).max else np.int64
        counts = (edges.view(np.uint64).reshape(n) * _BYTE_SUM) >> np.uint64(56)
        indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(counts.astype(index_dtype), out=indptr[1:])
        cells = np.arange(n, dtype=index_dtype)
        neighbours = np.empty((n, 8), dtype=index_dtype)
        for k, (dc, dr) in enumerate(_CSR_OFFSETS):
            np.add(cells, dr * W + dc, out=neighbours[:, k])
        indices = neighbours[edges.reshape(n, 8)]
        diagonal = np.tile(_CSR_DIAGONAL, n)[edges.reshape(-1)]
        data = np.where(diagonal, SQRT2 * grid.resolution, grid.resolution)
        self._graph = csr_matrix((data, indices, indptr), shape=(n, n))

    def field(self, start: GroundPoint, limit: float = math.inf) -> np.ndarray:
        """Cost (meters) from start's cell to every cell, inf if unreachable.

        With a finite `limit` the search stops there: cells costlier than
        `limit` read inf, and every other cell has the same cost, bit for
        bit, as without it.

        Raises:
            StartOccupied: when the start cell is off-grid or not Free.
        """
        from scipy.sparse.csgraph import dijkstra

        s = _start_cell(self.grid, start)
        costs = dijkstra(self._graph, indices=s[1] * self.grid.width + s[0], limit=limit)
        return costs.reshape((self.grid.height, self.grid.width))

    def reachable(self, start: GroundPoint) -> np.ndarray:
        """Boolean mask [row, col] of the cells the graph joins to start's
        cell by a path, start's cell included: a breadth-first search.

        Raises:
            StartOccupied: when the start cell is off-grid or not Free.
        """
        from scipy.sparse.csgraph import breadth_first_order

        s = _start_cell(self.grid, start)
        nodes = breadth_first_order(
            self._graph, s[1] * self.grid.width + s[0], return_predecessors=False
        )
        mask = np.zeros(self.grid.height * self.grid.width, dtype=bool)
        mask[nodes] = True
        return mask.reshape((self.grid.height, self.grid.width))


def _start_cell(grid: OccupancyGrid, start: GroundPoint) -> tuple[int, int]:
    """The (col, row) holding start; raises StartOccupied when it is off
    the grid or not Free."""
    s = grid.world_to_cell(start.x, start.y)
    if s is None or grid.cells[s[1], s[0]] != FREE:
        raise StartOccupied(f"start {(start.x, start.y)} is not on a Free cell")
    return s


def order_waypoints(
    start: GroundPoint,
    trash: list[GroundPoint],
    grid: OccupancyGrid,
    cost_field: CostField | None = None,
) -> list[tuple[GroundPoint, bool]]:
    """Greedy nearest-first visit order by path cost.

    From the current position, repeatedly pick the unvisited point with the
    cheapest path cost, ties toward earlier input order: a scan in input
    order keeps a point only when it undercuts the best cost so far by
    COST_TIE.  Points whose cells are unreachable are flagged False and
    placed last, keeping their input order.  Output length always equals
    the input length.  Pass a `cost_field` already built over `grid` to
    skip building another.

    Reachability takes one breadth-first search, not a cost search per
    stop: a point is reachable when its cell is in the start cell's
    8-connected component (`CostField.reachable`), and every stop stays in
    that component.  Points off the grid, on non-Free cells or in another
    component are never chosen.  While two or more reachable points
    remain, each stop is picked by `_cheapest`; the last one is chosen
    without a search: its cost is finite.

    Raises:
        StartOccupied: when the start cell is off-grid or not Free (and
            `trash` is not empty).
    """
    if not trash:
        return []
    cf = cost_field if cost_field is not None else CostField(grid)
    reach = cf.reachable(start)
    reachable: list[tuple[tuple[int, int], GroundPoint]] = []
    unreachable: list[GroundPoint] = []
    for p in trash:
        c = grid.world_to_cell(p.x, p.y)
        if c is not None and reach[c[1], c[0]]:
            reachable.append((c, p))
        else:
            unreachable.append(p)
    current = start
    ordered: list[tuple[GroundPoint, bool]] = []
    while len(reachable) > 1:
        cols = np.array([c[0] for c, _ in reachable])
        rows = np.array([c[1] for c, _ in reachable])
        _, current = reachable.pop(_cheapest(cf, current, rows, cols))
        ordered.append((current, True))
    ordered.extend((p, True) for _, p in reachable)
    ordered.extend((p, False) for p in unreachable)
    return ordered


def approach_goal(
    trash: GroundPoint,
    grid: OccupancyGrid,
    robot: GroundPoint,
    standoff: float = 2.0,
    min_dist: float = 0.0,
    cost_field: CostField | None = None,
) -> NavGoal | None:
    """Cheapest Free cell within standoff of the trash that can see it.

    Candidates are Free cells whose center lies between `min_dist` and
    `standoff` meters of the trash point and whose straight line to the
    trash crosses only Free cells (the trash cell itself is exempt; it may
    sit inside an inflation collar).  Among candidates the one with minimal
    path cost from the robot wins, ties toward lower (row, col).  The goal
    heading faces the trash.  Returns None when no candidate is reachable.
    min_dist keeps the goal out of the camera's near-clip zone; callers
    that only need line of sight can leave it at zero.

    The pick is `_cheapest` over the candidates in row-major order with
    the line of sight as its pass test, so sight lines are traced cheapest
    candidate first, and only until the pick is settled.

    Raises:
        StartOccupied: when the robot cell is off-grid or not Free.
    """
    cf = cost_field if cost_field is not None else CostField(grid)
    tcell = grid.world_to_cell(trash.x, trash.y)
    # candidates live in a small box around the trash
    rad_cells = int(math.ceil(standoff / grid.resolution)) + 1
    if tcell is not None:
        c0 = max(0, tcell[0] - rad_cells)
        c1 = min(grid.width - 1, tcell[0] + rad_cells)
        r0 = max(0, tcell[1] - rad_cells)
        r1 = min(grid.height - 1, tcell[1] + rad_cells)
    else:
        c0, c1, r0, r1 = 0, grid.width - 1, 0, grid.height - 1
    rows, cols = np.nonzero(grid.cells[r0 : r1 + 1, c0 : c1 + 1] == FREE)
    rows += r0
    cols += c0
    xs, ys = grid.cell_center(cols, rows)
    dx = xs - trash.x
    dy = ys - trash.y
    d = np.hypot(dx, dy)
    inside = (d <= standoff) & (d >= min_dist)
    # np.hypot may differ from math.hypot by an ulp: re-decide the rim
    for i in np.flatnonzero(
        (np.abs(d - standoff) <= _RIM) | (np.abs(d - min_dist) <= _RIM)
    ).tolist():
        di = math.hypot(float(dx[i]), float(dy[i]))
        inside[i] = min_dist <= di <= standoff
    rows, cols, xs, ys = rows[inside], cols[inside], xs[inside], ys[inside]
    if len(rows) == 0 or grid.world_to_cell(robot.x, robot.y) is None:
        _start_cell(grid, robot)  # raises StartOccupied for a bad start
        return None
    # per candidate: -1 not traced yet, else whether it sees the trash
    seen = np.full(len(rows), -1, dtype=np.int8)

    def sees(idx: np.ndarray) -> np.ndarray:
        todo = idx[seen[idx] < 0]
        if len(todo):
            seen[todo] = _lines_of_sight(grid, xs[todo], ys[todo], trash, tcell)
        return seen[idx] == 1

    best = _cheapest(cf, robot, rows, cols, sees)
    if best is None:
        return None
    bx, by = grid.cell_center(int(cols[best]), int(rows[best]))
    heading = math.atan2(trash.y - by, trash.x - bx)
    return NavGoal(Pose2D(bx, by, heading), trash)


def _cheapest(
    cf: CostField,
    start: GroundPoint,
    rows: np.ndarray,
    cols: np.ndarray,
    passes: Callable[[np.ndarray], np.ndarray] = lambda idx: np.ones(len(idx), dtype=bool),
) -> int | None:
    """Index i of the cheapest target cell (cols[i], rows[i]) from start
    that passes `passes`, ties toward the lower index; None when no
    reachable target passes.  `passes` maps an array of target indices
    to a boolean array.

    Distinct 8-connected path costs lie far more than 2 * COST_TIE apart,
    while equal ones differ only in rounding, far below COST_TIE; so this
    equals the scan in index order that keeps a passing target only when
    it undercuts the best so far by COST_TIE.  Targets are tested in
    increasing cost (a stable sort) until one passes, at cost c*; the pick
    is the lowest passing index costing below c* + COST_TIE.  The first
    test takes the cheapest tie group, the targets costing below the
    cheapest one's cost + COST_TIE; each later test takes whole tie
    groups of at least twice as many targets as the one before, up to
    about `_MAX_BATCH`.  Costs
    are first searched only to `_first_cost_limit`: within it they are
    bit for bit the unbounded ones, and costlier targets read inf.  When
    c* + COST_TIE lies within the limit, so does c*'s whole tie group and
    the pick is final; otherwise the search is repeated without a limit.
    """
    cell = cf.grid.world_to_cell(start.x, start.y)
    for limit in (_first_cost_limit(cf.grid.resolution, cell, rows, cols), math.inf):
        costs = cf.field(start, limit)[rows, cols]
        finite = np.flatnonzero(np.isfinite(costs))
        order = finite[np.argsort(costs[finite], kind="stable")]
        sorted_costs = costs[order]
        k, lo, size = None, 0, 1
        while k is None and lo < len(order):
            # whole tie groups holding at least `size` targets
            last = sorted_costs[min(lo + size, len(order)) - 1]
            hi = int(np.searchsorted(sorted_costs, last + COST_TIE))
            ok = np.flatnonzero(passes(order[lo:hi]))
            if len(ok):
                k = lo + int(ok[0])
            lo, size = hi, min(2 * size, _MAX_BATCH)
        if k is not None and sorted_costs[k] + COST_TIE <= limit:
            break
    else:
        return None
    # every target sorted before order[k] failed; the pick is the lowest
    # passing index of those tied with it
    end = int(np.searchsorted(sorted_costs, sorted_costs[k] + COST_TIE))
    ties = order[k:end]
    return int(ties[passes(ties)].min())


def _first_cost_limit(
    res: float, start: tuple[int, int], rows: np.ndarray, cols: np.ndarray
) -> float:
    """Where a first cost search stops: the octile distance from the start
    cell to the nearest target cell, which no path beats, plus a margin
    that usually covers the detour to the chosen one."""
    dc = np.abs(cols - start[0])
    dr = np.abs(rows - start[1])
    octile = np.maximum(dc, dr) + (SQRT2 - 1.0) * np.minimum(dc, dr)
    return res * (float(octile.min()) + _LIMIT_MARGIN_CELLS)


def _lines_of_sight(
    grid: OccupancyGrid,
    xs: np.ndarray,
    ys: np.ndarray,
    trash: GroundPoint,
    tcell: tuple[int, int] | None,
) -> np.ndarray:
    """Whether the straight line from each (xs[i], ys[i]) to the trash
    crosses only Free cells, its own start cell and the trash cell
    `tcell` exempt.  All lines are traced in one `trace_many` block."""
    n = len(xs)
    cell, kept = trace_many(grid, xs, ys, np.full(n, trash.x), np.full(n, trash.y))
    if tcell is not None:
        kept &= cell != tcell[1] * grid.width + tcell[0]
    blocked = np.zeros(kept.shape, dtype=bool)
    blocked[kept] = grid.cells.ravel()[cell[kept].astype(np.int64)] != FREE
    return ~blocked.any(axis=1)

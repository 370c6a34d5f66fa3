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

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .geometry import GroundPoint, Pose2D
from .gridmap import FREE, OccupancyGrid, trace_cells

SQRT2 = math.sqrt(2.0)
COST_TIE = 1e-9
_RIM = 1e-9  # distance band around the annulus bounds re-decided with math.hypot
# approach_goal's first cost search stops this many cells' worth of path
# past the nearest candidate's octile distance
_LIMIT_MARGIN_CELLS = 10


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


def astar(grid: OccupancyGrid, start: GroundPoint, goal: GroundPoint) -> PathPlan | None:
    """Shortest 8-connected path between the cells holding start and goal.

    Returns None when the goal cell is blocked or unreachable.  The octile
    heuristic is admissible and consistent for these step costs, so the
    returned cost is the true minimum.

    Raises:
        StartOccupied: when the start cell is off-grid or not Free.
    """
    s = grid.world_to_cell(start.x, start.y)
    if s is None or grid.cells[s[1], s[0]] != FREE:
        raise StartOccupied(f"start {(start.x, start.y)} is not on a Free cell")
    g = grid.world_to_cell(goal.x, goal.y)
    if g is None or grid.cells[g[1], g[0]] != FREE:
        return None
    res = grid.resolution
    W, H = grid.width, grid.height
    free = grid.cells == FREE

    def heuristic(col: int, row: int) -> float:
        dx = abs(col - g[0])
        dy = abs(row - g[1])
        return res * (max(dx, dy) + (SQRT2 - 1.0) * min(dx, dy))

    start_idx = s[1] * W + s[0]
    goal_idx = g[1] * W + g[0]
    g_cost = {start_idx: 0.0}
    came: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(heuristic(s[0], s[1]), 0, start_idx)]
    tie = 1
    closed = set()
    while heap:
        f, _, idx = heapq.heappop(heap)
        if idx in closed:
            continue
        if idx == goal_idx:
            break
        closed.add(idx)
        row, col = divmod(idx, W)
        base = g_cost[idx]
        for dc, dr, step in _OFFSETS:
            nc, nr = col + dc, row + dr
            if not (0 <= nc < W and 0 <= nr < H) or not free[nr, nc]:
                continue
            nidx = nr * W + nc
            cand = base + step * res
            if cand < g_cost.get(nidx, math.inf):
                g_cost[nidx] = cand
                came[nidx] = idx
                heapq.heappush(heap, (cand + heuristic(nc, nr), tie, nidx))
                tie += 1
    if goal_idx not in g_cost:
        return None
    cells = [goal_idx]
    while cells[-1] != start_idx:
        cells.append(came[cells[-1]])
    cells.reverse()
    waypoints = [GroundPoint(*grid.cell_center(i % W, i // W)) for i in cells]
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
    """

    def __init__(self, grid: OccupancyGrid):
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
        # slot 8 * cell + k holds the edge to the cell's k-th neighbour
        slots = np.flatnonzero(edges)
        index_dtype = np.int32 if 8 * n <= np.iinfo(np.int32).max else np.int64
        indptr = np.searchsorted(slots, np.arange(0, 8 * n + 1, 8)).astype(index_dtype)
        k = slots & 7
        shifts = np.array([dr * W + dc for dc, dr in _CSR_OFFSETS], dtype=index_dtype)
        indices = (slots >> 3).astype(index_dtype) + shifts[k]
        steps = np.array([SQRT2 if dc and dr else 1.0 for dc, dr in _CSR_OFFSETS])
        data = (steps * grid.resolution)[k]
        self._graph = csr_matrix((data, indices, indptr), shape=(n, n))

    def field(self, start: GroundPoint, limit: float = math.inf) -> np.ndarray:
        """Cost (meters) from start's cell to every cell, inf if unreachable.

        With a finite `limit` the search stops there: cells costlier than
        `limit` read inf, and every other cell has the same cost, bit for
        bit, as without it.

        Raises:
            StartOccupied: when the start cell is off-grid or not Free.
        """
        s = self.grid.world_to_cell(start.x, start.y)
        if s is None or self.grid.cells[s[1], s[0]] != FREE:
            raise StartOccupied(f"start {(start.x, start.y)} is not on a Free cell")
        costs = _csgraph_dijkstra(
            self._graph, indices=s[1] * self.grid.width + s[0], limit=limit
        )
        return costs.reshape((self.grid.height, self.grid.width))


def order_waypoints(
    start: GroundPoint,
    trash: list[GroundPoint],
    grid: OccupancyGrid,
    cost_field: CostField | None = None,
) -> list[tuple[GroundPoint, bool]]:
    """Greedy nearest-first visit order by path cost.

    From the current position, repeatedly pick the unvisited point with the
    cheapest path cost (ties toward earlier input order).  Points whose
    cells are unreachable are flagged False and placed last, keeping their
    input order.  Output length always equals the input length.  Pass a
    `cost_field` already built over `grid` to skip building another.
    """
    if not trash:
        return []
    cf = cost_field if cost_field is not None else CostField(grid)
    remaining = list(enumerate(trash))
    current = start
    ordered: list[tuple[GroundPoint, bool]] = []
    while remaining:
        costs = cf.field(current)
        best_j = -1
        best_cost = math.inf
        for j, (_, p) in enumerate(remaining):
            cell = grid.world_to_cell(p.x, p.y)
            c = math.inf if cell is None else float(costs[cell[1], cell[0]])
            if c < best_cost - COST_TIE:
                best_cost = c
                best_j = j
        if best_j < 0:
            break
        _, chosen = remaining.pop(best_j)
        ordered.append((chosen, True))
        current = chosen
    ordered.extend((p, False) for _, p in remaining)
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

    The search is cost-ordered: reachable candidates are visited in
    increasing path cost (a stable sort, so equal costs keep row-major
    order) and the line of sight is traced only until the first candidate
    passes.  Its cost is c*; the goal is then the lowest (row, col) among
    passing candidates with cost below c* + COST_TIE.  Distinct
    8-connected path costs lie far more than 2 * COST_TIE apart, so this
    is exactly the row-major scan that keeps a candidate only when it
    undercuts the best so far by COST_TIE.  Path costs are first searched
    only a few cells past the nearest candidate's octile distance; when no
    candidate within that limit passes, or c* + COST_TIE exceeds it, the
    search is repeated without a limit.

    Raises:
        StartOccupied: when the robot cell is off-grid or not Free.
    """
    cf = cost_field if cost_field is not None else CostField(grid)
    res = grid.resolution
    tcell = grid.world_to_cell(trash.x, trash.y)
    # candidates live in a small box around the trash
    rad_cells = int(math.ceil(standoff / res)) + 1
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
    # same float expression as OccupancyGrid.cell_center, element by element
    gx = (cols + 0.5) * res
    gy = (rows + 0.5) * res
    c = math.cos(grid.origin.theta)
    s = math.sin(grid.origin.theta)
    dx = grid.origin.x + c * gx - s * gy - trash.x
    dy = grid.origin.y + s * gx + c * gy - trash.y
    d = np.hypot(dx, dy)
    inside = (d <= standoff) & (d >= min_dist)
    # np.hypot may differ from math.hypot by an ulp: re-decide the rim
    for i in np.flatnonzero(
        (np.abs(d - standoff) <= _RIM) | (np.abs(d - min_dist) <= _RIM)
    ).tolist():
        di = math.hypot(float(dx[i]), float(dy[i]))
        inside[i] = min_dist <= di <= standoff
    rows, cols = rows[inside], cols[inside]
    start = grid.world_to_cell(robot.x, robot.y)
    if start is None or len(rows) == 0:
        cf.field(robot, limit=0.0)  # raises StartOccupied for a bad start
        return None
    seen: dict[int, bool] = {}

    def sees(i: int) -> bool:
        if i not in seen:
            cx, cy = grid.cell_center(int(cols[i]), int(rows[i]))
            seen[i] = _line_of_sight(grid, cx, cy, trash, tcell)
        return seen[i]

    for limit in (_first_cost_limit(res, start, rows, cols), math.inf):
        cand_costs = cf.field(robot, limit)[rows, cols]
        reachable = np.flatnonzero(np.isfinite(cand_costs))
        order = reachable[np.argsort(cand_costs[reachable], kind="stable")]
        sorted_costs = cand_costs[order]
        k = next((k for k, i in enumerate(order.tolist()) if sees(i)), None)
        # settled once the whole tie group of the first passing candidate
        # lies within the limit
        if k is not None and sorted_costs[k] + COST_TIE <= limit:
            break
    else:
        return None
    i = int(order[k])
    # every candidate sorted before i failed; of those tied with i, try the
    # ones earlier in row-major order, lowest first
    end = int(np.searchsorted(sorted_costs, sorted_costs[k] + COST_TIE))
    ties = sorted(j for j in order[k + 1 : end].tolist() if j < i)
    best = next((j for j in ties if sees(j)), i)
    bx, by = grid.cell_center(int(cols[best]), int(rows[best]))
    heading = math.atan2(trash.y - by, trash.x - bx)
    return NavGoal(Pose2D(bx, by, heading), trash)


def _first_cost_limit(
    res: float, start: tuple[int, int], rows: np.ndarray, cols: np.ndarray
) -> float:
    """Where approach_goal's first cost search stops: the octile distance
    from the robot's cell to the nearest candidate, which no path beats,
    plus a margin that usually covers the detour to the goal."""
    dc = np.abs(cols - start[0])
    dr = np.abs(rows - start[1])
    octile = np.maximum(dc, dr) + (SQRT2 - 1.0) * np.minimum(dc, dr)
    return res * (float(octile.min()) + _LIMIT_MARGIN_CELLS)


def _line_of_sight(
    grid: OccupancyGrid,
    x: float,
    y: float,
    trash: GroundPoint,
    tcell: tuple[int, int] | None,
) -> bool:
    cells = trace_cells(grid, x, y, trash.x, trash.y)
    start = grid.world_to_cell(x, y)
    for cell in cells:
        if cell == start or cell == tcell:
            continue
        if grid.cells[cell[1], cell[0]] != FREE:
            return False
    return True

"""The A* search `planner.astar` was before it ran on a padded flat grid.

Tests use it as the independent reference for every path the library
plans: bounds-checked neighbour steps over a numpy Free mask, a call per
heuristic, and a closed set, so a suite never compares the flat-grid kernel
with itself.  It keeps its own copy of the neighbour order, so a change to
the library's order shows as a difference.
"""

import heapq
import math

from littersim.geometry import GroundPoint
from littersim.gridmap import FREE, OccupancyGrid
from littersim.planner import PathPlan, StartOccupied

SQRT2 = math.sqrt(2.0)

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


def _start_cell(grid: OccupancyGrid, start: GroundPoint) -> tuple[int, int]:
    """The (col, row) holding start; raises StartOccupied when it is off
    the grid or not Free."""
    s = grid.world_to_cell(start.x, start.y)
    if s is None or grid.cells[s[1], s[0]] != FREE:
        raise StartOccupied(f"start {(start.x, start.y)} is not on a Free cell")
    return s


def astar(grid: OccupancyGrid, start: GroundPoint, goal: GroundPoint) -> PathPlan | None:
    """Shortest 8-connected path between the cells holding start and goal.

    Returns None when the goal cell is blocked or unreachable.  The octile
    heuristic is admissible and consistent for these step costs, so the
    returned cost is the true minimum.

    Raises:
        StartOccupied: when the start cell is off-grid or not Free.
    """
    s = _start_cell(grid, start)
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

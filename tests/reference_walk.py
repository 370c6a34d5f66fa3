"""The pure-Python grid walk `gridmap.trace_cells` was before it became the
one-segment view of the batched `gridmap._walk`.

Tests use it as the independent reference for every sight line and beam
the library traces: one segment at a time, with plain floats and sorted
lists, so a suite never compares the batched kernel with itself.
"""

import math

from littersim.gridmap import OccupancyGrid


def trace_cells(
    grid: OccupancyGrid, x0: float, y0: float, x1: float, y1: float
) -> list[tuple[int, int]]:
    """Cells crossed by the segment (x0,y0)->(x1,y1), in traversal order.

    Exact grid-line-crossing walk: the segment is cut at every gridline it
    crosses and each interval midpoint names one cell.  Zero-length
    intervals from corner touches are dropped, so a segment through a cell
    corner does not pick up the diagonal neighbors it only grazes.  Cells
    outside the grid bounds are omitted; consecutive duplicates collapse.
    """
    res = grid.resolution
    ax, ay = x0 / res, y0 / res
    bx, by = x1 / res, y1 / res
    dx = bx - ax
    dy = by - ay
    ts = [0.0, 1.0]
    if abs(dx) > 1e-15:
        k0 = math.ceil(min(ax, bx))
        k1 = math.floor(max(ax, bx))
        for k in range(k0, k1 + 1):
            ts.append((k - ax) / dx)
    if abs(dy) > 1e-15:
        k0 = math.ceil(min(ay, by))
        k1 = math.floor(max(ay, by))
        for k in range(k0, k1 + 1):
            ts.append((k - ay) / dy)
    ts = sorted(t for t in ts if 0.0 <= t <= 1.0)
    out: list[tuple[int, int]] = []
    for i in range(len(ts) - 1):
        if ts[i + 1] - ts[i] <= 1e-12:
            continue
        tm = 0.5 * (ts[i] + ts[i + 1])
        col = math.floor(ax + tm * dx)
        row = math.floor(ay + tm * dy)
        if 0 <= col < grid.width and 0 <= row < grid.height:
            cell = (col, row)
            if not out or out[-1] != cell:
                out.append(cell)
    return out

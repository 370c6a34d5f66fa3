"""Tri-state occupancy grid: ray integration, cleanup morphology, inflation, file I/O.

Cells are one of Free, Occupied, Unknown and are stored in a dense uint8
array indexed [row, col], row-major, with cell (col=0, row=0) at the grid
origin corner.  The origin pose places that corner in the map frame and may
be rotated.

File format (see save_map/load_map): a single ASCII header line

    GRIDMAP v1 <width> <height> <resolution> <origin_x> <origin_y> <origin_theta>\n

followed by exactly width*height raw cell bytes, row 0 first.  Byte values
are 0 = Occupied, 254 = Free, 205 = Unknown, chosen so dumped maps open in
common PGM viewers with the usual shading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose2D

FREE = np.uint8(254)
OCCUPIED = np.uint8(0)
UNKNOWN = np.uint8(205)

_MAGIC = b"GRIDMAP v1"


class FormatError(ValueError):
    """Malformed map file; message carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class StructuringElement:
    """Square morphology element of odd size, size=3 meaning 3x3."""

    size: int = 3

    def __post_init__(self) -> None:
        if self.size < 1 or self.size % 2 == 0:
            raise ValueError("structuring element size must be odd and >= 1")


class OccupancyGrid:
    """Dense tri-state grid over a rotated rectangle of the map frame."""

    def __init__(self, width: int, height: int, resolution: float, origin: Pose2D):
        if width <= 0 or height <= 0:
            raise ValueError("grid dimensions must be positive")
        if resolution <= 0.0:
            raise ValueError("resolution must be positive")
        self.width = width
        self.height = height
        self.resolution = resolution
        self.origin = origin
        self.cells = np.full((height, width), UNKNOWN, dtype=np.uint8)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OccupancyGrid):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.resolution == other.resolution
            and self.origin == other.origin
            and bool(np.array_equal(self.cells, other.cells))
        )

    def copy(self) -> "OccupancyGrid":
        g = OccupancyGrid(self.width, self.height, self.resolution, self.origin)
        g.cells = self.cells.copy()
        return g

    def world_to_cell(self, x: float, y: float) -> tuple[int, int] | None:
        """Map-frame point to (col, row), or None when outside the grid."""
        c = math.cos(self.origin.theta)
        s = math.sin(self.origin.theta)
        dx = x - self.origin.x
        dy = y - self.origin.y
        # rotate into the grid frame
        gx = c * dx + s * dy
        gy = -s * dx + c * dy
        col = math.floor(gx / self.resolution)
        row = math.floor(gy / self.resolution)
        if 0 <= col < self.width and 0 <= row < self.height:
            return col, row
        return None

    def cell_center(self, col: int, row: int) -> tuple[float, float]:
        """Map-frame coordinates of a cell center."""
        gx = (col + 0.5) * self.resolution
        gy = (row + 0.5) * self.resolution
        c = math.cos(self.origin.theta)
        s = math.sin(self.origin.theta)
        return self.origin.x + c * gx - s * gy, self.origin.y + s * gx + c * gy


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
    c = math.cos(grid.origin.theta)
    s = math.sin(grid.origin.theta)
    res = grid.resolution

    def to_grid(x: float, y: float) -> tuple[float, float]:
        dx, dy = x - grid.origin.x, y - grid.origin.y
        return (c * dx + s * dy) / res, (-s * dx + c * dy) / res

    ax, ay = to_grid(x0, y0)
    bx, by = to_grid(x1, y1)
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


def integrate_scan(
    grid: OccupancyGrid,
    robot: Pose2D,
    scan: list[tuple[float, float, float]],
) -> None:
    """Fold one range scan into the grid.

    Each scan entry is (bearing, range, max_range), bearing relative to the
    robot heading.  Each beam covers the cells `trace_cells` reports from
    the robot to the beam end, less the robot's own cell.  A hit beam
    (range < max_range) marks its last cell Occupied when the hit point
    itself lies in that cell, and its other cells Free; when the end was
    clipped at the grid edge, every cell is Free.  Rays that reach
    max_range mark free space only.

    The writes are a join on Unknown < Free < Occupied: Occupied is never
    demoted to Free, so the result does not depend on beam order, and the
    scan folds in as two masked writes, the union of the free cells and
    then the union of the hit cells.  All beams of one scan are traced in
    one numpy pass with the same float operations, in the same order, as
    `trace_cells`: each beam's x- and y-gridline crossing parameters
    (Amanatides & Woo) fill one padded row, the rows are sorted, and each
    interval longer than 1e-12 names the cell under its midpoint.  A call
    handles one scan, so its temporaries stay near 10^4 elements.
    """
    if not scan:
        return
    c = math.cos(grid.origin.theta)
    s = math.sin(grid.origin.theta)
    res = grid.resolution
    bearing, rng, max_range = (np.array(v) for v in zip(*scan))
    reach = np.minimum(rng, max_range)
    ang = (robot.theta + bearing).tolist()
    ex = robot.x + reach * np.array([math.cos(t) for t in ang])
    ey = robot.y + reach * np.array([math.sin(t) for t in ang])

    # grid-frame robot (a) and beam ends (b), columns x and y, in cell units
    rdx, rdy = robot.x - grid.origin.x, robot.y - grid.origin.y
    a = np.array([(c * rdx + s * rdy) / res, (-s * rdx + c * rdy) / res])
    edx, edy = ex - grid.origin.x, ey - grid.origin.y
    b = np.empty((len(scan), 2))
    b[:, 0] = (c * edx + s * edy) / res
    b[:, 1] = (-s * edx + c * edy) / res
    d = b - a

    # per beam, the segment ends and every x- and y-gridline crossing
    # parameter, padded with 2.0, past the segment end; a gridline k
    # between a and b gives (k - a) / d in [0, 1] even after rounding
    k0 = np.ceil(np.minimum(a, b))
    n = np.floor(np.maximum(a, b)) - k0 + 1.0
    n[np.abs(d) <= 1e-15] = 0.0
    k = k0[..., None] + np.arange(max(int(n.max()), 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (k - a[:, None]) / d[..., None]
    t[k >= (k0 + n)[..., None]] = 2.0
    ts = np.empty((len(scan), 2 + t.shape[1] * t.shape[2]))
    ts[:, :2] = (0.0, 1.0)
    ts[:, 2:] = t.reshape(len(scan), -1)
    ts.sort(axis=1)

    # one entry per interval longer than 1e-12, beam by beam in traversal
    # order, naming the cell under its midpoint
    lo, hi = ts[:, :-1], ts[:, 1:]
    live = (hi <= 1.0) & (hi - lo > 1e-12)
    beam = np.repeat(np.arange(len(scan)), live.sum(axis=1))
    tm = (0.5 * (lo + hi))[live]
    cols = np.floor(a[0] + tm * d[beam, 0]).astype(np.int64)
    rows = np.floor(a[1] + tm * d[beam, 1]).astype(np.int64)
    keep = (0 <= cols) & (cols < grid.width) & (0 <= rows) & (rows < grid.height)
    # the robot's own cell is left out; cells run monotonically away from
    # it along each segment, so wherever it is traced it is traced first
    start = grid.world_to_cell(robot.x, robot.y)
    if start is not None:
        keep &= (cols != start[0]) | (rows != start[1])
    beam, cols, rows = beam[keep], cols[keep], rows[keep]

    grid.cells[rows, cols] = np.where(grid.cells[rows, cols] == OCCUPIED, OCCUPIED, FREE)

    # a hit marks the last traced cell, and only when the hit point itself
    # lies in it; a beam clipped at the grid edge ends in another cell
    last = np.ones(len(beam), dtype=bool)
    last[:-1] = beam[1:] != beam[:-1]
    beam, cols, rows = beam[last], cols[last], rows[last]
    end_col = np.floor(b[beam, 0]).astype(np.int64)
    end_row = np.floor(b[beam, 1]).astype(np.int64)
    occupied = (rng[beam] < max_range[beam]) & (cols == end_col) & (rows == end_row)
    grid.cells[rows[occupied], cols[occupied]] = OCCUPIED


def _window_count(mask: np.ndarray, half: int, axis: int) -> np.ndarray:
    """True cells of `mask` in the window [i - half, i + half] along `axis`,
    for every i; out-of-array cells count as False.  One prefix sum, laid
    out with half + 1 zeros before it and half copies of the total after."""

    def along(start: int, stop: int | None = None) -> tuple[slice, ...]:
        return (slice(None),) * axis + (slice(start, stop),)

    n = mask.shape[axis]
    shape = list(mask.shape)
    shape[axis] = n + 2 * half + 1
    c = np.zeros(shape, dtype=np.int32)
    np.cumsum(mask, axis=axis, out=c[along(half + 1, half + 1 + n)])
    c[along(half + 1 + n)] = c[along(half + n, half + n + 1)]
    return c[along(2 * half + 1)] - c[along(0, n)]


def _dilate(mask: np.ndarray, se: StructuringElement) -> np.ndarray:
    half = se.size // 2
    for axis in (0, 1):
        mask = _window_count(mask, half, axis) > 0
    return mask


def _erode(mask: np.ndarray, se: StructuringElement) -> np.ndarray:
    half = se.size // 2
    for axis in (0, 1):
        mask = _window_count(mask, half, axis) == se.size
    return mask


def close_occupied(mask: np.ndarray, se: StructuringElement) -> np.ndarray:
    """Morphological closing (dilate, then erode) of a boolean mask by the
    se.size x se.size square.

    Out-of-array cells count as False for both passes, so erosion clears
    every cell within se.size // 2 of the array edge.  The square is the
    product of two 1-D windows, so each pass runs once per axis: a cell
    dilates to True when its window holds any True cell and erodes to True
    when its window holds se.size of them.
    """
    return _erode(_dilate(mask, se), se)


def open_occupied(mask: np.ndarray, se: StructuringElement) -> np.ndarray:
    """Morphological opening (erode, then dilate) of a boolean mask, with
    the same square and out-of-array rule as `close_occupied`."""
    return _dilate(_erode(mask, se), se)


def morph_close_open(grid: OccupancyGrid, se: StructuringElement = StructuringElement()) -> OccupancyGrid:
    """Cleanup pass: closing then opening of the occupied set.

    Unknown cells take part in the transform as if Occupied, which is what
    keeps one-cell-thick walls alive through the opening stage: the
    unexplored mass behind a wall backs it during erosion.  Afterwards,
    originally-Unknown cells are restored to Unknown wherever the transform
    output still covers them and become Free where it does not; every other
    cell is Occupied where covered, Free elsewhere.

    Returns a new grid; the input is untouched.
    """
    out = grid.copy()
    solid = grid.cells != FREE
    kept = open_occupied(close_occupied(solid, se), se)
    unknown = grid.cells == UNKNOWN
    out.cells = np.where(
        kept, np.where(unknown, UNKNOWN, OCCUPIED), FREE
    ).astype(np.uint8)
    return out


def inflate(grid: OccupancyGrid, radius: float) -> OccupancyGrid:
    """Grow Occupied by a Euclidean radius (meters) over Free cells.

    Every Free cell whose center lies within `radius` of an Occupied cell
    center becomes Occupied.  Unknown cells are untouched (they are already
    untraversable for planning).  radius 0 returns an identical copy.

    "Within" is the disk of cell offsets (di, dj) with
    math.sqrt(di*di + dj*dj) <= radius / resolution + 1e-9.  The squared
    offset is an exact integer and sqrt is correctly rounded, so this is
    the rule a Euclidean distance transform thresholded at the same bound
    gives.  Each row offset di of the disk dilates the Occupied mask along
    the row by its half-width and shifts it by di rows, which costs
    O(radius * cells).
    """
    if radius < 0.0:
        raise ValueError("inflation radius must be non-negative")
    out = grid.copy()
    occupied = grid.cells == OCCUPIED
    if radius == 0.0 or not occupied.any():
        return out
    H, W = occupied.shape
    # every in-grid offset is shorter than H + W, so a larger bound admits
    # the same cells
    bound = min((radius / grid.resolution) + 1e-9, float(H + W))
    within = np.zeros_like(occupied)
    dilated: dict[int, np.ndarray] = {}  # half-width -> row-dilated mask
    m = min(math.floor(bound), H - 1)
    for di in range(-m, m + 1):
        w = min(_half_width(di, bound), W - 1)
        if w not in dilated:
            dilated[w] = _window_count(occupied, w, 1) > 0
        # cell (r, c) is within when an Occupied cell (r - di, c') has
        # |c - c'| <= w
        within[max(di, 0) : H + min(di, 0)] |= dilated[w][max(-di, 0) : H - max(di, 0)]
    out.cells[within & (grid.cells == FREE)] = OCCUPIED
    return out


def _half_width(di: int, bound: float) -> int:
    """Largest dj with math.sqrt(di*di + dj*dj) <= bound, for a row offset
    with |di| <= bound."""
    w = int(math.sqrt(bound * bound - di * di))
    while math.sqrt(di * di + (w + 1) * (w + 1)) <= bound:
        w += 1
    while math.sqrt(di * di + w * w) > bound:
        w -= 1
    return w


def save_map(grid: OccupancyGrid, path: str) -> None:
    """Write the grid in the GRIDMAP v1 format.  Round-trips bit-exactly."""
    header = (
        f"GRIDMAP v1 {grid.width} {grid.height} {grid.resolution!r} "
        f"{grid.origin.x!r} {grid.origin.y!r} {grid.origin.theta!r}\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(grid.cells.tobytes())


def load_map(path: str) -> OccupancyGrid:
    """Read a GRIDMAP v1 file.

    Raises:
        FormatError: on a bad magic string, malformed header fields, bad
            cell byte values, or a payload size mismatch.
        OSError: propagated for I/O failures.
    """
    with open(path, "rb") as f:
        data = f.read()
    nl = data.find(b"\n")
    if nl < 0:
        raise FormatError("missing header line", 0)
    header = data[: nl]
    if not header.startswith(_MAGIC + b" "):
        raise FormatError("bad magic, expected 'GRIDMAP v1'", 0)
    fields = header[len(_MAGIC) + 1 :].split(b" ")
    if len(fields) != 6:
        raise FormatError(f"expected 6 header fields, got {len(fields)}", len(_MAGIC) + 1)
    try:
        width = int(fields[0])
        height = int(fields[1])
    except ValueError:
        raise FormatError("non-integer grid dimensions", len(_MAGIC) + 1) from None
    try:
        resolution = float(fields[2])
        ox = float(fields[3])
        oy = float(fields[4])
        otheta = float(fields[5])
    except ValueError:
        raise FormatError("non-numeric header fields", len(_MAGIC) + 1) from None
    if width <= 0 or height <= 0 or resolution <= 0.0:
        raise FormatError("non-positive dimensions or resolution", len(_MAGIC) + 1)
    payload = data[nl + 1 :]
    if len(payload) != width * height:
        raise FormatError(
            f"payload holds {len(payload)} bytes, expected {width * height}", nl + 1
        )
    cells = np.frombuffer(payload, dtype=np.uint8).reshape((height, width)).copy()
    valid = (cells == FREE) | (cells == OCCUPIED) | (cells == UNKNOWN)
    if not valid.all():
        bad = int(np.argmax(~valid.ravel()))
        raise FormatError(f"invalid cell byte {cells.ravel()[bad]}", nl + 1 + bad)
    grid = OccupancyGrid(width, height, resolution, Pose2D(ox, oy, otheta))
    grid.cells = cells
    return grid

"""Tri-state occupancy grid: ray integration, cleanup morphology, inflation, file I/O.

Cells are one of Free, Occupied, Unknown and are stored in a dense uint8
array indexed [row, col], row-major.  The grid lies in the map frame:
cell (col, row) covers [col*res, (col+1)*res) x [row*res, (row+1)*res).

File format (see save_map/load_map): a single ASCII header line

    GRIDMAP v1 <width> <height> <resolution> 0.0 0.0 0.0\n

followed by exactly width*height raw cell bytes, row 0 first.  The three
zeros are the format's origin fields; the grid always starts at the map
frame's origin, and load_map rejects any other origin.  Byte values are
0 = Occupied, 254 = Free, 205 = Unknown, chosen so dumped maps open in
common PGM viewers with the usual shading.
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

FREE = np.uint8(254)
OCCUPIED = np.uint8(0)
UNKNOWN = np.uint8(205)

_MAGIC = b"GRIDMAP v1"

# side of the square window the cleanup morphology uses, in cells
MORPH_SIZE = 3


class FormatError(ValueError):
    """Malformed map file; message carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class OccupancyGrid:
    """Dense tri-state grid over the rectangle [0, width*res) x
    [0, height*res) of the map frame."""

    def __init__(self, width: int, height: int, resolution: float):
        if width <= 0 or height <= 0:
            raise ValueError("grid dimensions must be positive")
        if resolution <= 0.0:
            raise ValueError("resolution must be positive")
        self.width = width
        self.height = height
        self.resolution = resolution
        self.cells = np.full((height, width), UNKNOWN, dtype=np.uint8)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OccupancyGrid):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.resolution == other.resolution
            and bool(np.array_equal(self.cells, other.cells))
        )

    def copy(self) -> "OccupancyGrid":
        g = OccupancyGrid(self.width, self.height, self.resolution)
        g.cells = self.cells.copy()
        return g

    def world_to_cell(self, x: float, y: float) -> tuple[int, int] | None:
        """Map-frame point to (col, row), or None when outside the grid."""
        col = math.floor(x / self.resolution)
        row = math.floor(y / self.resolution)
        if 0 <= col < self.width and 0 <= row < self.height:
            return col, row
        return None

    def cell_center(self, col: int, row: int) -> tuple[float, float]:
        """Map-frame coordinates of a cell center."""
        return (col + 0.5) * self.resolution, (row + 0.5) * self.resolution


def trace_cells(
    grid: OccupancyGrid, x0: float, y0: float, x1: float, y1: float
) -> list[tuple[int, int]]:
    """Cells crossed by the segment (x0,y0)->(x1,y1), in traversal order.

    Exact grid-line-crossing walk: the segment is cut at every gridline it
    crosses and each interval midpoint names one cell.  Zero-length
    intervals from corner touches are dropped, so a segment through a cell
    corner does not pick up the diagonal neighbors it only grazes.  Cells
    outside the grid bounds are omitted; consecutive duplicates collapse.
    This is `_walk` of the one segment.
    """
    ends = np.array([[x0], [y0], [x1], [y1]], dtype=float) / grid.resolution
    cell, kept = _walk(grid, ends[:2], ends[2:])
    flat = cell[0, kept[0]].astype(np.int64).tolist()
    return [(c % grid.width, c // grid.width) for c, _ in groupby(flat)]


# beams traced together in one pass of `integrate_scan`.  Over 2284 scans
# of 8 default missions, 512 beams a pass took about 5% less time than
# 256 (median of 12 alternated runs), but their temporaries raised peak
# RSS over 32 default missions by about 0.3 MB.
PASS_BEAMS = 256


def integrate_scan(
    grid: OccupancyGrid,
    poses: np.ndarray,
    bearings: np.ndarray,
    ranges: np.ndarray,
    max_range: float,
) -> None:
    """Fold range scans, one per robot pose, into the grid.

    `poses` holds N robot poses as (x, y, theta) rows, `bearings` the B
    beam bearings relative to each pose's heading, and `ranges` the N x B
    ranges, row i taken from pose i.  Every beam starts at its own scan's
    pose and covers the cells `trace_cells` reports from there to the beam
    end, less that scan's robot cell.  A hit beam (range < max_range)
    marks its last cell Occupied when the hit point itself lies in that
    cell, and its other cells Free; when the end was clipped at the grid
    edge, every cell is Free.  Rays that reach max_range mark free space
    only.

    The writes are a join on Unknown < Free < Occupied: Occupied is never
    demoted to Free, so the result depends neither on beam order nor on
    scan order.  Folding many scans in one call therefore gives the same
    cells as folding them one call at a time, and the call folds the
    union of all free cells and then the union of all hit cells, each in
    one masked write at the end.

    A beam ends `min(range, max_range)` from its pose along theta +
    bearing, with the directions of all beams from one `np.cos` and one
    `np.sin`.  The golden digests were recorded, and the per-beam test
    reference steps, with `math.cos` and `math.sin`: they hold only while
    numpy's results have the same bits.  The beams of all scans are
    traced PASS_BEAMS at a time, sorted by their number of gridline
    crossings so that a pass pads little, each pass with `_walk`.
    """
    poses = np.asarray(poses, dtype=float).reshape(-1, 3)
    bearings = np.asarray(bearings, dtype=float)
    n_beams = len(bearings)
    rng = np.asarray(ranges, dtype=float).reshape(len(poses) * n_beams)
    if not len(rng):
        return
    px, py, ptheta = poses.T
    px = np.repeat(px, n_beams)
    py = np.repeat(py, n_beams)
    reach = np.minimum(rng, max_range)
    ang = (ptheta[:, None] + bearings).ravel()
    ex = px + reach * np.cos(ang)
    ey = py + reach * np.sin(ang)

    # grid-frame robot (a) and beam ends (b) of every beam, and the
    # cells they lie in
    a = np.array([px, py]) / grid.resolution
    b = np.array([ex, ey]) / grid.resolution
    _, _, n = _crossings(a, b)
    start = _flat_cell(grid, a)
    end = _flat_cell(grid, b)
    hit = rng < max_range

    # beams with like crossing counts share a pass; the union of every
    # pass's free cells and of its hit cells is written once at the end
    order = np.argsort(n[0] + n[1], kind="stable")
    free = np.zeros(grid.cells.size, dtype=bool)
    hits = np.zeros(grid.cells.size, dtype=bool)
    for lo in range(0, len(order), PASS_BEAMS):
        part = order[lo : lo + PASS_BEAMS]
        cell, kept = _walk(grid, a[:, part], b[:, part])
        kept &= cell != start[part, None]
        free[cell[kept].astype(np.int64)] = True
        # a hit marks the last kept cell, and only when the hit point
        # itself lies in it; a beam clipped at the grid edge ends in
        # another cell
        last = kept.shape[1] - 1 - np.argmax(kept[:, ::-1], axis=1)
        beam = np.arange(len(part))
        last_cell = cell[beam, last]
        occupied = kept[beam, last] & hit[part] & (last_cell == end[part])
        hits[last_cell[occupied].astype(np.int64)] = True
    cells = grid.cells
    cells[free.reshape(cells.shape) & (cells != OCCUPIED)] = FREE
    cells[hits.reshape(cells.shape)] = OCCUPIED


def trace_many(
    grid: OccupancyGrid,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """`trace_cells` of many segments (x0[i], y0[i]) -> (x1[i], y1[i]) at
    once, each less the cell it starts in.

    Returns (cell, kept), two arrays with one row per segment: `cell`
    holds flat cell indices row * width + col (as floats) in traversal
    order, and the ones `kept` marks are the cells `trace_cells` reports,
    before it collapses consecutive duplicates, other than the start
    cell `world_to_cell` names.  The other entries are padding, off-grid
    cells or the start cell.
    """
    a = np.array([x0, y0], dtype=float) / grid.resolution
    b = np.array([x1, y1], dtype=float) / grid.resolution
    cell, kept = _walk(grid, a, b)
    # cells run monotonically away from the start along each segment, so
    # wherever the start cell is traced it is traced first
    kept &= cell != _flat_cell(grid, a)[:, None]
    return cell, kept


def _crossings(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, k0, n) of the grid-frame segments a -> b, rows x and y: the
    extent, each segment's first x- and y-gridline, and its count of
    crossings of them, 0 along an axis the segment is parallel to."""
    d = b - a
    k0 = np.ceil(np.minimum(a, b))
    n = np.floor(np.maximum(a, b)) - k0 + 1.0
    n[np.abs(d) <= 1e-15] = 0.0
    return d, k0, n


def _flat_cell(grid: OccupancyGrid, p: np.ndarray) -> np.ndarray:
    """Flat index of the cell under each grid-frame point, the cell
    `world_to_cell` names, or -1 off the grid, which no traced cell
    equals."""
    col, row = np.floor(p)
    on_grid = (0 <= col) & (col < grid.width) & (0 <= row) & (row < grid.height)
    return np.where(on_grid, row * grid.width + col, -1.0)


def _walk(grid: OccupancyGrid, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`trace_many` of the grid-frame segments a -> b, with the start
    cell kept: each segment's ends and x- and y-gridline crossing
    parameters (Amanatides & Woo) fill one row, the rows are sorted, and
    each interval longer than 1e-12 names the cell under its midpoint.  A
    row holds the crossings of the segment's major axis, the one it
    crosses more gridlines of, in one block and those of the other axis in
    a second; each block is padded to its longest run."""
    d, k0, n = _crossings(a, b)
    n_seg = a.shape[1]
    width, height = grid.width, grid.height
    # per segment, its ends and every gridline crossing parameter, each
    # block padded with 1.0; a gridline k between a and b gives
    # (k - a) / d in [0, 1] even after rounding, so the padding sorts
    # after every crossing and spans only empty intervals
    major = np.argmax(n, axis=0)
    block = (np.array([major, 1 - major]), np.arange(n_seg))
    ab, db, k0b, nb = a[block], d[block], k0[block], n[block]
    widths = nb.max(axis=1, initial=0.0).astype(np.int64)
    ts = np.empty((n_seg, 2 + int(widths.sum())))
    ts[:, 0] = 0.0
    ts[:, 1] = 1.0
    col = 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j, m in enumerate(widths):
            k = k0b[j, :, None] + np.arange(m)
            t = ts[:, col : col + m]
            np.divide(k - ab[j, :, None], db[j, :, None], out=t)
            np.copyto(t, 1.0, where=k >= (k0b[j] + nb[j])[:, None])
            col += m
    ts.sort(axis=1)

    # only the longest row of ends and crossings can hold a kept interval
    span = 1 + int((n[0] + n[1]).max(initial=0.0))
    lo, hi = ts[:, :span], ts[:, 1 : span + 1]
    tm = 0.5 * (lo + hi)
    cols = np.floor(a[0, :, None] + tm * d[0, :, None])
    rows = np.floor(a[1, :, None] + tm * d[1, :, None])
    kept = hi - lo > 1e-12
    kept &= (0 <= cols) & (cols < width) & (0 <= rows) & (rows < height)
    return rows * width + cols, kept


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


def _dilate(mask: np.ndarray) -> np.ndarray:
    for axis in (0, 1):
        mask = _window_count(mask, MORPH_SIZE // 2, axis) > 0
    return mask


def _erode(mask: np.ndarray) -> np.ndarray:
    for axis in (0, 1):
        mask = _window_count(mask, MORPH_SIZE // 2, axis) == MORPH_SIZE
    return mask


def close_occupied(mask: np.ndarray) -> np.ndarray:
    """Morphological closing (dilate, then erode) of a boolean mask by the
    MORPH_SIZE x MORPH_SIZE square.

    Out-of-array cells count as False for both passes, so erosion clears
    every cell within MORPH_SIZE // 2 of the array edge.  The square is
    the product of two 1-D windows, so each pass runs once per axis: a
    cell dilates to True when its window holds any True cell and erodes to
    True when its window holds MORPH_SIZE of them.
    """
    return _erode(_dilate(mask))


def open_occupied(mask: np.ndarray) -> np.ndarray:
    """Morphological opening (erode, then dilate) of a boolean mask, with
    the same square and out-of-array rule as `close_occupied`."""
    return _dilate(_erode(mask))


def morph_close_open(grid: OccupancyGrid) -> OccupancyGrid:
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
    kept = open_occupied(close_occupied(solid))
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
    header = f"GRIDMAP v1 {grid.width} {grid.height} {grid.resolution!r} 0.0 0.0 0.0\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(grid.cells.tobytes())


def load_map(path: str) -> OccupancyGrid:
    """Read a GRIDMAP v1 file.

    Raises:
        FormatError: on a bad magic string, malformed header fields, an
            origin other than 0.0 0.0 0.0, bad cell byte values, or a
            payload size mismatch.
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
        origin = [float(f) for f in fields[3:]]
    except ValueError:
        raise FormatError("non-numeric header fields", len(_MAGIC) + 1) from None
    if width <= 0 or height <= 0 or resolution <= 0.0:
        raise FormatError("non-positive dimensions or resolution", len(_MAGIC) + 1)
    if origin != [0.0, 0.0, 0.0]:
        raise FormatError("origin fields must be 0.0 0.0 0.0", len(_MAGIC) + 1)
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
    grid = OccupancyGrid(width, height, resolution)
    grid.cells = cells
    return grid

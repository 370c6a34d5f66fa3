import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from littersim import gridmap
from littersim.geometry import Pose2D
from littersim.gridmap import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    FormatError,
    OccupancyGrid,
    StructuringElement,
    close_occupied,
    inflate,
    integrate_scan,
    load_map,
    morph_close_open,
    open_occupied,
    save_map,
    trace_cells,
)


def brute_dilate(mask, k):
    """Set-based Minkowski dilation with a (2k+1)^2 square, bounds checked
    by hand.  Out-of-array counts as empty."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            out[max(0, r - k):min(h, r + k + 1), max(0, c - k):min(w, c + k + 1)] = True
    return out


def brute_erode(mask, k):
    h, w = mask.shape
    out = np.zeros_like(mask)
    for r in range(h):
        for c in range(w):
            ok = True
            for dr in range(-k, k + 1):
                for dc in range(-k, k + 1):
                    rr, cc = r + dr, c + dc
                    if rr < 0 or rr >= h or cc < 0 or cc >= w or not mask[rr, cc]:
                        ok = False
                        break
                if not ok:
                    break
            out[r, c] = ok
    return out


def grid_from(cells):
    arr = np.asarray(cells, dtype=np.uint8)
    g = OccupancyGrid(arr.shape[1], arr.shape[0], 0.05)
    g.cells = arr.copy()
    return g


def test_trace_cells_axis_aligned_and_diagonal():
    g = OccupancyGrid(10, 10, 1.0)
    # straight along +x through cell centers
    cells = trace_cells(g, 0.5, 0.5, 4.5, 0.5)
    assert cells == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    # perfect diagonal through corners: grazing neighbors are not collected
    cells = trace_cells(g, 0.0, 0.0, 3.0, 3.0)
    assert cells == [(0, 0), (1, 1), (2, 2)]


def _overlap_interval(x0, y0, x1, y1, col, row, res, inset=0.0):
    """Parameter interval [t0, t1] where the segment lies inside the closed
    rectangle of cell (col, row), shrunk by `inset` on every side, via slab
    clipping.  Empty -> t0 > t1."""
    t0, t1 = 0.0, 1.0
    dx, dy = x1 - x0, y1 - y0
    for p, q in ((-dx, x0 - (col * res + inset)), (dx, (col + 1) * res - inset - x0),
                 (-dy, y0 - (row * res + inset)), (dy, (row + 1) * res - inset - y0)):
        if p == 0.0:
            if q < 0.0:
                return 1.0, 0.0
            continue
        r = q / p
        if p < 0.0:
            t0 = max(t0, r)
        else:
            t1 = min(t1, r)
    return t0, t1


def test_trace_cells_matches_analytic_overlap():
    rng = np.random.default_rng(5)
    res = 0.1
    g = OccupancyGrid(30, 30, res)
    for _ in range(100):
        x0, y0, x1, y1 = rng.uniform(0.05, 2.95, size=4)
        got = trace_cells(g, x0, y0, x1, y1)
        assert len(got) == len(set(got))
        # every reported cell is genuinely crossed, and in traversal order
        mids = []
        for col, row in got:
            t0, t1 = _overlap_interval(x0, y0, x1, y1, col, row, res)
            assert t1 - t0 > 1e-13
            mids.append(0.5 * (t0 + t1))
        assert mids == sorted(mids)
        # every robustly crossed cell is reported (grazes may be dropped)
        lo_c = int(min(x0, x1) / res) - 1
        hi_c = int(max(x0, x1) / res) + 1
        lo_r = int(min(y0, y1) / res) - 1
        hi_r = int(max(y0, y1) / res) + 1
        for col in range(max(0, lo_c), min(30, hi_c + 1)):
            for row in range(max(0, lo_r), min(30, hi_r + 1)):
                t0, t1 = _overlap_interval(x0, y0, x1, y1, col, row, res)
                if t1 - t0 > 1e-9:
                    assert (col, row) in got


@st.composite
def _segment_case(draw):
    res = draw(st.sampled_from([0.05, 0.1, 0.25, 1.0]))
    width = draw(st.integers(1, 30))
    height = draw(st.integers(1, 30))

    def grid_coord(n):
        # on a gridline or corner, a hair off one, a cell center, or
        # anywhere in and around the grid (off it included), in cells
        return draw(st.one_of(
            st.integers(-2, n + 2).map(float),
            st.tuples(st.integers(0, n), st.floats(-1e-3, 1e-3)).map(sum),
            st.integers(0, n).map(lambda k: k + 0.5),
            st.floats(-0.5 * n, 1.5 * n),
        ))

    ends = []
    for _ in range(2):
        ends += [grid_coord(width) * res, grid_coord(height) * res]
    if draw(st.booleans()):
        ends[2:] = ends[:2]  # zero length
    return OccupancyGrid(width, height, res), tuple(ends)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_segment_case())
# x runs from 5.0 to 4.999999999999999, an extent under 1e-15 cells, so
# the segment is walked as if parallel to the y axis and its first three
# cells land in column 5, which only its start point t = 0 touches
@example((OccupancyGrid(10, 10, 1.0), (5.0, 0.0, 4.999999999999999, 5.0)))
def test_trace_cells_matches_brute_force_overlap(case):
    grid, (x0, y0, x1, y1) = case
    got = trace_cells(grid, x0, y0, x1, y1)
    res = grid.resolution
    # grid coordinates in cells
    ax, ay, bx, by = x0 / res, y0 / res, x1 / res, y1 / res
    assert len(got) == len(set(got))
    assert all(0 <= col < grid.width and 0 <= row < grid.height for col, row in got)
    length = math.hypot(bx - ax, by - ay)
    if length == 0.0:
        cell = (math.floor(ax), math.floor(ay))
        assert got == ([cell] if grid.world_to_cell(x0, y0) is not None else [])
        return
    # every reported cell is genuinely crossed, and in traversal order;
    # trace_cells walks a segment whose extent along an axis is a rounding
    # error (at most 1e-15 cells) as if it were zero, so such a segment's
    # cells need only come within 1e-9 of it
    scale = max(1.0, abs(ax), abs(ay), abs(bx), abs(by))
    along = min(abs(bx - ax), abs(by - ay)) <= 1e-12 * scale
    mids = []
    for col, row in got:
        t0, t1 = _overlap_interval(ax, ay, bx, by, col, row, 1.0, inset=-1e-9 if along else 0.0)
        assert t1 - t0 > 1e-13
        mids.append(0.5 * (t0 + t1))
    assert mids == sorted(mids)
    # every cell whose interior the segment crosses for more than a hair
    # is reported; corner and gridline grazes may be dropped
    cols = range(max(0, math.floor(min(ax, bx))), min(grid.width, math.floor(max(ax, bx)) + 1))
    rows = range(max(0, math.floor(min(ay, by))), min(grid.height, math.floor(max(ay, by)) + 1))
    for col in cols:
        for row in rows:
            t0, t1 = _overlap_interval(ax, ay, bx, by, col, row, 1.0, inset=1e-9)
            if (t1 - t0) * length > 1e-9:
                assert (col, row) in got


def fold_scan(grid, robot, scan, max_range):
    """`integrate_scan` of one scan given as (bearing, range, max_range)
    entries."""
    integrate_scan(
        grid,
        [(robot.x, robot.y, robot.theta)],
        [bearing for bearing, _, _ in scan],
        [[rng for _, rng, _ in scan]],
        max_range,
    )


def test_integrate_scan_worked_example():
    # range 1.0 at resolution 0.05: 19 Free cells then 1 Occupied
    g = OccupancyGrid(40, 40, 0.05)
    robot = Pose2D(0.025, 0.025, 0.0)
    integrate_scan(g, [(robot.x, robot.y, robot.theta)], [0.0], [[1.0]], 3.5)
    row = g.cells[0]
    assert (row[1:20] == FREE).all()
    assert row[20] == OCCUPIED
    assert row[0] == UNKNOWN  # robot's own cell untouched
    assert (row[21:] == UNKNOWN).all()


def test_integrate_scan_max_range_marks_free_only():
    g = OccupancyGrid(40, 40, 0.05)
    robot = Pose2D(0.025, 0.025, 0.0)
    integrate_scan(g, [(robot.x, robot.y, robot.theta)], [0.0], [[1.0]], 1.0)
    row = g.cells[0]
    assert (row[1:21] == FREE).all()
    assert not (row == OCCUPIED).any()


def test_integrate_scan_never_demotes_occupied():
    g = OccupancyGrid(40, 40, 0.05)
    robot = Pose2D(0.025, 0.025, 0.0)
    integrate_scan(g, [(robot.x, robot.y, robot.theta)], [0.0], [[0.5]], 3.5)
    hit = g.cells[0, 10]
    assert hit == OCCUPIED
    # a longer ray through the same cell leaves the hit in place
    integrate_scan(g, [(robot.x, robot.y, robot.theta)], [0.0], [[1.5]], 3.5)
    assert g.cells[0, 10] == OCCUPIED


def integrate_scan_per_beam(grid, robot, scan):
    """Reference scan integration: one `trace_cells` walk and one cell
    write at a time, beam after beam."""
    for bearing, rng, max_range in scan:
        hit = rng < max_range
        reach = min(rng, max_range)
        ang = robot.theta + bearing
        ex = robot.x + reach * math.cos(ang)
        ey = robot.y + reach * math.sin(ang)
        cells = trace_cells(grid, robot.x, robot.y, ex, ey)
        if cells and cells[0] == grid.world_to_cell(robot.x, robot.y):
            cells = cells[1:]
        if not cells:
            continue
        free_cells = cells
        if hit and grid.world_to_cell(ex, ey) == cells[-1]:
            free_cells = cells[:-1]
            grid.cells[cells[-1][1], cells[-1][0]] = OCCUPIED
        for col, row in free_cells:
            if grid.cells[row, col] != OCCUPIED:
                grid.cells[row, col] = FREE


_QUARTERS = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi])
_ANGLES = st.one_of(
    _QUARTERS,
    st.just(math.pi / 4),
    # a hair off the grid axes: crossings of nearly parallel gridlines
    st.tuples(_QUARTERS, st.floats(-1e-4, 1e-4)).map(sum),
    st.floats(-math.pi, math.pi),
)


def _draw_grid(draw):
    res = draw(st.sampled_from([0.05, 0.1, 0.25, 1.0]))
    width = draw(st.integers(1, 30))
    height = draw(st.integers(1, 30))
    grid = OccupancyGrid(width, height, res)
    fill = draw(st.sampled_from(["unknown", "mixed", "occupied", "free"]))
    if fill == "mixed":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        grid.cells = rng.choice(
            np.array([FREE, OCCUPIED, UNKNOWN], dtype=np.uint8), size=(height, width)
        )
    elif fill != "unknown":
        grid.cells[:] = OCCUPIED if fill == "occupied" else FREE
    return grid


def _draw_pose(draw, grid):
    """A robot pose on a gridline or corner, near one, at a cell center,
    or anywhere in and around the grid."""
    res = grid.resolution

    def grid_coord(n):
        # on a gridline or corner, a hair off one, a cell center, or
        # anywhere in and around the grid (off it included)
        return draw(st.one_of(
            st.integers(-2, n + 2).map(float),
            st.tuples(st.integers(0, n), st.floats(-1e-3, 1e-3)).map(sum),
            st.integers(0, n).map(lambda k: k + 0.5),
            st.floats(-0.5 * n, 1.5 * n),
        )) * res

    return Pose2D(grid_coord(grid.width), grid_coord(grid.height), draw(_ANGLES))


def _beams(max_range, res):
    return st.tuples(
        _ANGLES,
        st.one_of(
            st.just(0.0),
            st.just(max_range),
            st.floats(0.0, 2.0 * max_range),
            st.integers(0, 12).map(lambda k: k * res),
        ),
        st.just(max_range),
    )


@st.composite
def _scan_case(draw):
    grid = _draw_grid(draw)
    robot = _draw_pose(draw, grid)
    max_range = draw(st.sampled_from([1.0, 3.5, 3.0 * grid.resolution]))
    beams = draw(st.lists(_beams(max_range, grid.resolution), max_size=40))
    return grid, robot, beams, max_range


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scan_case())
# a beam 1e-4 rad off the +y axis, starting 5e-4 cells left of the x = 10
# gridline, crosses it a twelfth of the way along: the short stretch on
# either side of the crossing is a cell of its own
@example((
    OccupancyGrid(40, 80, 0.05),
    Pose2D((10 - 5e-4) * 0.05, 0.025, math.pi / 2 - 1e-4),
    [(0.0, 3.0, 3.5)],
    3.5,
))
def test_integrate_scan_equals_per_beam_reference(case):
    grid, robot, scan, max_range = case
    grid = grid.copy()
    expected = grid.copy()
    integrate_scan_per_beam(expected, robot, scan)
    fold_scan(grid, robot, scan, max_range)
    assert np.array_equal(grid.cells, expected.cells)


_PASS = gridmap.PASS_BEAMS


@st.composite
def _fold_case(draw, total):
    """A grid and N scans of B beams each, N x B = `total` beams in all (a
    small drawn total when None): N poses as (x, y, theta) rows, the B
    shared bearings, the N x B ranges, and the max range.  N is a drawn
    divisor of the total, so one scan may hold every beam or one beam;
    with no beams, N or B is 0."""
    grid = _draw_grid(draw)
    max_range = draw(st.sampled_from([1.0, 3.5, 3.0 * grid.resolution]))
    if total is None:
        total = draw(st.integers(0, 40))
    if total:
        n_scans = draw(st.sampled_from([m for m in range(1, total + 1) if total % m == 0]))
        n_beams = total // n_scans
    else:
        n_scans, n_beams = draw(st.sampled_from([(0, 0), (0, 5), (3, 0)]))
    # drawn edge-case poses and beams mixed with seeded random ones, so
    # long lists stay cheap to draw
    pose_pool = [_draw_pose(draw, grid) for _ in range(draw(st.integers(1, 4)))]
    beam_pool = draw(st.lists(_beams(max_range, grid.resolution), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = max(grid.width, grid.height) * grid.resolution

    def pick(pool, random):
        return pool[rng.integers(len(pool))] if rng.random() < 0.5 else random()

    poses = np.array([
        (p.x, p.y, p.theta) for p in (
            pick(pose_pool, lambda: Pose2D(
                float(rng.uniform(-0.5, 1.5)) * size,
                float(rng.uniform(-0.5, 1.5)) * size,
                float(rng.uniform(-math.pi, math.pi)),
            ))
            for _ in range(n_scans)
        )
    ]).reshape(n_scans, 3)
    bearings = np.array([
        pick(beam_pool, lambda: (float(rng.uniform(-math.pi, math.pi)),))[0]
        for _ in range(n_beams)
    ])
    ranges = np.array([
        pick(beam_pool, lambda: (0.0, float(rng.uniform(0.0, 2.0 * max_range))))[1]
        for _ in range(n_scans * n_beams)
    ]).reshape(n_scans, n_beams)
    return grid, poses, bearings, ranges, max_range


@pytest.mark.parametrize(
    "total",
    [None, 0, _PASS - 1, _PASS, _PASS + 1, 3 * _PASS],
    ids=["small", "zero", "pass-1", "pass", "pass+1", "3pass"],
)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_integrate_scan_folds_a_sequence_like_one_scan_at_a_time(total, data):
    grid, poses, bearings, ranges, max_range = data.draw(_fold_case(total))
    folded = grid.copy()
    integrate_scan(folded, poses, bearings, ranges, max_range)
    for order in (range(len(poses)), range(len(poses))[::-1]):
        one_at_a_time = grid.copy()
        for i in order:
            integrate_scan(one_at_a_time, poses[i : i + 1], bearings, ranges[i : i + 1], max_range)
        assert np.array_equal(folded.cells, one_at_a_time.cells)
    expected = grid.copy()
    for (x, y, theta), row in zip(poses, ranges):
        scan = [(b, r, max_range) for b, r in zip(bearings.tolist(), row.tolist())]
        integrate_scan_per_beam(expected, Pose2D(x, y, theta), scan)
    assert np.array_equal(folded.cells, expected.cells)


def test_morphology_stages_match_brute_force():
    rng = np.random.default_rng(11)
    se = StructuringElement(3)
    for _ in range(25):
        mask = rng.uniform(size=(20, 20)) < 0.3
        assert (close_occupied(mask, se) == brute_erode(brute_dilate(mask, 1), 1)).all()
        assert (open_occupied(mask, se) == brute_dilate(brute_erode(mask, 1), 1)).all()


def test_morphology_stage_idempotence():
    rng = np.random.default_rng(13)
    se = StructuringElement(3)
    for _ in range(25):
        mask = rng.uniform(size=(24, 24)) < 0.35
        closed = close_occupied(mask, se)
        assert (close_occupied(closed, se) == closed).all()
        opened = open_occupied(mask, se)
        assert (open_occupied(opened, se) == opened).all()


def test_morph_close_open_unknown_semantics():
    # an obstacle face one cell thick, backed by the unknown interior of the
    # obstacle, survives the opening stage; an isolated speckle dies
    cells = np.full((15, 15), FREE, dtype=np.uint8)
    cells[4:11, 4:11] = UNKNOWN  # unscanned interior
    cells[4, 4:11] = OCCUPIED  # scanned faces
    cells[10, 4:11] = OCCUPIED
    cells[4:11, 4] = OCCUPIED
    cells[4:11, 10] = OCCUPIED
    cells[1, 1] = OCCUPIED  # lone speck in the open
    g = grid_from(cells)
    out = morph_close_open(g)
    assert (out.cells[4, 4:11] == OCCUPIED).all()
    assert (out.cells[10, 4:11] == OCCUPIED).all()
    assert (out.cells[4:11, 4] == OCCUPIED).all()
    assert (out.cells[4:11, 10] == OCCUPIED).all()
    # interior stays unknown where the transform kept it
    assert (out.cells[5:10, 5:10] == UNKNOWN).all()
    assert out.cells[1, 1] == FREE
    # every other cell is free
    assert (out.cells[12:, :] == FREE).all()
    assert (out.cells[:, 12:] == FREE).all()
    # input grid untouched
    assert g.cells[1, 1] == OCCUPIED


def test_morph_close_open_edge_band_erodes():
    # erosion treats out-of-array as empty, so solid mass flush against the
    # grid border loses its outermost ring and a thin band there washes out
    cells = np.full((9, 9), FREE, dtype=np.uint8)
    cells[:, 6] = OCCUPIED
    cells[:, 7:] = UNKNOWN
    g = grid_from(cells)
    out = morph_close_open(g)
    assert (out.cells == FREE).all()


def test_inflate_disc_oracle():
    cells = np.full((21, 21), FREE, dtype=np.uint8)
    cells[10, 10] = OCCUPIED
    cells[0, 0] = UNKNOWN
    g = grid_from(cells)
    out = inflate(g, 0.2)  # 4 cells at 0.05 resolution
    for r in range(21):
        for c in range(21):
            d = math.hypot(r - 10, c - 10)
            if (r, c) == (0, 0):
                assert out.cells[r, c] == UNKNOWN
            elif d <= 4.0 + 1e-9:
                assert out.cells[r, c] == OCCUPIED
            else:
                assert out.cells[r, c] == FREE


def test_inflate_zero_radius_is_copy():
    cells = np.full((5, 5), FREE, dtype=np.uint8)
    cells[2, 2] = OCCUPIED
    g = grid_from(cells)
    out = inflate(g, 0.0)
    assert out == g and out is not g
    with pytest.raises(ValueError):
        inflate(g, -0.1)


def ndimage_close(mask, size):
    """Closing as `close_occupied` computed it with scipy.ndimage."""
    fp = np.ones((size, size), dtype=bool)
    return ndimage.binary_erosion(ndimage.binary_dilation(mask, fp), fp)


def ndimage_open(mask, size):
    fp = np.ones((size, size), dtype=bool)
    return ndimage.binary_dilation(ndimage.binary_erosion(mask, fp), fp)


def ndimage_inflate(grid, radius):
    """Inflation as `inflate` computed it with a Euclidean distance
    transform."""
    out = grid.copy()
    if radius > 0.0 and (grid.cells == OCCUPIED).any():
        dist = ndimage.distance_transform_edt(grid.cells != OCCUPIED)
        within = dist <= (radius / grid.resolution) + 1e-9
        out.cells[within & (grid.cells == FREE)] = OCCUPIED
    return out


# 1x1, 1xN, Nx1 and larger arrays
_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 25)),
    st.tuples(st.integers(1, 25), st.just(1)),
    st.tuples(st.integers(1, 25), st.integers(1, 25)),
)


@st.composite
def _mask(draw):
    shape = draw(_SHAPES)
    fill = draw(st.sampled_from(["random", "all_true", "all_false"]))
    if fill != "random":
        return np.full(shape, fill == "all_true")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < draw(st.sampled_from([0.1, 0.5, 0.9]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mask(), st.sampled_from([1, 3, 5, 7]))
def test_morphology_equals_ndimage_reference(mask, size):
    se = StructuringElement(size)
    assert np.array_equal(close_occupied(mask, se), ndimage_close(mask, size))
    assert np.array_equal(open_occupied(mask, se), ndimage_open(mask, size))


def _bound_on_ring(n, res):
    """A radius whose inflation bound, radius / res + 1e-9, is exactly
    math.sqrt(n), the distance of a ring of cells, or None."""
    ring = math.sqrt(n)
    for k in (ring - 1e-9, math.nextafter(ring - 1e-9, 0.0), math.nextafter(ring - 1e-9, 9.0)):
        if (k * res / res) + 1e-9 == ring:
            return k * res
    return None


@st.composite
def _inflate_case(draw):
    shape = draw(_SHAPES)
    res = draw(st.sampled_from([0.05, 0.07, 0.1, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.choice(
        np.array([FREE, OCCUPIED, UNKNOWN], dtype=np.uint8),
        size=shape,
        p=draw(st.sampled_from([(0.8, 0.1, 0.1), (0.97, 0.03, 0.0), (0.5, 0.3, 0.2)])),
    )
    grid = grid_from(cells)
    grid.resolution = res
    diagonal = res * math.hypot(*shape)
    radius = draw(st.one_of(
        st.just(0.0),
        # the rings of cells at offsets (1, 0), (1, 1), (2, 0) and (2, 1)
        st.sampled_from([res, res * math.sqrt(2), 2 * res, res * math.sqrt(5)]),
        # a hair inside and outside a ring
        st.sampled_from([1, math.sqrt(2), 2, math.sqrt(5), 3, math.sqrt(13)]).flatmap(
            lambda k: st.sampled_from([k * res * (1 - 1e-12), k * res * (1 + 1e-12)])
        ),
        # the bound itself on a ring: cells there are within
        st.sampled_from([1, 2, 4, 5, 8, 9, 13])
        .map(lambda n: _bound_on_ring(n, res))
        .filter(lambda r: r is not None),
        st.floats(0.0, 8 * res),
        # past the grid's diagonal: every Free cell in reach
        st.floats(diagonal, 10 * diagonal),
    ))
    return grid, radius


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_inflate_case())
def test_inflate_equals_distance_transform_reference(case):
    grid, radius = case
    out = inflate(grid, radius)
    assert np.array_equal(out.cells, ndimage_inflate(grid, radius).cells)
    assert out is not grid


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    g = OccupancyGrid(33, 21, 0.05)
    g.cells = rng.choice(
        np.array([FREE, OCCUPIED, UNKNOWN], dtype=np.uint8), size=(21, 33)
    )
    path = tmp_path / "m.grid"
    save_map(g, str(path))
    # the origin fields are always the map frame's origin
    assert path.read_bytes() == b"GRIDMAP v1 33 21 0.05 0.0 0.0 0.0\n" + g.cells.tobytes()
    back = load_map(str(path))
    assert back == g
    # byte-stable: saving the loaded grid reproduces the file exactly
    path2 = tmp_path / "m2.grid"
    save_map(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "origin", ["0.25 0.0 0.0", "0.0 0.25 0.0", "0.0 0.0 0.25"],
    ids=["origin_x", "origin_y", "origin_theta"],
)
def test_load_map_rejects_a_nonzero_origin(tmp_path, origin):
    p = tmp_path / "m.grid"
    p.write_bytes(f"GRIDMAP v1 2 1 0.05 {origin}\n".encode() + bytes([FREE, FREE]))
    with pytest.raises(FormatError, match="origin") as err:
        load_map(str(p))
    # the offset of the header fields, as for every other header error
    assert err.value.offset == len(b"GRIDMAP v1 ")


def test_load_map_format_errors(tmp_path):
    p = tmp_path / "bad.grid"
    p.write_bytes(b"NOTAMAP v9 1 1 0.05 0 0 0\n\x00")
    with pytest.raises(FormatError):
        load_map(str(p))
    p.write_bytes(b"GRIDMAP v1 2 2 0.05 0 0 0\n\x00\x00\x00")  # payload short
    with pytest.raises(FormatError):
        load_map(str(p))
    p.write_bytes(b"GRIDMAP v1 2 2 0.05 0 0 0\n" + bytes([FREE, OCCUPIED, UNKNOWN, 99]))
    with pytest.raises(FormatError):
        load_map(str(p))


def test_structuring_element_validation():
    with pytest.raises(ValueError):
        StructuringElement(2)
    with pytest.raises(ValueError):
        StructuringElement(-1)

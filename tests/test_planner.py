import heapq
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from littersim.geometry import GroundPoint, Pose2D
from littersim import planner
from littersim.gridmap import FREE, OCCUPIED, UNKNOWN, OccupancyGrid
from reference_walk import trace_cells
from littersim.planner import (
    COST_TIE,
    CostField,
    NavGoal,
    StartOccupied,
    approach_goal,
    astar,
    order_waypoints,
)

SQRT2 = math.sqrt(2.0)


def grid_from(cells, resolution=0.1):
    arr = np.asarray(cells, dtype=np.uint8)
    g = OccupancyGrid(arr.shape[1], arr.shape[0], resolution)
    g.cells = arr.copy()
    return g


def random_grid(rng, w=15, h=15, p_occ=0.25, resolution=0.1):
    cells = np.where(rng.random((h, w)) < p_occ, OCCUPIED, FREE).astype(np.uint8)
    return grid_from(cells, resolution)


def dijkstra_costs(grid, start_cell):
    """Plain heap Dijkstra over the free 8-connected graph, written without
    reference to the planner internals."""
    W, H = grid.width, grid.height
    res = grid.resolution
    dist = {start_cell: 0.0}
    heap = [(0.0, start_cell)]
    done = set()
    while heap:
        d, cell = heapq.heappop(heap)
        if cell in done:
            continue
        done.add(cell)
        col, row = cell
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                if dc == 0 and dr == 0:
                    continue
                nc, nr = col + dc, row + dr
                if not (0 <= nc < W and 0 <= nr < H):
                    continue
                if grid.cells[nr, nc] != FREE:
                    continue
                step = res * (SQRT2 if dc != 0 and dr != 0 else 1.0)
                nd = d + step
                if nd < dist.get((nc, nr), math.inf) - 1e-15:
                    dist[(nc, nr)] = nd
                    heapq.heappush(heap, (nd, (nc, nr)))
    return dist


def free_cells(grid):
    rows, cols = np.nonzero(grid.cells == FREE)
    return list(zip(cols.tolist(), rows.tolist()))


def test_astar_cost_matches_dijkstra_on_random_grids():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_grid(rng)
        cells = free_cells(g)
        if len(cells) < 2:
            continue
        start = cells[rng.integers(len(cells))]
        ref = dijkstra_costs(g, start)
        sx, sy = g.cell_center(*start)
        for _ in range(10):
            goal = cells[rng.integers(len(cells))]
            gx, gy = g.cell_center(*goal)
            plan = astar(g, GroundPoint(sx, sy), GroundPoint(gx, gy))
            if goal in ref:
                assert plan is not None
                assert abs(plan.cost - ref[goal]) < 1e-9
            else:
                assert plan is None


def test_astar_paths_are_adjacent_and_obstacle_free():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_grid(rng)
        cells = free_cells(g)
        start = cells[rng.integers(len(cells))]
        goal = cells[rng.integers(len(cells))]
        sx, sy = g.cell_center(*start)
        gx, gy = g.cell_center(*goal)
        plan = astar(g, GroundPoint(sx, sy), GroundPoint(gx, gy))
        if plan is None:
            continue
        wp = plan.waypoints
        assert (wp[0].x, wp[0].y) == pytest.approx((sx, sy))
        assert (wp[-1].x, wp[-1].y) == pytest.approx((gx, gy))
        total = 0.0
        prev = None
        for p in wp:
            cell = g.world_to_cell(p.x, p.y)
            assert cell is not None
            assert g.cells[cell[1], cell[0]] == FREE
            cx, cy = g.cell_center(*cell)
            assert (p.x, p.y) == pytest.approx((cx, cy))
            if prev is not None:
                dc = cell[0] - prev[0]
                dr = cell[1] - prev[1]
                assert max(abs(dc), abs(dr)) == 1
                total += g.resolution * (SQRT2 if dc != 0 and dr != 0 else 1.0)
            prev = cell
        assert abs(total - plan.cost) < 1e-9


def test_astar_trivial_and_blocked_cases():
    cells = np.full((5, 5), FREE, dtype=np.uint8)
    cells[2, 2] = OCCUPIED
    g = grid_from(cells)
    # start == goal
    plan = astar(g, GroundPoint(0.05, 0.05), GroundPoint(0.05, 0.05))
    assert plan is not None
    assert plan.cost == 0.0
    assert len(plan.waypoints) == 1
    # goal cell blocked
    assert astar(g, GroundPoint(0.05, 0.05), GroundPoint(0.25, 0.25)) is None
    # goal off the grid
    assert astar(g, GroundPoint(0.05, 0.05), GroundPoint(9.0, 9.0)) is None
    # start blocked or off-grid raises
    with pytest.raises(StartOccupied):
        astar(g, GroundPoint(0.25, 0.25), GroundPoint(0.05, 0.05))
    with pytest.raises(StartOccupied):
        astar(g, GroundPoint(-1.0, 0.05), GroundPoint(0.05, 0.05))


def test_astar_goal_walled_off_returns_none():
    cells = np.full((9, 9), FREE, dtype=np.uint8)
    cells[3:6, 3] = OCCUPIED
    cells[3:6, 5] = OCCUPIED
    cells[3, 3:6] = OCCUPIED
    cells[5, 3:6] = OCCUPIED
    g = grid_from(cells)
    gx, gy = g.cell_center(4, 4)
    assert astar(g, GroundPoint(0.05, 0.05), GroundPoint(gx, gy)) is None


def test_cost_field_agrees_with_dijkstra_and_astar():
    rng = np.random.default_rng(13)
    g = random_grid(rng, w=12, h=10)
    cells = free_cells(g)
    start = cells[0]
    sx, sy = g.cell_center(*start)
    field = CostField(g).field(GroundPoint(sx, sy))
    assert field.shape == (g.height, g.width)
    ref = dijkstra_costs(g, start)
    for col, row in cells:
        expect = ref.get((col, row), math.inf)
        if math.isinf(expect):
            assert math.isinf(field[row, col])
        else:
            assert abs(field[row, col] - expect) < 1e-9
    # non-free cells are unreachable by definition
    occ = np.nonzero(g.cells != FREE)
    assert np.isinf(field[occ]).all()
    with pytest.raises(StartOccupied):
        occ_cell = (int(occ[1][0]), int(occ[0][0]))
        CostField(g).field(GroundPoint(*g.cell_center(*occ_cell)))


def test_cost_field_limit_keeps_costs_bit_for_bit():
    rng = np.random.default_rng(16)
    for _ in range(20):
        g = random_grid(rng, w=30, h=25, p_occ=0.2)
        cells = free_cells(g)
        start = GroundPoint(*g.cell_center(*cells[rng.integers(len(cells))]))
        cf = CostField(g)
        full = cf.field(start)
        finite = np.sort(full[np.isfinite(full)])
        # zero, exact costs (a cell right at the limit stays in), in between
        for limit in (0.0, finite[len(finite) // 2], finite[-1], rng.uniform(0.0, 2.0)):
            bounded = cf.field(start, float(limit))
            within = full <= limit
            assert bounded[within].tobytes() == full[within].tobytes()
            assert np.isinf(bounded[~within]).all()


def coo_cost_graph(grid):
    """The cost graph as CostField built it before it wrote CSR directly:
    one COO triple list per neighbour offset, converted by scipy."""
    W, H = grid.width, grid.height
    free = (grid.cells == FREE).ravel()
    idx = np.arange(W * H)
    cgrid = idx % W
    rgrid = idx // W
    rows, cols, data = [], [], []
    for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        step = SQRT2 if dc and dr else 1.0
        nc = cgrid + dc
        nr = rgrid + dr
        ok = (nc >= 0) & (nc < W) & (nr >= 0) & (nr < H)
        nidx = nr * W + nc
        ok &= free & free[np.where(ok, nidx, 0)]
        rows.append(idx[ok])
        cols.append(nidx[ok])
        data.append(np.full(int(ok.sum()), step * grid.resolution))
    n = W * H
    return csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


_GRID_FILLS = [
    ((1, 1), "free"),
    ((1, 17), "free"),
    ((17, 1), "mixed"),
    ((1, 17), "mixed"),
    ((9, 12), "occupied"),
    ((9, 12), "free"),
    ((9, 12), "unknown"),
    ((40, 30), "mixed"),
    ((3, 200), "mixed"),
]


def filled_grid(shape, fill):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    if fill == "mixed":
        cells = rng.choice(np.array([FREE, FREE, OCCUPIED, UNKNOWN], dtype=np.uint8), size=shape)
    elif fill == "checker":  # Free cells that touch only at corners
        rows, cols = np.indices(shape)
        cells = np.where((rows + cols) % 2 == 0, FREE, OCCUPIED).astype(np.uint8)
    elif fill == "sparse":  # many small components
        cells = np.where(rng.random(shape) < 0.6, OCCUPIED, FREE).astype(np.uint8)
    else:
        value = {"free": FREE, "occupied": OCCUPIED, "unknown": UNKNOWN}[fill]
        cells = np.full(shape, value, dtype=np.uint8)
    return grid_from(cells, resolution=0.07)


@pytest.mark.parametrize("shape,fill", _GRID_FILLS)
def test_cost_field_csr_equals_coo_reference(shape, fill):
    g = filled_grid(shape, fill)
    got = CostField(g)._graph
    want = coo_cost_graph(g)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.indices.dtype == np.int32


@pytest.mark.parametrize(
    "shape,fill", _GRID_FILLS + [((7, 9), "checker"), ((30, 40), "sparse")]
)
def test_cost_field_labels_are_the_graph_components(shape, fill):
    # label every Free cell by the reachable mask of the first unlabelled
    # Free cell in row-major order; the labelling must be the graph's
    # partition of the Free cells, and reach no non-Free cell
    g = filled_grid(shape, fill)
    cf = CostField(g)
    free = g.cells == FREE
    labels = np.zeros(g.cells.shape, dtype=np.int64)
    for row, col in zip(*np.nonzero(free)):
        if labels[row, col]:
            continue
        mask = cf.reachable(GroundPoint(*g.cell_center(col, row)))
        assert not (mask & ~free).any()
        assert not labels[mask].any()  # components never overlap
        labels[mask] = labels.max() + 1
    assert (labels[~free] == 0).all()
    _, comp = connected_components(cf._graph, directed=False)
    got, want = labels[free], comp.reshape(g.cells.shape)[free]
    assert (got > 0).all()
    # the same partition of the Free cells: the label pairs match one to one
    pairs = set(zip(got.tolist(), want.tolist()))
    assert len(pairs) == len(set(got.tolist())) == len(set(want.tolist()))


@pytest.mark.parametrize(
    "shape,fill", _GRID_FILLS + [((7, 9), "checker"), ((30, 40), "sparse")]
)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cost_field_reachable_is_the_start_component(shape, fill, data):
    g = filled_grid(shape, fill)
    cf = CostField(g)
    row = data.draw(st.integers(0, g.height - 1))
    col = data.draw(st.integers(0, g.width - 1))
    start = GroundPoint(*g.cell_center(col, row))
    if g.cells[row, col] != FREE:
        with pytest.raises(StartOccupied):
            cf.reachable(start)
        return
    # non-Free cells are isolated nodes, so only Free cells share the
    # start's component
    _, comp = connected_components(cf._graph, directed=False)
    want = (comp == comp[row * g.width + col]).reshape(g.cells.shape)
    assert np.array_equal(cf.reachable(start), want)


def order_oracle(grid, start, points):
    """Greedy nearest-first by path cost, ties toward earlier input order,
    unreachable appended last keeping input order."""
    remaining = list(enumerate(points))
    cur = grid.world_to_cell(start.x, start.y)
    ordered = []
    while remaining:
        dist = dijkstra_costs(grid, cur)
        best_j = -1
        best_cost = math.inf
        for j, (_, p) in enumerate(remaining):
            cell = grid.world_to_cell(p.x, p.y)
            c = dist.get(cell, math.inf) if cell is not None else math.inf
            if c < best_cost - 1e-9:
                best_cost = c
                best_j = j
        if best_j < 0:
            break
        _, chosen = remaining.pop(best_j)
        ordered.append((chosen, True))
        cur = grid.world_to_cell(chosen.x, chosen.y)
    ordered.extend((p, False) for _, p in remaining)
    return ordered


def test_order_waypoints_matches_greedy_oracle():
    rng = np.random.default_rng(14)
    for _ in range(15):
        g = random_grid(rng, w=14, h=14, p_occ=0.2)
        cells = free_cells(g)
        start_cell = cells[rng.integers(len(cells))]
        start = GroundPoint(*g.cell_center(*start_cell))
        picks = rng.choice(len(cells), size=5, replace=False)
        points = [GroundPoint(*g.cell_center(*cells[i])) for i in picks]
        got = order_waypoints(start, points, g)
        shared = order_waypoints(start, points, g, cost_field=CostField(g))
        want = order_oracle(g, start, points)
        assert len(got) == len(points)
        assert [(p.x, p.y, f) for p, f in got] == [(p.x, p.y, f) for p, f in want]
        assert shared == got


def test_order_waypoints_unreachable_flagged_last_in_input_order():
    cells = np.full((9, 9), FREE, dtype=np.uint8)
    cells[0:3, 5] = OCCUPIED  # wall sealing the top-right pocket
    cells[2, 5:9] = OCCUPIED
    g = grid_from(cells)
    start = GroundPoint(*g.cell_center(0, 0))
    sealed_a = GroundPoint(*g.cell_center(7, 0))
    sealed_b = GroundPoint(*g.cell_center(8, 1))
    open_c = GroundPoint(*g.cell_center(4, 8))
    out = order_waypoints(start, [sealed_a, open_c, sealed_b], g)
    assert [(p.x, p.y) for p, _ in out] == [
        (open_c.x, open_c.y),
        (sealed_a.x, sealed_a.y),
        (sealed_b.x, sealed_b.y),
    ]
    assert [f for _, f in out] == [True, False, False]


def test_order_waypoints_tie_goes_to_earlier_input():
    g = grid_from(np.full((9, 9), FREE, dtype=np.uint8))
    start = GroundPoint(*g.cell_center(4, 4))
    left = GroundPoint(*g.cell_center(1, 4))
    right = GroundPoint(*g.cell_center(7, 4))  # same cost, listed second
    out = order_waypoints(start, [right, left], g)
    assert (out[0][0].x, out[0][0].y) == (right.x, right.y)
    out = order_waypoints(start, [left, right], g)
    assert (out[0][0].x, out[0][0].y) == (left.x, left.y)


def test_order_waypoints_empty_input():
    g = grid_from(np.full((5, 5), FREE, dtype=np.uint8))
    assert order_waypoints(GroundPoint(0.05, 0.05), [], g) == []


def full_search_order_waypoints(start, trash, grid):
    """order_waypoints as it was before its bounded searches: an unbounded
    cost field from every stop, every remaining point scanned in input
    order, and the tour ends when no remaining point has a finite cost."""
    cf = CostField(grid)
    remaining = list(enumerate(trash))
    current = start
    ordered = []
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


@st.composite
def _tour_case(draw):
    res = draw(st.sampled_from([0.05, 0.1, 0.25, 0.3]))
    width = draw(st.integers(1, 24))
    height = draw(st.integers(1, 24))
    grid = OccupancyGrid(width, height, res)
    grid.cells[:] = FREE
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.0, 0.05, 0.15, 0.3, 0.5]))
    solid = np.where(rng.random((height, width)) < 0.5, OCCUPIED, UNKNOWN)
    blocked = rng.random((height, width)) < density
    grid.cells[blocked] = solid[blocked]
    for _ in range(draw(st.integers(0, 2))):
        # a sealed pocket: a one-cell ring of Occupied cells
        col = draw(st.integers(0, width - 1))
        row = draw(st.integers(0, height - 1))
        half = draw(st.integers(1, 3))
        c0, c1 = max(col - half, 0), min(col + half, width - 1)
        r0, r1 = max(row - half, 0), min(row + half, height - 1)
        grid.cells[r0 : r1 + 1, [c0, c1]] = OCCUPIED
        grid.cells[[r0, r1], c0 : c1 + 1] = OCCUPIED
    if draw(st.booleans()):
        # a checkerboard band whose Free cells touch only at corners
        r0 = draw(st.integers(0, height - 1))
        r1 = draw(st.integers(r0, height - 1))
        rows, cols = np.indices((r1 + 1 - r0, width))
        band = grid.cells[r0 : r1 + 1]
        band[(rows + r0 + cols) % 2 == 1] = OCCUPIED
    free = np.flatnonzero(grid.cells.ravel() == FREE)
    assume(len(free) > 0)
    start_cell = divmod(int(free[draw(st.integers(0, len(free) - 1))]), width)[::-1]

    def to_world(gx, gy):
        # grid coordinates in cells to the map frame
        return GroundPoint(gx * res, gy * res)

    def in_cell(cell):
        # the cell center, or anywhere well inside the cell
        fx, fy = draw(st.one_of(
            st.just((0.5, 0.5)), st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9))
        ))
        return to_world(cell[0] + fx, cell[1] + fy)

    start = in_cell(start_cell)
    cells = []
    points = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["cell", "cell", "free", "start", "dup", "mirror", "any"]))
        if kind == "cell":  # Free, Occupied or Unknown
            cell = (draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
        elif kind == "free":
            cell = divmod(int(free[draw(st.integers(0, len(free) - 1))]), width)[::-1]
        elif kind == "start":
            cell = start_cell
        elif kind == "dup" and points:
            points.append(points[draw(st.integers(0, len(points) - 1))])
            continue
        elif kind == "mirror" and cells:
            # the same octile distance from the start: often a cost tie
            other = cells[draw(st.integers(0, len(cells) - 1))]
            dc, dr = other[0] - start_cell[0], other[1] - start_cell[1]
            dc, dr = draw(st.sampled_from([(-dc, dr), (dc, -dr), (-dc, -dr), (dr, dc)]))
            cell = (start_cell[0] + dc, start_cell[1] + dr)
        else:  # anywhere in or around the grid, off it included
            points.append(to_world(
                draw(st.floats(-0.3 * width, 1.3 * width)),
                draw(st.floats(-0.3 * height, 1.3 * height)),
            ))
            continue
        cells.append(cell)
        points.append(in_cell(cell))
    if draw(st.booleans()):
        points.reverse()
    # the first, bounded cost search: a zero margin often cuts through
    # the cheapest point's tie group and forces the unbounded retry
    margin = draw(st.sampled_from([0, 1, planner._LIMIT_MARGIN_CELLS]))
    return grid, start, points, margin


def _open_tie_case(step):
    # four points at the same octile distance from the start of an open
    # field, in input order (step 1) or reversed (step -1), with no margin
    g = grid_from(np.full((15, 15), FREE, dtype=np.uint8))
    start = GroundPoint(*g.cell_center(7, 7))
    points = [GroundPoint(*g.cell_center(*c)) for c in ((10, 8), (4, 8), (8, 4), (4, 6))]
    return g, start, points[::step], 0


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_tour_case())
@example(_open_tie_case(1))
@example(_open_tie_case(-1))
def test_order_waypoints_equals_full_search(case):
    grid, start, points, margin = case
    want = full_search_order_waypoints(start, points, grid)
    with mock.patch.object(planner, "_LIMIT_MARGIN_CELLS", margin):
        assert order_waypoints(start, points, grid) == want
        assert order_waypoints(start, points, grid, CostField(grid)) == want


def test_order_waypoints_retries_when_the_limit_cuts_a_tie_group():
    # the two points tie on cost, but with no margin the first, bounded
    # search from the start keeps only the second: its float cost is an
    # ulp lower and equals the limit
    g = grid_from(np.full((5, 8), FREE, dtype=np.uint8), resolution=0.3)
    g.cells[3:5, 2] = OCCUPIED
    start = GroundPoint(*g.cell_center(7, 2))
    a = GroundPoint(*g.cell_center(0, 4))
    b = GroundPoint(*g.cell_center(0, 0))
    full = CostField(g).field(start)
    with mock.patch.object(planner, "_LIMIT_MARGIN_CELLS", 0):
        limit = planner._first_cost_limit(0.3, (7, 2), np.array([4, 0]), np.array([0, 0]))
        assert full[0, 0] <= limit < full[4, 0] < full[0, 0] + COST_TIE
        out = order_waypoints(start, [a, b], g)
    assert out == [(a, True), (b, True)]
    assert out == full_search_order_waypoints(start, [a, b], g)


def test_order_waypoints_last_reachable_stop_needs_no_search(monkeypatch):
    cells = np.full((9, 9), FREE, dtype=np.uint8)
    cells[0:3, 5] = OCCUPIED  # wall sealing the top-right pocket
    cells[2, 5:9] = OCCUPIED
    g = grid_from(cells)
    calls = []
    field = CostField.field

    def counted(self, start, limit=math.inf):
        calls.append(limit)
        return field(self, start, limit)

    monkeypatch.setattr(CostField, "field", counted)
    start = GroundPoint(*g.cell_center(0, 0))
    sealed = GroundPoint(*g.cell_center(7, 0))
    off_grid = GroundPoint(-1.0, 0.05)
    on_wall = GroundPoint(*g.cell_center(5, 0))
    open_points = [GroundPoint(*g.cell_center(c, 8)) for c in (4, 1, 7)]
    out = order_waypoints(start, [sealed, open_points[0], off_grid, on_wall], g)
    assert out == [(open_points[0], True), (sealed, False), (off_grid, False), (on_wall, False)]
    assert calls == []
    assert order_waypoints(start, [sealed], g) == [(sealed, False)]
    assert calls == []
    # one bounded search per stop but the last
    out = order_waypoints(start, [sealed, *open_points], g)
    assert [f for _, f in out] == [True, True, True, False]
    assert len(calls) == 2 and all(math.isfinite(limit) for limit in calls)


def test_order_waypoints_start_off_free_raises():
    cells = np.full((5, 5), FREE, dtype=np.uint8)
    cells[2, 2] = OCCUPIED
    cells[0, 4] = UNKNOWN
    g = grid_from(cells)
    lone = [GroundPoint(*g.cell_center(0, 0))]
    for start in ((2, 2), (4, 0)):
        with pytest.raises(StartOccupied):
            order_waypoints(GroundPoint(*g.cell_center(*start)), lone, g)
    with pytest.raises(StartOccupied):
        order_waypoints(GroundPoint(-1.0, 0.05), lone, g)


def test_approach_goal_open_field_picks_near_side():
    g = grid_from(np.full((40, 40), FREE, dtype=np.uint8))  # 4 m square
    trash = GroundPoint(3.0, 2.0)
    robot = GroundPoint(0.5, 2.0)
    goal = approach_goal(trash, g, robot, standoff=2.0)
    assert goal is not None
    # the chosen cell center sits within standoff of the trash
    d = math.hypot(goal.pose.x - trash.x, goal.pose.y - trash.y)
    assert d <= 2.0 + 1e-9
    # cheapest-from-robot puts it on the robot's side of the trash
    assert goal.pose.x < trash.x
    # heading faces the trash
    want = math.atan2(trash.y - goal.pose.y, trash.x - goal.pose.x)
    assert goal.pose.theta == pytest.approx(want)
    assert (goal.target.x, goal.target.y) == (trash.x, trash.y)


def dijkstra_field(grid, start_cell):
    """dijkstra_costs as a [row, col] array, inf where unreachable."""
    field = np.full((grid.height, grid.width), math.inf)
    for (col, row), d in dijkstra_costs(grid, start_cell).items():
        field[row, col] = d
    return field


def row_major_approach_goal(trash, grid, robot, standoff, min_dist, costs, tie=COST_TIE):
    """approach_goal as a plain scan: every Free cell in row-major order,
    kept when it lies in the [min_dist, standoff] annulus, undercuts the
    best cost so far by `tie` and sees the trash.  `costs` is the path
    cost field from the robot, indexed [row, col]."""
    tcell = grid.world_to_cell(trash.x, trash.y)
    best = None
    best_cost = math.inf
    for row in range(grid.height):
        for col in range(grid.width):
            if grid.cells[row, col] != FREE:
                continue
            cx, cy = grid.cell_center(col, row)
            d = math.hypot(cx - trash.x, cy - trash.y)
            if d > standoff or d < min_dist:
                continue
            c = float(costs[row, col])
            if not (c < best_cost - tie):
                continue
            own = grid.world_to_cell(cx, cy)
            if any(
                grid.cells[cell[1], cell[0]] != FREE
                for cell in trace_cells(grid, cx, cy, trash.x, trash.y)
                if cell != own and cell != tcell
            ):
                continue
            best = (col, row)
            best_cost = c
    if best is None:
        return None
    bx, by = grid.cell_center(*best)
    return NavGoal(Pose2D(bx, by, math.atan2(trash.y - by, trash.x - bx)), trash)


def test_approach_goal_matches_brute_scan():
    rng = np.random.default_rng(15)
    for _ in range(10):
        g = random_grid(rng, w=30, h=30, p_occ=0.15)
        cells = free_cells(g)
        robot_cell = cells[rng.integers(len(cells))]
        robot = GroundPoint(*g.cell_center(*robot_cell))
        trash = GroundPoint(rng.uniform(0.2, 2.8), rng.uniform(0.2, 2.8))
        want = row_major_approach_goal(trash, g, robot, 2.0, 0.0, dijkstra_field(g, robot_cell))
        assert approach_goal(trash, g, robot, standoff=2.0) == want


def test_approach_goal_breaks_near_ties_toward_lower_row_col():
    # scipy sums the costs of equally long paths in different orders, so
    # cells of equal true cost can differ in the last bits; the cell with
    # the smaller float may come later in row-major order, and the goal
    # must still be the row-major first of the tie
    rng = np.random.default_rng(11)
    near_ties = 0
    for _ in range(3000):
        res = float(rng.choice([0.05, 0.1, 0.07]))
        g = random_grid(rng, w=24, h=24, p_occ=0.05, resolution=res)
        cells = free_cells(g)
        robot = GroundPoint(*g.cell_center(*cells[rng.integers(len(cells))]))
        trash = GroundPoint(rng.uniform(0, 24 * res), rng.uniform(0, 24 * res))
        standoff = rng.uniform(2, 10) * res
        field = CostField(g).field(robot)
        want = row_major_approach_goal(trash, g, robot, standoff, 0.0, field)
        assert approach_goal(trash, g, robot, standoff) == want
        cheapest = row_major_approach_goal(trash, g, robot, standoff, 0.0, field, tie=0.0)
        if cheapest == want:
            continue
        near_ties += 1
        # a first, bounded cost search that stops inside the tie group
        # must not settle on the cheaper, later cell
        lo = field[g.world_to_cell(cheapest.pose.x, cheapest.pose.y)[::-1]]
        hi = field[g.world_to_cell(want.pose.x, want.pose.y)[::-1]]
        assert lo < hi < lo + COST_TIE
        for limit in (lo, np.nextafter(hi, -math.inf)):
            with mock.patch.object(planner, "_first_cost_limit", lambda *_: float(limit)):
                assert approach_goal(trash, g, robot, standoff) == want
        if near_ties == 3:
            break
    assert near_ties == 3


@pytest.mark.parametrize(
    "cell,trash,bound",
    [
        # np.hypot puts these cell centers an ulp farther from / nearer to
        # the trash than math.hypot does
        ((24, 17), GroundPoint(2.153272459607389, 0.5976728941074669), "standoff"),
        ((25, 24), GroundPoint(1.9300299928618294, 2.038675268634506), "min_dist"),
    ],
)
def test_approach_goal_decides_the_rim_with_math_hypot(cell, trash, bound):
    g = grid_from(np.full((30, 30), FREE, dtype=np.uint8))
    robot = GroundPoint(*g.cell_center(*cell))
    d = math.hypot(robot.x - trash.x, robot.y - trash.y)
    standoff, min_dist = (d, 0.0) if bound == "standoff" else (2.0, d)
    goal = approach_goal(trash, g, robot, standoff, min_dist)
    # the robot's own cell is on the rim by math.hypot and costs nothing
    assert g.world_to_cell(goal.pose.x, goal.pose.y) == cell
    want = row_major_approach_goal(
        trash, g, robot, standoff, min_dist, dijkstra_field(g, cell)
    )
    assert goal == want


@st.composite
def _approach_case(draw):
    res = draw(st.sampled_from([0.05, 0.1, 0.25]))
    width = draw(st.integers(1, 32))
    height = draw(st.integers(1, 32))
    grid = OccupancyGrid(width, height, res)
    grid.cells[:] = FREE
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.0, 0.05, 0.15, 0.3, 0.5]))
    grid.cells[rng.random((height, width)) < density] = OCCUPIED

    def grid_coord(n):
        # a cell corner or gridline, a hair off one, a cell center, or
        # anywhere in and around the grid (off it included)
        return draw(st.one_of(
            st.integers(0, n).map(float),
            st.tuples(st.integers(0, n), st.floats(-1e-3, 1e-3)).map(sum),
            st.integers(0, n - 1).map(lambda k: k + 0.5),
            st.floats(-0.3 * n, 1.3 * n),
        ))

    tx, ty = grid_coord(width), grid_coord(height)
    if draw(st.booleans()):
        # a sealed pocket: a one-cell ring around the trash, or around the
        # nearest cell when the trash is off the grid
        half = draw(st.integers(1, 4))
        col = min(max(math.floor(tx), 0), width - 1)
        row = min(max(math.floor(ty), 0), height - 1)
        c0, c1 = max(col - half, 0), min(col + half, width - 1)
        r0, r1 = max(row - half, 0), min(row + half, height - 1)
        grid.cells[r0 : r1 + 1, [c0, c1]] = OCCUPIED
        grid.cells[[r0, r1], c0 : c1 + 1] = OCCUPIED
    trash = GroundPoint(tx * res, ty * res)
    free = np.flatnonzero(grid.cells.ravel() == FREE)
    assume(len(free) > 0)
    robot_cell = divmod(int(free[draw(st.integers(0, len(free) - 1))]), width)[::-1]
    # whole multiples of the resolution put cell centers exactly on the rim
    standoff = draw(st.one_of(
        st.integers(1, 12).map(lambda k: k * res),
        st.integers(1, 12).map(lambda k: k * res * SQRT2),
        st.floats(0.05, 3.0),
    ))
    min_dist = draw(st.one_of(
        st.just(0.0),
        st.integers(1, 8).map(lambda k: k * res),
        st.floats(0.0, 1.0).map(lambda f: f * standoff),
        st.just(standoff),
    ))
    # the first, bounded cost search: a zero margin often cuts through
    # the goal's tie group and forces the unbounded retry
    margin = draw(st.sampled_from([0, 1, planner._LIMIT_MARGIN_CELLS]))
    return grid, robot_cell, trash, standoff, min_dist, margin


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_approach_case())
# an open field: every cell on a ring around the robot ties on cost
@example((
    grid_from(np.full((21, 21), FREE, dtype=np.uint8)),
    (10, 10),
    GroundPoint(1.05, 1.05),
    0.5,
    0.3,
    0,
))
def test_approach_goal_equals_row_major_reference(case):
    grid, robot_cell, trash, standoff, min_dist, margin = case
    robot = GroundPoint(*grid.cell_center(*robot_cell))
    want = row_major_approach_goal(
        trash, grid, robot, standoff, min_dist, dijkstra_field(grid, robot_cell)
    )
    with mock.patch.object(planner, "_LIMIT_MARGIN_CELLS", margin):
        assert approach_goal(trash, grid, robot, standoff, min_dist) == want
        field = CostField(grid)
        assert approach_goal(trash, grid, robot, standoff, min_dist, cost_field=field) == want


def line_of_sight(grid, x, y, trash, tcell):
    """The per-candidate sight test `_lines_of_sight` batches: one walk of
    `reference_walk.trace_cells` from (x, y) to the trash, every traced
    cell Free but the start cell and the trash cell."""
    start = grid.world_to_cell(x, y)
    return all(
        grid.cells[cell[1], cell[0]] == FREE
        for cell in trace_cells(grid, x, y, trash.x, trash.y)
        if cell != start and cell != tcell
    )


@st.composite
def _sight_case(draw):
    """A grid, a trash point on or off it, and sight-line starts: cell
    centers, the way approach_goal computes them, and drawn points."""
    grid, _robot, trash, *_ = draw(_approach_case())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 2, 17, 60]))
    cols = rng.integers(0, grid.width, n).tolist()
    rows = rng.integers(0, grid.height, n).tolist()
    starts = [grid.cell_center(col, row) for col, row in zip(cols, rows)]
    extent = max(grid.width, grid.height) * grid.resolution
    starts += draw(st.lists(
        st.tuples(st.floats(-extent, 2.0 * extent), st.floats(-extent, 2.0 * extent)), max_size=4
    ))
    return grid, trash, starts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sight_case())
# diagonal lines through cell corners, from Occupied start cells, to a
# trash point in an Occupied cell
@example((
    grid_from([[FREE, OCCUPIED, FREE], [OCCUPIED, FREE, OCCUPIED], [FREE, OCCUPIED, OCCUPIED]]),
    GroundPoint(0.25, 0.25),
    [(0.05, 0.05), (0.25, 0.05), (0.15, 0.15), (0.05, 0.25), (0.1, 0.1)],
))
def test_batched_lines_of_sight_equal_one_trace_per_candidate(case):
    grid, trash, starts = case
    tcell = grid.world_to_cell(trash.x, trash.y)
    xs = np.array([x for x, _ in starts], dtype=float)
    ys = np.array([y for _, y in starts], dtype=float)
    got = planner._lines_of_sight(grid, xs, ys, trash, tcell)
    assert got.dtype == bool and got.shape == (len(starts),)
    assert got.tolist() == [line_of_sight(grid, x, y, trash, tcell) for x, y in starts]


def test_approach_goal_sees_through_exempt_trash_cell():
    # trash cell itself occupied (inflation collar), ring around it free
    cells = np.full((21, 21), FREE, dtype=np.uint8)
    cells[10, 10] = OCCUPIED
    g = grid_from(cells)
    trash = GroundPoint(*g.cell_center(10, 10))
    robot = GroundPoint(*g.cell_center(1, 10))
    goal = approach_goal(trash, g, robot, standoff=0.3)
    assert goal is not None
    cell = g.world_to_cell(goal.pose.x, goal.pose.y)
    assert g.cells[cell[1], cell[0]] == FREE


def test_approach_goal_none_when_sealed():
    cells = np.full((21, 21), FREE, dtype=np.uint8)
    cells[7:14, 7:14] = OCCUPIED  # 0.7 m solid block swallowing the standoff disc
    g = grid_from(cells)
    trash = GroundPoint(*g.cell_center(10, 10))
    robot = GroundPoint(*g.cell_center(1, 1))
    assert approach_goal(trash, g, robot, standoff=0.3) is None


def test_approach_goal_respects_standoff_radius():
    g = grid_from(np.full((40, 40), FREE, dtype=np.uint8))
    trash = GroundPoint(2.0, 2.0)
    robot = GroundPoint(0.2, 0.2)
    for standoff in (0.5, 1.0, 1.5):
        goal = approach_goal(trash, g, robot, standoff=standoff)
        assert goal is not None
        d = math.hypot(goal.pose.x - trash.x, goal.pose.y - trash.y)
        assert d <= standoff + 1e-9


def test_approach_goal_min_dist_keeps_the_goal_out():
    # robot parked right next to the trash: without a floor the cheapest
    # candidate is its own cell, with one it must back out to the annulus
    g = grid_from(np.full((60, 60), FREE, dtype=np.uint8))  # 6 m square
    trash = GroundPoint(3.0, 3.0)
    robot = GroundPoint(3.2, 3.0)
    near = approach_goal(trash, g, robot, standoff=2.0)
    assert near is not None
    assert math.hypot(near.pose.x - trash.x, near.pose.y - trash.y) < 0.5
    goal = approach_goal(trash, g, robot, standoff=2.0, min_dist=1.0)
    assert goal is not None
    d = math.hypot(goal.pose.x - trash.x, goal.pose.y - trash.y)
    assert 1.0 <= d <= 2.0 + 1e-9
    # still the cheapest such cell: barely past the floor, on the robot side
    assert d == pytest.approx(1.0, abs=0.15)
    assert goal.pose.x > trash.x


def test_approach_goal_min_dist_can_empty_the_annulus():
    g = grid_from(np.full((21, 21), FREE, dtype=np.uint8))  # 2.1 m square
    trash = GroundPoint(1.05, 1.05)
    robot = GroundPoint(0.15, 0.15)
    # every cell of the grid lies within 1.6 m of the center
    assert approach_goal(trash, g, robot, standoff=2.0, min_dist=1.6) is None


def test_approach_goal_start_occupied_raises():
    cells = np.full((9, 9), FREE, dtype=np.uint8)
    cells[4, 4] = OCCUPIED
    g = grid_from(cells)
    with pytest.raises(StartOccupied):
        approach_goal(GroundPoint(0.1, 0.1), g, GroundPoint(*g.cell_center(4, 4)))

"""End-to-end acceptance checks, one numbered criterion per test.

Each test computes its verdict, prints a single PASS/FAIL line with the
measured numbers, and then asserts.  Oracles here are written from the
documented behavior alone (naive reference implementations, closed-form
kinematics, hand statistics), not from the library internals.
"""

import heapq
import math
import os
import time

import numpy as np
import pytest

from littersim.clusterfilter import (
    FilterConfig,
    RawDetection,
    TrashHypothesis,
    confirmed,
    ingest,
)
from littersim.config import MissionConfig, build_config
from littersim.geometry import (
    BoundingBox,
    CameraModel,
    GroundPoint,
    Pose2D,
    ground_point_to_pixel,
    project_detection,
)
from littersim.gridmap import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    OccupancyGrid,
    close_occupied,
    morph_close_open,
    open_occupied,
)
from littersim.mission import run_mapping, run_mission, run_batch
from littersim.pickup import PickupConfig
from littersim.planner import astar
from littersim.simworld import NoiseModel, WorldConfig

SQRT2 = math.sqrt(2.0)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# --------------------------------------------------------------------- #
# shared detection streams for criteria 1 and 2

_STREAM_CACHE: list[list[RawDetection]] | None = None


def _streams() -> list[list[RawDetection]]:
    global _STREAM_CACHE
    if _STREAM_CACHE is None:
        rng = np.random.default_rng(20240819)
        streams = []
        for _ in range(1000):
            n = int(rng.integers(0, 51))
            span = float(rng.uniform(1.0, 10.0))
            dets = [
                RawDetection(
                    0.1 * i,
                    GroundPoint(float(rng.uniform(0.0, span)), float(rng.uniform(0.0, span))),
                    float(rng.uniform()),
                )
                for i in range(n)
            ]
            streams.append(dets)
        _STREAM_CACHE = streams
    return _STREAM_CACHE


def _reference_clusters(dets: list[RawDetection], cfg: FilterConfig) -> list[list[GroundPoint]]:
    """Naive fusion keeping explicit member lists: a detection joins the
    cluster whose current mean's square window contains it, nearest mean
    first, ties to the earliest cluster; otherwise it founds a new one."""
    clusters: list[list[GroundPoint]] = []
    for d in dets:
        best = -1
        best_d2 = math.inf
        for i, members in enumerate(clusters):
            mx = sum(p.x for p in members) / len(members)
            my = sum(p.y for p in members) / len(members)
            if abs(d.point.x - mx) <= cfg.cluster_radius and abs(d.point.y - my) <= cfg.cluster_radius:
                d2 = (d.point.x - mx) ** 2 + (d.point.y - my) ** 2
                if d2 < best_d2:
                    best_d2 = d2
                    best = i
        if best < 0:
            clusters.append([d.point])
        else:
            clusters[best].append(d.point)
    return clusters


def test_criterion_01_fusion_matches_reference():
    cfg = FilterConfig()
    t0 = time.monotonic()
    max_err = 0.0
    mismatches = 0
    for dets in _streams():
        state: list[TrashHypothesis] = []
        for d in dets:
            state = ingest(state, d, cfg)
        clusters = _reference_clusters(dets, cfg)
        if len(state) != len(clusters) or [h.count for h in state] != [
            len(c) for c in clusters
        ]:
            mismatches += 1
            continue
        for h, members in zip(state, clusters):
            mx = sum(p.x for p in members) / len(members)
            my = sum(p.y for p in members) / len(members)
            max_err = max(max_err, abs(h.point.x - mx), abs(h.point.y - my))
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and max_err < 1e-9 and elapsed < 5.0
    _verdict(
        1,
        "fusion matches the straight-line reference",
        ok,
        f"1000 streams, {mismatches} structure mismatches, "
        f"max position error {max_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_fusion_conserves_counts_and_means():
    cfg = FilterConfig()
    worst_sum = 0
    max_err = 0.0
    for dets in _streams():
        state: list[TrashHypothesis] = []
        for d in dets:
            state = ingest(state, d, cfg)
        worst_sum = max(worst_sum, abs(sum(h.count for h in state) - len(dets)))
        clusters = _reference_clusters(dets, cfg)
        for h, members in zip(state, clusters):
            mx = sum(p.x for p in members) / len(members)
            my = sum(p.y for p in members) / len(members)
            max_err = max(max_err, math.hypot(h.point.x - mx, h.point.y - my))
    ok = worst_sum == 0 and max_err < 1e-9
    _verdict(
        2,
        "counts sum to n and positions are member means",
        ok,
        f"1000 streams, worst count imbalance {worst_sum}, max mean error {max_err:.2e}",
    )


def test_criterion_03_confirmation_threshold_is_exact():
    cfg = FilterConfig()  # confirmation needs count > 2
    point = GroundPoint(1.0, 1.0)
    bad = []
    for a in range(1, 11):
        direct = confirmed([TrashHypothesis(point, a)], cfg)
        if (len(direct) == 1) != (a >= 3):
            bad.append(("direct", a))
    for a in range(1, 6):
        state: list[TrashHypothesis] = []
        for _ in range(a):
            state = ingest(state, RawDetection(0.0, point, 1.0), cfg)
        if (len(confirmed(state, cfg)) == 1) != (a >= 3):
            bad.append(("ingested", a))
    ok = not bad
    _verdict(
        3,
        "1 or 2 sightings never confirm, 3 always does",
        ok,
        f"counts 1..10 direct and 1..5 ingested, violations: {bad!r}",
    )


def test_criterion_04_pixel_ground_round_trip():
    cam = CameraModel()
    rng = np.random.default_rng(4)
    max_err = 0.0
    done = 0
    attempts = 0
    while done < 10000 and attempts < 400000:
        attempts += 1
        pose = Pose2D(
            float(rng.uniform(-5.0, 5.0)),
            float(rng.uniform(-5.0, 5.0)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        rngrange = float(rng.uniform(0.3, 6.0))
        bearing = float(rng.uniform(-0.52 * cam.hfov, 0.52 * cam.hfov))
        point = GroundPoint(
            pose.x + rngrange * math.cos(pose.theta + bearing),
            pose.y + rngrange * math.sin(pose.theta + bearing),
        )
        pix = ground_point_to_pixel(pose, point, cam)
        if pix is None:
            continue
        u, v, depth = pix
        box = BoundingBox(u - 2.0, u + 2.0, v - 2.0, v + 2.0, depth)
        back = project_detection(pose, box, cam)
        max_err = max(max_err, math.hypot(back.x - point.x, back.y - point.y))
        done += 1
    ok = done == 10000 and max_err < 1e-9
    _verdict(
        4,
        "in-frustum pixel round trips are exact",
        ok,
        f"{done} round trips, max error {max_err:.2e} m",
    )


def _dijkstra_field(grid: OccupancyGrid, start: tuple[int, int]) -> dict:
    W, H = grid.width, grid.height
    res = grid.resolution
    dist = {start: 0.0}
    heap = [(0.0, start)]
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
                if not (0 <= nc < W and 0 <= nr < H) or grid.cells[nr, nc] != FREE:
                    continue
                nd = d + res * (SQRT2 if dc and dr else 1.0)
                if nd < dist.get((nc, nr), math.inf) - 1e-15:
                    dist[(nc, nr)] = nd
                    heapq.heappush(heap, (nd, (nc, nr)))
    return dist


def test_criterion_05_astar_matches_dijkstra():
    rng = np.random.default_rng(5)
    t0 = time.monotonic()
    cost_err = 0.0
    bad_paths = 0
    solved = 0
    while solved < 100:
        cells = np.where(rng.random((50, 50)) < 0.25, OCCUPIED, FREE).astype(np.uint8)
        grid = OccupancyGrid(50, 50, 0.1)
        grid.cells = cells
        rows, cols = np.nonzero(cells == FREE)
        if len(rows) < 2:
            continue
        i = int(rng.integers(len(rows)))
        start = (int(cols[i]), int(rows[i]))
        field = _dijkstra_field(grid, start)
        reachable = [c for c in field if c != start]
        if not reachable:
            continue
        goal = reachable[int(rng.integers(len(reachable)))]
        plan = astar(
            grid,
            GroundPoint(*grid.cell_center(*start)),
            GroundPoint(*grid.cell_center(*goal)),
        )
        if plan is None:
            bad_paths += 1
            solved += 1
            continue
        cost_err = max(cost_err, abs(plan.cost - field[goal]))
        prev = None
        for p in plan.waypoints:
            cell = grid.world_to_cell(p.x, p.y)
            if cell is None or grid.cells[cell[1], cell[0]] != FREE:
                bad_paths += 1
                break
            if prev is not None and max(
                abs(cell[0] - prev[0]), abs(cell[1] - prev[1])
            ) != 1:
                bad_paths += 1
                break
            prev = cell
        solved += 1
    elapsed = time.monotonic() - t0
    ok = bad_paths == 0 and cost_err < 1e-9 and elapsed < 10.0
    _verdict(
        5,
        "optimal grid paths match single-source costs",
        ok,
        f"100 random 50x50 grids, max cost gap {cost_err:.2e}, "
        f"{bad_paths} invalid paths, {elapsed:.2f}s",
    )


def _brute_dilate(mask: np.ndarray) -> np.ndarray:
    h, w = mask.shape
    out = np.zeros_like(mask)
    for r in range(h):
        for c in range(w):
            if mask[r, c]:
                out[max(0, r - 1):min(h, r + 2), max(0, c - 1):min(w, c + 2)] = True
    return out


def _brute_erode(mask: np.ndarray) -> np.ndarray:
    h, w = mask.shape
    out = np.zeros_like(mask)
    for r in range(h):
        for c in range(w):
            keep = True
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if rr < 0 or rr >= h or cc < 0 or cc >= w or not mask[rr, cc]:
                        keep = False
                        break
                if not keep:
                    break
            out[r, c] = keep
    return out


def test_criterion_06_morphology_matches_brute_force():
    rng = np.random.default_rng(6)
    stage_bad = 0
    composite_bad = 0
    idem_bad = 0
    for _ in range(100):
        cells = rng.choice(
            np.array([FREE, UNKNOWN, OCCUPIED], dtype=np.uint8),
            size=(40, 40),
            p=[0.6, 0.2, 0.2],
        )
        grid = OccupancyGrid(40, 40, 0.05)
        grid.cells = cells.copy()
        mask = cells != FREE
        closed = close_occupied(mask)
        opened = open_occupied(mask)
        if not (closed == _brute_erode(_brute_dilate(mask))).all():
            stage_bad += 1
        if not (opened == _brute_dilate(_brute_erode(mask))).all():
            stage_bad += 1
        if not (close_occupied(closed) == closed).all():
            idem_bad += 1
        if not (open_occupied(opened) == opened).all():
            idem_bad += 1
        kept = _brute_dilate(_brute_erode(_brute_erode(_brute_dilate(mask))))
        want = np.where(
            kept, np.where(cells == UNKNOWN, UNKNOWN, OCCUPIED), FREE
        ).astype(np.uint8)
        if not (morph_close_open(grid).cells == want).all():
            composite_bad += 1
    ok = stage_bad == 0 and composite_bad == 0 and idem_bad == 0
    _verdict(
        6,
        "grid morphology equals set morphology and is idempotent",
        ok,
        f"100 random 40x40 grids, {stage_bad} stage mismatches, "
        f"{composite_bad} composite mismatches, {idem_bad} idempotence failures",
    )


def test_criterion_07_zero_noise_missions_are_perfect():
    t0 = time.monotonic()
    failures = []
    worst_err = 0.0
    for seed in range(20):
        cfg = MissionConfig(
            world=WorldConfig(seed=seed, trash_count=(seed % 4) + 1),
            noise=NoiseModel.zero(),
            camera=CameraModel(),
            filter=FilterConfig(),
            pickup=PickupConfig(),
        )
        report = run_mission(cfg)
        errs = [p.map_error for p in report.per_trash]
        worst_err = max(worst_err, max(errs, default=0.0))
        if not report.success or any(e >= cfg.map_resolution for e in errs):
            failures.append(seed)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _verdict(
        7,
        "noise-free missions collect everything",
        ok,
        f"20 missions with 1-4 items, failures {failures!r}, "
        f"worst map error {worst_err:.2e} m, {elapsed:.1f}s",
    )


def test_criterion_08_trial_success_falls_with_distance():
    raw = {"mission.scenario": ["pickup_trial"]}
    rows, aggs = run_batch(
        raw,
        seeds=list(range(300)),
        sweep=[("mission.trial_distance", ["0.5", "1.0", "2.0"])],
    )
    rates = {a["mission.trial_distance"]: a["success_rate"] for a in aggs}
    pooled = sum(1 for r in rows if r["success"]) / len(rows)
    s05, s10, s20 = rates["0.5"], rates["1.0"], rates["2.0"]
    monotone = s05 >= s10 >= s20
    strict_low = s20 < s10 and s20 < s05
    in_band = 0.6278 <= pooled <= 0.9278
    ok = monotone and strict_low and in_band
    _verdict(
        8,
        "pickup succeeds less often from farther away",
        ok,
        f"300 episodes per arm, rates 0.5m {s05:.3f} / 1m {s10:.3f} / 2m {s20:.3f}, "
        f"pooled {pooled:.4f} in [0.6278, 0.9278]: {in_band}",
    )


@pytest.mark.slow
def test_criterion_09_mission_success_falls_with_clutter():
    t0 = time.monotonic()
    rows, aggs = run_batch(
        {},
        seeds=list(range(50)),
        sweep=[("world.trash_count", ["1", "2", "3", "4"])],
    )
    elapsed = time.monotonic() - t0
    rates = [a["success_rate"] for a in aggs]
    pooled = sum(1 for r in rows if r["success"]) / len(rows)
    monotone = all(rates[i + 1] <= rates[i] for i in range(3))
    in_band = 0.53 <= pooled <= 0.83
    ok = monotone and in_band and elapsed < 600.0
    _verdict(
        9,
        "full missions degrade as item count grows",
        ok,
        f"50 seeds x 1..4 items, rates {[f'{r:.2f}' for r in rates]}, "
        f"pooled {pooled:.4f} in [0.53, 0.83]: {in_band}, {elapsed:.0f}s",
    )


def _two_proportion_p(k1: int, n1: int, k2: int, n2: int) -> tuple[float, float]:
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    if se == 0.0:
        return 0.0, 1.0 if p1 == p2 else 0.0
    z = (p1 - p2) / se
    return z, math.erfc(abs(z) / math.sqrt(2.0))


@pytest.mark.slow
def test_criterion_10_reidentification_ablation_is_significant():
    raw = {
        "world.arena_w": ["5.0"],
        "world.arena_h": ["4.0"],
        "world.obstacle_count": ["2"],
        "world.trash_count": ["1"],
    }
    rows, aggs = run_batch(
        raw,
        seeds=list(range(200)),
        sweep=[("pickup.reidentify", ["true", "false"])],
    )
    by = {a["pickup.reidentify"]: a for a in aggs}
    n_on = by["true"]["n_runs"]
    n_off = by["false"]["n_runs"]
    k_on = round(by["true"]["success_rate"] * n_on)
    k_off = round(by["false"]["success_rate"] * n_off)
    z, p = _two_proportion_p(k_on, n_on, k_off, n_off)
    ok = n_on >= 200 and n_off >= 200 and k_on / n_on > k_off / n_off and p < 0.01
    _verdict(
        10,
        "camera re-identification measurably helps",
        ok,
        f"{n_on}+{n_off} missions, success {k_on / n_on:.3f} with vs "
        f"{k_off / n_off:.3f} without, z {z:.2f}, p {p:.2e}",
    )


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in dirs:
        run_mission(build_config({"world.seed": ["5"]}, output_dir=out))
    same = {}
    for name in ("report.txt", "map.grid"):
        with open(os.path.join(dirs[0], name), "rb") as fa, open(
            os.path.join(dirs[1], name), "rb"
        ) as fb:
            same[name] = fa.read() == fb.read()
    ok = all(same.values())
    _verdict(
        11,
        "identical runs serialize identically",
        ok,
        f"seed 5 run twice, byte-equal: {same!r}",
    )


@pytest.mark.slow
def test_criterion_12_confirmed_hypotheses_sit_on_real_items():
    good = 0
    n = 100
    for seed in range(n):
        cfg = build_config({"world.seed": [str(seed)]})
        _grid, hyps, world = run_mapping(cfg)
        truths = [item.position for item in world.trash]
        ok_phase = all(
            min(
                (math.hypot(h.point.x - p.x, h.point.y - p.y) for p in truths),
                default=math.inf,
            )
            <= 0.5
            for h in hyps
        )
        good += 1 if ok_phase else 0
    ok = good >= 80
    _verdict(
        12,
        "mapping phases place hypotheses on real items",
        ok,
        f"{good}/{n} phases with every confirmed hypothesis within 0.5 m of a true item",
    )

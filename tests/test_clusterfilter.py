"""The fusion rule is checked against a deliberately naive reference that
tracks full membership lists, so the running-mean shortcut in the package
is validated against recomputed arithmetic means every step."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littersim.clusterfilter import FilterConfig, RawDetection, TrashHypothesis, confirmed, ingest
from littersim.geometry import GroundPoint


def reference_fuse(points, radius):
    """Straight-line reimplementation: each cluster keeps every member
    point and reports the plain arithmetic mean.  Same match policy:
    square window, nearest wins, ties to the earliest cluster."""
    clusters = []  # list of lists of (x, y)
    for x, y in points:
        best = -1
        best_d2 = float("inf")
        for i, members in enumerate(clusters):
            mx = sum(p[0] for p in members) / len(members)
            my = sum(p[1] for p in members) / len(members)
            if abs(x - mx) <= radius and abs(y - my) <= radius:
                d2 = (x - mx) ** 2 + (y - my) ** 2
                if d2 < best_d2:
                    best = i
                    best_d2 = d2
        if best < 0:
            clusters.append([(x, y)])
        else:
            clusters[best].append((x, y))
    return clusters


def run_stream(points, cfg):
    state = []
    for i, (x, y) in enumerate(points):
        state = ingest(state, RawDetection(0.1 * i, GroundPoint(x, y)), cfg)
    return state


def test_matches_reference_on_random_streams():
    cfg = FilterConfig()
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 6, size=(n, 2))]
        state = run_stream(pts, cfg)
        ref = reference_fuse(pts, cfg.cluster_radius)
        assert len(state) == len(ref)
        for h, members in zip(state, ref):
            assert h.count == len(members)
            mx = sum(p[0] for p in members) / len(members)
            my = sum(p[1] for p in members) / len(members)
            assert abs(h.point.x - mx) < 1e-9
            assert abs(h.point.y - my) < 1e-9


def test_count_conservation():
    cfg = FilterConfig()
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 4, size=(n, 2))]
        state = run_stream(pts, cfg)
        assert sum(h.count for h in state) == n


@st.composite
def _detection_stream(draw):
    radius = draw(st.sampled_from([0.05, 0.5, 2.0]))
    scale = draw(st.sampled_from([1.0, 1e3]))
    centers = draw(st.lists(
        st.tuples(st.floats(-scale, scale), st.floats(-scale, scale)), min_size=1, max_size=4
    ))
    offset = st.one_of(
        st.floats(-2.0 * radius, 2.0 * radius),
        st.sampled_from([-radius, 0.0, radius]),  # on the window bounds
    )
    sighting = st.tuples(st.integers(0, len(centers) - 1), offset, offset).map(
        lambda k: (centers[k[0]][0] + k[1], centers[k[0]][1] + k[2])
    )
    return FilterConfig(cluster_radius=radius), draw(st.lists(sighting, max_size=60))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_detection_stream())
def test_ingest_conserves_counts_and_means(case):
    cfg, points = case
    state = []
    members = []  # the sightings merged into each hypothesis
    for i, (x, y) in enumerate(points):
        out = ingest(state, RawDetection(0.1 * i, GroundPoint(x, y)), cfg)
        if len(out) > len(state):
            assert len(out) == len(state) + 1
            members.append([(x, y)])
        else:
            (k,) = [k for k, (a, b) in enumerate(zip(state, out)) if a != b]
            assert out[k].count == state[k].count + 1
            members[k].append((x, y))
        state = out
        assert sum(h.count for h in state) == i + 1
    for h, pts in zip(state, members):
        assert h.count == len(pts)
        # the running mean stays within rounding of the arithmetic mean:
        # each merge adds at most a few ulps of the largest coordinate
        scale = max(1.0, *(abs(v) for p in pts for v in p))
        tol = 4 * (len(pts) + 1) * sys.float_info.epsilon * scale
        assert abs(h.point.x - math.fsum(p[0] for p in pts) / len(pts)) <= tol
        assert abs(h.point.y - math.fsum(p[1] for p in pts) / len(pts)) <= tol


def test_window_bounds_are_inclusive():
    cfg = FilterConfig(cluster_radius=0.5)
    state = run_stream([(0.0, 0.0), (0.5, 0.5)], cfg)
    assert len(state) == 1 and state[0].count == 2
    state = run_stream([(0.0, 0.0), (0.5 + 1e-9, 0.0)], cfg)
    assert len(state) == 2


def test_nearest_match_wins_and_ties_go_earliest():
    cfg = FilterConfig(cluster_radius=0.5)
    # two hypotheses, the detection is inside both windows but nearer the second
    state = [
        TrashHypothesis(GroundPoint(0.0, 0.0), 1),
        TrashHypothesis(GroundPoint(0.6, 0.0), 1),
    ]
    state = ingest(state, RawDetection(0.0, GroundPoint(0.4, 0.0)), cfg)
    assert state[0].count == 1 and state[1].count == 2
    # exact tie: midway between both -> earliest hypothesis absorbs it
    state = [
        TrashHypothesis(GroundPoint(0.0, 0.0), 1),
        TrashHypothesis(GroundPoint(0.8, 0.0), 1),
    ]
    state = ingest(state, RawDetection(0.0, GroundPoint(0.4, 0.0)), cfg)
    assert state[0].count == 2 and state[1].count == 1


def test_ingest_returns_new_list():
    cfg = FilterConfig()
    state = []
    out = ingest(state, RawDetection(0.0, GroundPoint(1.0, 1.0)), cfg)
    assert state == [] and len(out) == 1


def test_confirmation_threshold_exact():
    cfg = FilterConfig(accept_threshold=2)
    for count, expect in ((1, False), (2, False), (3, True), (4, True)):
        state = [TrashHypothesis(GroundPoint(0.0, 0.0), count)]
        got = confirmed(state, cfg)
        assert bool(got) is expect


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(cluster_radius=0.0)
    with pytest.raises(ValueError):
        FilterConfig(accept_threshold=0)

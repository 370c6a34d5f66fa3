import math
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littersim.geometry import Pose2D, wrap_angle
from littersim.posebuffer import NonMonotonicTime, OutOfRange, PoseBuffer, write_trajectory


def _filled():
    buf = PoseBuffer()
    buf.insert(0.0, Pose2D(0.0, 0.0, 0.0))
    buf.insert(1.0, Pose2D(2.0, 0.0, 0.5))
    buf.insert(3.0, Pose2D(2.0, 4.0, -0.5))
    return buf


def test_exact_stamp_lookup_returns_stored_pose():
    buf = _filled()
    assert buf.pose_at(1.0) == Pose2D(2.0, 0.0, 0.5)
    assert buf.pose_at(0.0) == Pose2D(0.0, 0.0, 0.0)
    assert buf.pose_at(3.0) == Pose2D(2.0, 4.0, -0.5)


def test_linear_interpolation_between_stamps():
    buf = _filled()
    p = buf.pose_at(0.5)
    assert abs(p.x - 1.0) < 1e-12 and abs(p.y) < 1e-12 and abs(p.theta - 0.25) < 1e-12
    p = buf.pose_at(2.0)
    assert abs(p.x - 2.0) < 1e-12 and abs(p.y - 2.0) < 1e-12 and abs(p.theta) < 1e-12


def test_theta_interpolates_across_the_wrap():
    buf = PoseBuffer()
    buf.insert(0.0, Pose2D(0.0, 0.0, math.pi - 0.1))
    buf.insert(1.0, Pose2D(0.0, 0.0, -math.pi + 0.1))
    mid = buf.pose_at(0.5)
    # shortest arc passes through pi, not through zero
    assert abs(abs(mid.theta) - math.pi) < 1e-9


def test_out_of_range_and_empty():
    buf = _filled()
    with pytest.raises(OutOfRange):
        buf.pose_at(-0.1)
    with pytest.raises(OutOfRange):
        buf.pose_at(3.1)
    with pytest.raises(OutOfRange):
        PoseBuffer().pose_at(0.0)


def test_insert_requires_increasing_stamps():
    buf = _filled()
    with pytest.raises(NonMonotonicTime):
        buf.insert(3.0, Pose2D(0, 0, 0))
    with pytest.raises(NonMonotonicTime):
        buf.insert(2.5, Pose2D(0, 0, 0))


def test_horizon_eviction():
    buf = PoseBuffer(horizon=10.0)
    for k in range(41):
        buf.insert(0.5 * k, Pose2D(float(k), 0.0, 0.0))
    lo, hi = buf.span()
    assert hi == 20.0
    assert lo >= hi - 10.0
    with pytest.raises(OutOfRange):
        buf.pose_at(5.0)
    assert buf.pose_at(lo) is not None
    # the store keeps every pose; only lookups end at the horizon
    assert len(buf) == 41
    assert list(buf)[0] == (0.0, Pose2D(0.0, 0.0, 0.0))


# few distinct values, so that x, y and theta repeat from line to line,
# with 0.0 and -0.0, which compare equal but print apart
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -2.25, 0.1, math.nan, math.inf]),
    st.floats(-10.0, 10.0),
)
_HEADINGS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, math.pi]), st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 100.0), _COORDS, _COORDS, _HEADINGS).map(
            lambda s: (s[0], Pose2D(*s[1:]))
        ),
        max_size=30,
    )
)
# each zero after the other sign's, in x and in y, with theta repeated
@example(
    [
        (0.0, Pose2D(0.0, 1.0, 0.5)),
        (0.05, Pose2D(-0.0, 1.0, 0.5)),
        (0.1, Pose2D(-0.0, 1.0, 0.5)),
        (0.15, Pose2D(1.0, 0.0, 0.5)),
        (0.2, Pose2D(1.0, -0.0, 0.5)),
        (0.25, Pose2D(1.0, 0.0, 0.5)),
    ]
)
def test_write_trajectory_format(tmp_path_factory, poses):
    path = tmp_path_factory.mktemp("traj") / "traj.txt"
    lines = write_trajectory(poses, str(path))
    text = path.read_text(encoding="ascii")
    assert text == "".join(f"{t!r} {p.x!r} {p.y!r} {p.theta!r}\n" for t, p in poses)
    # the returned lines are the ones episode logs quote
    assert lines == text.splitlines(keepends=True)


class DequePoseBuffer:
    """Reference: a deque of (t, pose) pairs evicted from the left on
    every insert, searched by index."""

    def __init__(self, horizon):
        self.horizon = horizon
        self._entries = deque()

    def insert(self, t, pose):
        if self._entries and t <= self._entries[-1][0]:
            raise NonMonotonicTime("not increasing")
        self._entries.append((t, pose))
        cutoff = t - self.horizon
        while self._entries[0][0] < cutoff:
            self._entries.popleft()

    def pose_at(self, t):
        if not self._entries:
            raise OutOfRange("buffer is empty")
        first = self._entries[0][0]
        last = self._entries[-1][0]
        if t < first or t > last:
            raise OutOfRange("outside the span")
        entries = self._entries
        lo, hi = 0, len(entries) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if entries[mid][0] <= t:
                lo = mid
            else:
                hi = mid
        ta, a = entries[lo]
        if t == ta:
            return a
        tb, b = entries[hi]
        if t == tb:
            return b
        frac = (t - ta) / (tb - ta)
        dtheta = wrap_angle(b.theta - a.theta)
        return Pose2D(
            a.x + frac * (b.x - a.x),
            a.y + frac * (b.y - a.y),
            a.theta + frac * dtheta,
        )


def _lookup(buf, t):
    try:
        pose = buf.pose_at(t)
    except OutOfRange:
        return "out of range"
    return (repr(pose.x), repr(pose.y), repr(pose.theta))


# binary fractions sum exactly, so some stamp lands exactly on the horizon
# edge `newest - horizon`; the others land anywhere
_STEPS = st.one_of(
    st.sampled_from([0.05, 1e-9, 7.0, 0.25, 0.5, 1.0, 2.0]), st.floats(1e-6, 5.0)
)
_POSES = st.builds(
    Pose2D, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-4.0, 4.0)
)


def _around(t):
    return [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([0.1, 1.0, 10.0, 60.0]),
    st.lists(st.tuples(_STEPS, _POSES), min_size=1, max_size=80),
    st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_pose_at_equals_the_deque_buffer(horizon, inserts, probes):
    # the one store keeps every pose and ends lookups at the horizon when
    # asked; a buffer that evicts on every insert answers the same
    got = PoseBuffer(horizon)
    want = DequePoseBuffer(horizon)
    kept = []
    t = 0.0
    for step, pose in inserts:
        t += step
        got.insert(t, pose)
        want.insert(t, pose)
        kept.append((t, pose))
        assert list(got) == kept
        assert len(got) == len(kept)
        assert got.span() == (want._entries[0][0], want._entries[-1][0])
        stamps = [st for st, _ in want._entries]
        lo, hi = stamps[0], stamps[-1]
        # both sides of the live span, the horizon edge and the stamp just
        # evicted, each exactly and one ulp either way
        queries = [stamps[len(stamps) // 2], lo - 1e-9, hi + 1e-9, lo - horizon]
        queries += _around(lo) + _around(hi) + _around(t - horizon)
        if len(kept) > len(stamps):
            queries += _around(kept[-len(stamps) - 1][0])
        queries += [lo + f * (hi - lo) for f in probes]
        for q in queries:
            assert _lookup(got, q) == _lookup(want, q)
    with pytest.raises(NonMonotonicTime):
        got.insert(t, Pose2D(0.0, 0.0))


def test_a_stamp_exactly_on_the_horizon_edge_stays_in_range():
    buf = PoseBuffer(horizon=1.0)
    for k in range(5):
        buf.insert(0.5 * k, Pose2D(float(k), 0.0))
    # newest 2.0: the stamp at exactly 1.0 is the oldest one still served
    assert buf.span() == (1.0, 2.0)
    assert buf.pose_at(1.0) == Pose2D(2.0, 0.0)
    with pytest.raises(OutOfRange):
        buf.pose_at(math.nextafter(1.0, 0.0))
    with pytest.raises(OutOfRange):
        buf.pose_at(math.nextafter(2.0, 3.0))

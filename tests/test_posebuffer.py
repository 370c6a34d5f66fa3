import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from littersim.geometry import Pose2D, wrap_angle
from littersim.posebuffer import NonMonotonicTime, OutOfRange, PoseBuffer, StampedPose, write_trajectory


def _filled():
    buf = PoseBuffer()
    buf.insert(StampedPose(0.0, Pose2D(0.0, 0.0, 0.0)))
    buf.insert(StampedPose(1.0, Pose2D(2.0, 0.0, 0.5)))
    buf.insert(StampedPose(3.0, Pose2D(2.0, 4.0, -0.5)))
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
    buf.insert(StampedPose(0.0, Pose2D(0.0, 0.0, math.pi - 0.1)))
    buf.insert(StampedPose(1.0, Pose2D(0.0, 0.0, -math.pi + 0.1)))
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
        buf.insert(StampedPose(3.0, Pose2D(0, 0, 0)))
    with pytest.raises(NonMonotonicTime):
        buf.insert(StampedPose(2.5, Pose2D(0, 0, 0)))


def test_horizon_eviction():
    buf = PoseBuffer(horizon=10.0)
    for k in range(41):
        buf.insert(StampedPose(0.5 * k, Pose2D(float(k), 0.0, 0.0)))
    lo, hi = buf.span()
    assert hi == 20.0
    assert lo >= hi - 10.0
    with pytest.raises(OutOfRange):
        buf.pose_at(5.0)
    assert buf.pose_at(lo) is not None


def test_write_trajectory_format(tmp_path):
    buf = _filled()
    path = tmp_path / "traj.txt"
    write_trajectory(buf, str(path))
    lines = path.read_text(encoding="ascii").splitlines()
    assert len(lines) == 3
    t, x, y, theta = lines[1].split()
    assert float(t) == 1.0 and float(x) == 2.0 and float(y) == 0.0 and float(theta) == 0.5


class DequePoseBuffer:
    """Reference: a deque evicted from the left, searched by index."""

    def __init__(self, horizon):
        self.horizon = horizon
        self._entries = deque()

    def insert(self, sp):
        if self._entries and sp.t <= self._entries[-1].t:
            raise NonMonotonicTime("not increasing")
        self._entries.append(sp)
        cutoff = sp.t - self.horizon
        while self._entries[0].t < cutoff:
            self._entries.popleft()

    def pose_at(self, t):
        if not self._entries:
            raise OutOfRange("buffer is empty")
        first = self._entries[0]
        last = self._entries[-1]
        if t < first.t or t > last.t:
            raise OutOfRange("outside the span")
        entries = self._entries
        lo, hi = 0, len(entries) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if entries[mid].t <= t:
                lo = mid
            else:
                hi = mid
        a = entries[lo]
        if t == a.t:
            return a.pose
        b = entries[hi]
        if t == b.t:
            return b.pose
        frac = (t - a.t) / (b.t - a.t)
        dtheta = wrap_angle(b.pose.theta - a.pose.theta)
        return Pose2D(
            a.pose.x + frac * (b.pose.x - a.pose.x),
            a.pose.y + frac * (b.pose.y - a.pose.y),
            a.pose.theta + frac * dtheta,
        )


def _lookup(buf, t):
    try:
        pose = buf.pose_at(t)
    except OutOfRange:
        return "out of range"
    return (repr(pose.x), repr(pose.y), repr(pose.theta))


_STEPS = st.one_of(st.sampled_from([0.05, 1e-9, 7.0]), st.floats(1e-6, 5.0))
_POSES = st.builds(
    Pose2D, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-4.0, 4.0)
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([0.1, 1.0, 10.0, 60.0]),
    st.lists(st.tuples(_STEPS, _POSES), min_size=1, max_size=80),
    st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_pose_at_equals_the_deque_buffer(horizon, inserts, probes):
    got = PoseBuffer(horizon)
    want = DequePoseBuffer(horizon)
    t = 0.0
    for step, pose in inserts:
        t += step
        got.insert(StampedPose(t, pose))
        want.insert(StampedPose(t, pose))
        assert list(got) == list(want._entries)
        assert len(got) == len(want._entries)
        assert got.span() == (want._entries[0].t, want._entries[-1].t)
        stamps = [sp.t for sp in want._entries]
        lo, hi = stamps[0], stamps[-1]
        queries = [lo, hi, stamps[len(stamps) // 2], lo - 1e-9, hi + 1e-9, lo - horizon]
        queries += [lo + f * (hi - lo) for f in probes]
        for q in queries:
            assert _lookup(got, q) == _lookup(want, q)
    with pytest.raises(NonMonotonicTime):
        got.insert(StampedPose(t, Pose2D(0.0, 0.0)))

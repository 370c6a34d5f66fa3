"""Time-indexed pose history with interpolated lookup.

Consumers receive sensor data stamped at capture time but delivered later;
looking the capture-time pose up in this buffer is what lets them project
stale detections through the transform that was current when the frame was
taken, instead of the transform that is current now.

Single writer assumed: `insert` mutates, readers may call `pose_at` between
inserts.  No locking is provided here.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .geometry import Pose2D, wrap_angle


class NonMonotonicTime(ValueError):
    """Insert with a stamp not strictly newer than the newest entry."""


class OutOfRange(KeyError):
    """Lookup outside the buffered time span; no extrapolation is done."""


@dataclass(frozen=True, slots=True)
class StampedPose:
    t: float
    pose: Pose2D


class PoseBuffer:
    """Bounded history of stamped poses, linearly interpolated on lookup.

    Entries are kept strictly increasing in time.  On every insert, entries
    older than `newest.t - horizon` are evicted, so the span never exceeds
    the retention horizon (60 s by default).
    """

    def __init__(self, horizon: float = 60.0):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        self._entries: deque[StampedPose] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StampedPose]:
        return iter(self._entries)

    def span(self) -> tuple[float, float] | None:
        """(oldest stamp, newest stamp), or None when empty."""
        if not self._entries:
            return None
        return self._entries[0].t, self._entries[-1].t

    def insert(self, sp: StampedPose) -> None:
        """Append a pose; stamps must be strictly increasing.

        Raises:
            NonMonotonicTime: if sp.t <= the newest stored stamp.
        """
        if self._entries and sp.t <= self._entries[-1].t:
            raise NonMonotonicTime(
                f"stamp {sp.t!r} is not after newest {self._entries[-1].t!r}"
            )
        self._entries.append(sp)
        cutoff = sp.t - self.horizon
        while self._entries[0].t < cutoff:
            self._entries.popleft()

    def pose_at(self, t: float) -> Pose2D:
        """Interpolated pose at time t.

        x and y interpolate linearly; theta interpolates along the shortest
        arc.  Lookups at stored stamps return the stored pose exactly.

        Raises:
            OutOfRange: if t falls outside [oldest.t, newest.t] or the
                buffer is empty.
        """
        if not self._entries:
            raise OutOfRange("buffer is empty")
        first = self._entries[0]
        last = self._entries[-1]
        if t < first.t or t > last.t:
            raise OutOfRange(f"t={t!r} outside buffered span [{first.t!r}, {last.t!r}]")
        # binary search over the deque via index; deque indexing is O(n) but
        # buffers stay short-lived and lookups land near the tail in practice
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


def write_trajectory(poses: Iterable[StampedPose], path: str) -> None:
    """Dump a trajectory, one `t x y theta` line per stamped pose."""
    with open(path, "w", encoding="ascii") as f:
        for sp in poses:
            f.write(f"{sp.t!r} {sp.pose.x!r} {sp.pose.y!r} {sp.pose.theta!r}\n")

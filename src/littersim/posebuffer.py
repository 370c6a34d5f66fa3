"""Time-indexed pose history with interpolated lookup.

Consumers receive sensor data stamped at capture time but delivered later;
looking the capture-time pose up in this buffer is what lets them project
stale detections through the transform that was current when the frame was
taken, instead of the transform that is current now.

Single writer assumed: `insert` mutates, readers may call `pose_at` between
inserts.  No locking is provided here.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

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

    Entries live in two parallel lists, stamps and stamped poses, searched
    with `bisect`.  Evicted entries stay below a head index until they
    outnumber the live ones and are then dropped in one slice, so eviction
    costs O(1) amortized.
    """

    def __init__(self, horizon: float = 60.0):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        self._stamps: list[float] = []
        self._entries: list[StampedPose] = []
        self._head = 0  # index of the oldest live entry

    def __len__(self) -> int:
        return len(self._entries) - self._head

    def __iter__(self) -> Iterator[StampedPose]:
        return islice(self._entries, self._head, None)

    def span(self) -> tuple[float, float] | None:
        """(oldest stamp, newest stamp), or None when empty."""
        if not self._stamps:
            return None
        return self._stamps[self._head], self._stamps[-1]

    def insert(self, sp: StampedPose) -> None:
        """Append a pose; stamps must be strictly increasing.

        Raises:
            NonMonotonicTime: if sp.t <= the newest stored stamp.
        """
        stamps = self._stamps
        if stamps and sp.t <= stamps[-1]:
            raise NonMonotonicTime(f"stamp {sp.t!r} is not after newest {stamps[-1]!r}")
        stamps.append(sp.t)
        self._entries.append(sp)
        cutoff = sp.t - self.horizon
        head = self._head
        while stamps[head] < cutoff:
            head += 1
        if 2 * head > len(stamps):
            del stamps[:head]
            del self._entries[:head]
            head = 0
        self._head = head

    def pose_at(self, t: float) -> Pose2D:
        """Interpolated pose at time t.

        x and y interpolate linearly; theta interpolates along the shortest
        arc.  Lookups at stored stamps return the stored pose exactly.

        Raises:
            OutOfRange: if t falls outside [oldest.t, newest.t] or the
                buffer is empty.
        """
        stamps = self._stamps
        if not stamps:
            raise OutOfRange("buffer is empty")
        first = stamps[self._head]
        last = stamps[-1]
        if t < first or t > last:
            raise OutOfRange(f"t={t!r} outside buffered span [{first!r}, {last!r}]")
        # a bracketing pair: lo is the newest entry at or before t, hi the
        # one after it (lo, hi are the last pair when t is the newest stamp)
        hi = min(bisect_right(stamps, t, self._head), len(stamps) - 1)
        lo = max(hi - 1, self._head)
        entries = self._entries
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

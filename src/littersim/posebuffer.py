"""Time-indexed pose history with interpolated lookup.

Consumers receive sensor data stamped at capture time but delivered later;
looking the capture-time pose up in this store is what lets them project
stale detections through the transform that was current when the frame was
taken, instead of the transform that is current now.

One store holds a run's whole pose history: every `(t, pose)` pair, in two
parallel lists, which is also what `write_trajectory` dumps.  Nothing is
evicted.  The retention horizon is enforced when `pose_at` looks a pose up,
from the newest stamp, so an insert is two list appends.

Single writer assumed: `insert` mutates, readers may call `pose_at` between
inserts.  No locking is provided here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

from .geometry import Pose2D, wrap_angle


class NonMonotonicTime(ValueError):
    """Insert with a stamp not strictly newer than the newest entry."""


class OutOfRange(KeyError):
    """Lookup outside the buffered time span; no extrapolation is done."""


class PoseBuffer:
    """Every stamped pose, linearly interpolated on lookup within a horizon.

    Stamps are kept strictly increasing.  Iteration and `len` cover every
    stored `(t, pose)` pair.  `pose_at` answers only from the oldest stamp
    at or after `newest.t - horizon` (60 s by default) to the newest one,
    the entries a buffer that evicted older ones on every insert would
    still hold; `span` reports that window.
    """

    def __init__(self, horizon: float = 60.0):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        self._stamps: list[float] = []
        self._poses: list[Pose2D] = []

    def __len__(self) -> int:
        return len(self._stamps)

    def __iter__(self) -> Iterator[tuple[float, Pose2D]]:
        return zip(self._stamps, self._poses)

    def span(self) -> tuple[float, float] | None:
        """(oldest stamp inside the horizon, newest stamp), or None when
        empty."""
        stamps = self._stamps
        if not stamps:
            return None
        return stamps[bisect_left(stamps, stamps[-1] - self.horizon)], stamps[-1]

    def insert(self, t: float, pose: Pose2D) -> None:
        """Append a pose; stamps must be strictly increasing.

        Raises:
            NonMonotonicTime: if t <= the newest stored stamp.
        """
        stamps = self._stamps
        if stamps and t <= stamps[-1]:
            raise NonMonotonicTime(f"stamp {t!r} is not after newest {stamps[-1]!r}")
        stamps.append(t)
        self._poses.append(pose)

    def pose_at(self, t: float) -> Pose2D:
        """Interpolated pose at time t.

        x and y interpolate linearly; theta interpolates along the shortest
        arc.  Lookups at stored stamps return the stored pose exactly.

        Raises:
            OutOfRange: if t falls outside `span()` or the buffer is empty.
        """
        stamps = self._stamps
        if not stamps:
            raise OutOfRange("buffer is empty")
        # lo is the newest entry at or before t; t is in the span exactly
        # when that entry is inside the horizon
        lo = bisect_right(stamps, t) - 1
        if lo < 0 or stamps[lo] < stamps[-1] - self.horizon or t > stamps[-1]:
            first, last = self.span()
            raise OutOfRange(f"t={t!r} outside buffered span [{first!r}, {last!r}]")
        poses = self._poses
        ta = stamps[lo]
        a = poses[lo]
        if t == ta:
            return a
        tb = stamps[lo + 1]
        b = poses[lo + 1]
        frac = (t - ta) / (tb - ta)
        dtheta = wrap_angle(b.theta - a.theta)
        return Pose2D(
            a.x + frac * (b.x - a.x),
            a.y + frac * (b.y - a.y),
            a.theta + frac * dtheta,
        )


def write_trajectory(poses: Iterable[tuple[float, Pose2D]], path: str) -> list[str]:
    """Dump a trajectory, one `t x y theta` line per `(t, pose)` pair, in
    one write.  Returns the lines, newline included, so other dumps can
    quote a pose without formatting it again."""
    lines = [f"{t!r} {p.x!r} {p.y!r} {p.theta!r}\n" for t, p in poses]
    with open(path, "w", encoding="ascii") as f:
        f.write("".join(lines))
    return lines

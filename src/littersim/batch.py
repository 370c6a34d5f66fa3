"""Batches: every seed at every sweep point, in a pool of spawned processes
when more than one CPU is usable, with the rows and files of a sequential
run.  Each mission is `mission.run_mission` of its own config."""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator, Sequence
from itertools import islice, product

from .config import ConfigError, apply_override, build_config
from .report import _finite_mean


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, cols: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def _batch_row(task: tuple[dict[str, list[str]], int, tuple[tuple[str, str], ...]]) -> dict:
    """Run one batch mission from its raw config, seed and sweep point, a
    tuple of (key, value) pairs; returns its runs.csv row.  A ConfigError
    of its config or its mission is raised again naming the seed and the
    sweep point."""
    # looked up on the mission module when the row runs: mission imports
    # this module to re-export run_batch
    from .mission import run_mission

    raw_run, seed, point = task
    try:
        report = run_mission(build_config(raw_run))
    except ConfigError as exc:
        raise _named(exc, seed, point) from None
    return {
        "seed": seed,
        **dict(point),
        "success": report.success,
        "n_collected": report.n_collected,
        "n_trash": report.n_trash,
        "mean_map_error_m": report.mean_map_error,
        "wall_time_s": report.wall_time,
    }


def _named(exc: ConfigError, seed: int, point: tuple[tuple[str, str], ...]) -> ConfigError:
    """`exc` again, its message led by the batch run's seed and sweep point."""
    where = "".join(f", {k}={v}" for k, v in point)
    return ConfigError(f"seed {seed}{where}: {exc}")


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_map(fn, items: Iterator, workers: int) -> Iterator:
    """`map(fn, items)` over a pool of `workers` processes, yielding results
    in the order of `items`.  At most 2 x `workers` items are submitted ahead
    of the one yielded next, so a long `items` costs no memory.  The first
    exception in that order is raised, and the items not yet started are
    cancelled.  Workers are spawned, not forked, so they start from a
    fresh import whatever threads this process runs."""
    # imported here, so a run that starts no pool does not pay for it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        ahead: deque = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) >= 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_batch(
    raw: dict[str, list[str]],
    seeds: Sequence[int],
    sweep: list[tuple[str, list[str]]],
    out_dir: str | None = None,
) -> tuple[list[dict], list[dict]]:
    """Run every sweep-point x seed combination, seeds innermost.

    Returns (rows, aggregates) and, when out_dir is set, writes runs.csv
    (one row per run) and aggregate.csv (one row per sweep point).  The
    seeds come from `seeds` alone, so sweeping `world.seed` is a
    ConfigError, and so is sweeping one key twice.  A batch of more than
    one mission on a machine that lets this process use more than one CPU
    runs its missions in a pool of spawned processes, one per CPU or per
    mission, whichever is fewer; the rows, the files and the first error
    raised are those of a sequential run.  Each sweep point's config is
    built with the first seed before any mission runs, so an invalid one
    ends the batch at once.  Its ConfigError names that seed and the
    point, as a mission's does, unless the config has the same error
    without the sweep.  A script that calls this needs
    the `if __name__ == "__main__":` guard spawned processes ask for.
    """
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    sweep_keys = [key for key, _ in sweep]
    if "world.seed" in sweep_keys:
        raise ConfigError("world.seed cannot be swept; list the seeds with --seeds")
    repeated = sorted({key for key in sweep_keys if sweep_keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"sweep key {repeated[0]!r} is given more than once")
    points = [tuple(zip(sweep_keys, combo)) for combo in product(*(values for _, values in sweep))]

    def raw_run(point: tuple[tuple[str, str], ...], seed: int) -> dict[str, list[str]]:
        out = dict(raw)
        for key, value in point:
            apply_override(out, key, value)
        apply_override(out, "world.seed", str(seed))
        return out

    def config_error(point: tuple[tuple[str, str], ...]) -> ConfigError | None:
        first = raw_run(point, seeds[0])
        try:
            build_config(first)
        except ConfigError as exc:
            return exc
        return None

    # an error the config has without the sweep is not the point's
    unswept = config_error(())
    for point in points:
        exc = config_error(point)
        if exc is not None:
            if unswept is not None and str(exc) == str(unswept):
                raise exc
            raise _named(exc, seeds[0], point)

    tasks = ((raw_run(point, seed), seed, point) for point in points for seed in seeds)
    workers = min(_usable_cpus(), len(points) * len(seeds))
    results = map(_batch_row, tasks) if workers == 1 else _pool_map(_batch_row, tasks, workers)
    rows: list[dict] = []
    aggregates: list[dict] = []
    for point in points:
        combo_rows = list(islice(results, len(seeds)))
        rows.extend(combo_rows)
        n = len(combo_rows)
        agg = dict(point)
        agg.update(
            n_runs=n,
            success_rate=sum(1 for r in combo_rows if r["success"]) / n,
            mean_map_error_m=_finite_mean([r["mean_map_error_m"] for r in combo_rows]),
            mean_wall_time_s=sum(r["wall_time_s"] for r in combo_rows) / n,
        )
        aggregates.append(agg)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        run_cols = ["seed", *sweep_keys, "success", "n_collected", "n_trash", "mean_map_error_m", "wall_time_s"]
        _write_csv(os.path.join(out_dir, "runs.csv"), run_cols, rows)
        agg_cols = [*sweep_keys, "n_runs", "success_rate", "mean_map_error_m", "mean_wall_time_s"]
        _write_csv(os.path.join(out_dir, "aggregate.csv"), agg_cols, aggregates)
    return rows, aggregates

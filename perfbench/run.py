"""littersim benchmark: one closed-loop client running one episode at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a littersim checkout; the library is imported from its
`src/` directory.  Workloads are listed in `workloads.py` and explained in
`DESIGN.md`, and the metrics' names and units come from `BENCHMARK.json`.
One process, no threads: each episode starts when the last
one and its output check have finished.

With `--trace 0` the run sets up (import, the workload's inputs, one
fixed warm-up episode), then runs episodes until `--seconds` have passed
and the workload's fixed outcome set is complete, replays episode 0
untimed to check that it gives the same outputs, then sets up twice more
in fresh processes so that `setup_s` is a median of three.  With
`--trace 1` it runs each episode twice, once plain and once with the
per-layer tracer installed; both runs must give the same outputs, and
their time difference is the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
# stop starting episodes past this, whatever the outcome set still needs,
# so a run always ends well inside the 180 s a run may take
HARD_LIMIT_S = 120.0

# workload and metric names, units and directions
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metrics other than `<layer>.calls`, `<layer>.busy_s` and
# `tracer.overhead`: value(tracer, episodes)
LAYER_EXTRAS = {
    "gridmap.trace_cells.cells":
        lambda t, n: t.counts["gridmap.trace_cells.cells"] / n,
    "simworld.step_world.contact_ratio":
        lambda t, n: _ratio(t.counts["simworld.step_world.contacts"], t.stat("simworld.step_world")[0]),
    "simworld.detect.boxes":
        lambda t, n: t.counts["simworld.detect.boxes"] / n,
    "posebuffer.pose_at.out_of_range":
        lambda t, n: t.counts["posebuffer.pose_at.out_of_range"] / n,
    "geometry.project_detection.degenerate":
        lambda t, n: t.counts["geometry.project_detection.degenerate"] / n,
    "pickup.step.done_ratio":
        lambda t, n: _ratio(t.counts["pickup.step.done"],
                            t.counts["pickup.step.done"] + t.counts["pickup.step.timed_out"]),
    "clusterfilter.ingest.confirmed_ratio":
        lambda t, n: _ratio(t.counts["clusterfilter.ingest.confirmed"], t.stat("clusterfilter.ingest")[0]),
    "planner.approach_goal.found_ratio":
        lambda t, n: _ratio(t.counts["planner.approach_goal.found"], t.stat("planner.approach_goal")[0]),
    "planner.approach_goal.start_occupied":
        lambda t, n: t.counts["planner.approach_goal.start_occupied"] / n,
    "mission.run_mission.self_s":
        lambda t, n: t.stat("mission.run_mission")[2] / n,
}


def layer_value(tracer, n: int, name: str) -> float:
    """Per-episode value of the per-layer metric `name`."""
    layer, _, field = name.rpartition(".")
    if field == "calls":
        return tracer.stat(layer)[0] / n
    if field == "busy_s":
        return tracer.stat(layer)[1] / n
    return LAYER_EXTRAS[name](tracer, n)


@dataclass
class Sample:
    """One episode: host wall and CPU seconds, and its check's outcome or
    the reason it failed."""

    index: int
    wall: float
    cpu: float
    outcome: object = None
    error: str | None = None


def import_workloads():
    """Import the benchmark's workloads against this checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "littersim", "__init__.py")):
        sys.exit(f"perfbench: no littersim sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import littersim
    import workloads

    if os.path.dirname(os.path.abspath(littersim.__file__)) != os.path.join(SRC, "littersim"):
        sys.exit(f"perfbench: imported littersim from {littersim.__file__}, not {SRC}")
    return workloads


def run_episode(wl, i: int, tracer=None) -> Sample:
    """Time one episode, then check its outputs untimed."""
    error = None
    result = None
    if tracer is not None:
        tracer.begin(i)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = wl.episode(i)
    except Exception:
        error = traceback.format_exc()
    finally:
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.end()
    sample = Sample(i, t1 - t0, c1 - c0, error=error)
    if error is None:
        try:
            sample.outcome = wl.check(i, result)
        except Exception:
            sample.error = traceback.format_exc()
    if sample.error is not None:
        print(f"episode {i} failed:\n{sample.error}", file=sys.stderr)
    return sample


def set_up(name: str, seed: int, out_dir: str):
    """Import, build the workload's inputs, run the fixed warm-up episode.
    Returns (workloads module, workload, seconds)."""
    t0 = time.perf_counter()
    mod = import_workloads()
    wl = mod.WORKLOADS[name](seed, out_dir)
    wl.warm_up()
    return mod, wl, time.perf_counter() - t0


def closed_loop(wl, seconds: float, min_episodes: int) -> list[Sample]:
    """Episodes 0, 1, ... until `seconds` have passed and at least
    `min_episodes` ran (or the hard limit is hit)."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S:
            break
        if len(samples) >= min_episodes and elapsed >= seconds:
            break
        samples.append(run_episode(wl, len(samples)))
    return samples


def mark_replay(samples: list[Sample], reference: list[Sample], what: str) -> None:
    """Fail each sample whose other run failed or gave different outputs."""
    for s, ref in zip(samples, reference):
        if s.error is not None:
            continue
        if ref.error is not None:
            s.error = f"{what} failed"
        elif s.outcome.digest != ref.outcome.digest:
            s.error = f"{what} gave different outputs"
        else:
            continue
        print(f"episode {s.index} failed: {s.error}", file=sys.stderr)


def tail_percentile(check_episodes: int) -> float:
    """Highest percentile, to 0.1, with at least ten of `check_episodes`
    samples beyond it; fixed per workload so that commits compare."""
    return math.floor(1000.0 * (1.0 - 10.0 / check_episodes)) / 10.0


def end_to_end(wl, samples: list[Sample]) -> dict:
    """Every end-to-end figure but `setup_s`, including those only printed
    for reading."""
    walls = sorted(s.wall for s in samples)
    n = len(walls)
    p = tail_percentile(wl.check_episodes)
    k = min(n - 1, max(0, math.ceil(p / 100.0 * n) - 1))
    checked = samples[: wl.check_episodes]
    outcomes = [s.outcome for s in checked if s.error is None]
    digest = hashlib.sha256()
    for s in checked:
        digest.update(s.outcome.digest if s.error is None else b"failed")
    ok = [s for s in samples if s.error is None]
    sim = sum(s.outcome.sim_s for s in ok)
    errors = [o.map_error for o in outcomes if math.isfinite(o.map_error)]
    return {
        "episodes_per_s": n / sum(walls),
        "episode_s_p50": statistics.median(walls),
        "episode_s_tail": walls[k],
        "tail_percentile": p,
        "tail_beyond": n - k - 1,
        "sim_s_per_cpu_s": sim / sum(s.cpu for s in ok) if sim > 0.0 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_fraction": sum(1 for s in samples if s.error is not None) / n,
        "success_rate": _ratio(sum(o.succeeded for o in outcomes), sum(o.items for o in outcomes)),
        "mean_map_error_m": sum(errors) / len(errors) if errors else None,
        "checked": len(checked),
        "outputs_sha256": digest.hexdigest(),
    }


def print_end_to_end(name: str, m: dict, n: int) -> None:
    print(f"{name}: {n} episodes, {m['checked']} in the outcome set")
    setups = ", ".join(f"{t:.4f}" for t in m["setups"])
    print(f"  setup_s          {m['setup_s']:.4f} s (median of {setups})")
    print(f"  episodes_per_s   {m['episodes_per_s']:.4f} 1/s")
    print(f"  episode_s_p50    {m['episode_s_p50']:.6f} s")
    print(
        f"  episode_s_tail   {m['episode_s_tail']:.6f} s "
        f"(p{m['tail_percentile']}, {m['tail_beyond']} of {n} samples beyond)"
    )
    if m["sim_s_per_cpu_s"] is not None:
        print(f"  sim_s_per_cpu_s  {m['sim_s_per_cpu_s']:.2f} s/s")
    print(f"  peak_rss_mb      {m['peak_rss_mb']:.1f} MB")
    print(f"  failed_fraction  {m['failed_fraction']!r} ratio")
    print(f"  success_rate     {m['success_rate']!r} ratio")
    if m["mean_map_error_m"] is not None:
        print(f"  mean_map_error_m {m['mean_map_error_m']!r} m")
    print(f"  outputs_sha256   {m['outputs_sha256']}")


def setup_in_fresh_processes(name: str, seed: int) -> list[float]:
    """Set-up seconds from SETUP_REPEATS - 1 fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", "0", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure_traced(mod, wl, seconds: float, spans_path: str) -> tuple[dict, list[Sample]]:
    """Run each episode plain and traced back to back, alternating which
    goes first so that drift in machine speed cancels out of the overhead."""
    from tracer import Tracer

    tracer = Tracer(mod)
    plain: list[Sample] = []
    traced: list[Sample] = []
    deadline = time.perf_counter() + min(seconds, HARD_LIMIT_S)
    while not plain or time.perf_counter() < deadline:
        i = len(plain)
        for with_tracer in (False, True) if i % 2 == 0 else (True, False):
            if not with_tracer:
                plain.append(run_episode(wl, i))
                continue
            tracer.install()
            try:
                traced.append(run_episode(wl, i, tracer))
            finally:
                tracer.uninstall()
    mark_replay(traced, plain, "the traced run")
    tracer.write_spans(spans_path)
    n = len(traced)
    values = {
        m["name"]: layer_value(tracer, n, m["name"])
        for m in SPEC["per_layer"]
        if m["name"] != "tracer.overhead"
    }
    values["tracer.overhead"] = sum(s.wall for s in traced) / sum(s.wall for s in plain) - 1.0
    return values, plain + traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    out_dir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        mod, wl, setup_s = set_up(args.workload, args.seed, out_dir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            spans_path = os.path.join(OUT, f"trace-{args.workload}.tsv")
            metrics, samples = measure_traced(mod, wl, args.seconds, spans_path)
            units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            print(f"{args.workload} traced: {len(samples) // 2} episodes run plain and traced, spans in {spans_path}")
            for name, value in metrics.items():
                print(f"  {name:44s} {value:.6g} {units[name]}")
            complete = True
        else:
            samples = closed_loop(wl, args.seconds, wl.check_episodes)
            mark_replay(samples[:1], [run_episode(wl, 0)], "replaying episode 0")
            metrics = end_to_end(wl, samples)
            metrics["setups"] = [setup_s, *setup_in_fresh_processes(args.workload, args.seed)]
            metrics["setup_s"] = statistics.median(metrics["setups"])
            units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            complete = len(samples) >= wl.check_episodes
            print_end_to_end(args.workload, metrics, len(samples))
            if not complete:
                print(f"outcome set incomplete: {len(samples)} of {wl.check_episodes}", file=sys.stderr)
            metrics = {name: metrics[name] for name in units}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = sum(1 for s in samples if s.error is not None)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

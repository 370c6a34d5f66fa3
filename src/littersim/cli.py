"""Command line front end.

Three subcommands: `run` executes one mission and writes its report and
dump files, `batch` runs a seed list across an optional parameter sweep
and writes runs.csv/aggregate.csv, `map` runs only the survey and mapping
phases and writes the map file.  Exit codes: 0 success, 1 configuration
error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import re
import sys

from .config import ConfigError, load_config, parse_config
from .gridmap import save_map
from .mission import run_batch, run_mapping, run_mission


def _parse_seeds(text: str) -> range | list[int]:
    """Seed list syntax: 'a..b' (inclusive range, returned as a range, so a
    huge one costs no memory) or comma-separated ints."""
    try:
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            lo, hi = int(lo_text, 10), int(hi_text, 10)
            if hi < lo:
                raise ConfigError(f"seed range {text!r} is empty")
            return range(lo, hi + 1)
        return [int(part, 10) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad seed list {text!r}") from None


def _parse_sweep(items: list[str]) -> list[tuple[str, list[str]]]:
    sweep = []
    for item in items:
        key, sep, values = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"bad sweep {item!r}, expected key=v1,v2,...")
        vals = [v.strip() for v in values.split(",") if v.strip() != ""]
        if not vals:
            raise ConfigError(f"sweep {item!r} has no values")
        sweep.append((key.strip(), vals))
    return sweep


def _attach_seed_lists(argv: list[str]) -> list[str]:
    """Join `--seeds` to a value that starts with a minus and a digit.

    argparse reads such a value as an option unless it is a plain negative
    number, so `--seeds -1..0` would end in a usage error; as
    `--seeds=-1..0` it reaches the seed check."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--seeds" and re.match(r"-\d", arg):
            out[-1] = f"--seeds={arg}"
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="littersim",
        description="Deterministic litter-collection mission simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one mission")
    run_p.add_argument("--config", help="scenario config file (defaults when omitted)")
    run_p.add_argument("--seed", type=int, help="override world.seed")
    run_p.add_argument("--out", help="directory for report and dump files")

    batch_p = sub.add_parser("batch", help="run a seed list across a sweep")
    batch_p.add_argument("--config", help="scenario config file")
    batch_p.add_argument("--seeds", required=True, help="'a..b' or 'n1,n2,...'")
    batch_p.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="KEY=V1,V2",
        help="sweep one config key over values; repeatable",
    )
    batch_p.add_argument("--out", help="directory for runs.csv and aggregate.csv")

    map_p = sub.add_parser("map", help="survey and mapping phases only")
    map_p.add_argument("--config", help="scenario config file")
    map_p.add_argument("--out", required=True, help="output map file")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config, overrides=_seed_override(args.seed), output_dir=args.out)
    report = run_mission(cfg)
    print(f"seed = {report.seed}")
    print(f"success = {'true' if report.success else 'false'}")
    print(f"collected = {report.n_collected}/{report.n_trash}")
    print(f"mean_map_error_m = {report.mean_map_error!r}")
    print(f"wall_time_s = {report.wall_time!r}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _seed_override(seed: int | None) -> list[tuple[str, str]]:
    return [] if seed is None else [("world.seed", str(seed))]


def _cmd_batch(args) -> int:
    if args.config is None:
        raw: dict[str, list[str]] = {}
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = parse_config(fh.read())
    seeds = _parse_seeds(args.seeds)
    sweep = _parse_sweep(args.sweep)
    _rows, aggregates = run_batch(raw, seeds, sweep, out_dir=args.out)
    for agg in aggregates:
        parts = [f"{k}={v}" for k, v in agg.items()]
        print("  ".join(parts))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_map(args) -> int:
    cfg = load_config(args.config)
    grid, hypotheses, _world = run_mapping(cfg)
    save_map(grid, args.out)
    print(f"confirmed_hypotheses = {len(hypotheses)}")
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_seed_lists(argv))
    handlers = {"run": _cmd_run, "batch": _cmd_batch, "map": _cmd_map}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line store administration: ``repro-store``.

Subcommands::

    repro-store merge STORE [--from DIR ...]
    repro-store gc STORE --max-age DAYS --max-size MB [--dry-run]
    repro-store stats STORE
    repro-store runs STORE [--last N]

``merge`` always folds the store's own ``shard-*/`` directories into
the master areas (``--keep-shards`` preserves them); ``--from`` pulls
in foreign stores, shard directories, or bare run-history directories
(read-only).  Exit codes follow the house convention: 0 success, 2
unusable invocation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from .gc import collect_garbage
from .merge import merge_into
from .store import Store


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Administer a sharded repro result store: merge "
                    "shards and foreign stores, collect garbage, "
                    "inspect objects and run history.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    merge = commands.add_parser(
        "merge", help="fold shards (and other stores) into the "
                      "master store")
    merge.add_argument("store", metavar="STORE",
                       help="master store directory")
    merge.add_argument("--from", dest="sources", action="append",
                       default=[], metavar="DIR",
                       help="also merge DIR (a store, shard, object "
                            "area, or run-history directory; "
                            "read-only; repeatable)")
    merge.add_argument("--keep-shards", action="store_true",
                       help="leave the store's own shard directories "
                            "in place after merging")
    merge.add_argument("--json", metavar="FILE",
                       help="also write the merge statistics as JSON")

    gc = commands.add_parser(
        "gc", help="sweep old/oversized cache entries (run-manifest "
                   "references are never swept)")
    gc.add_argument("store", metavar="STORE",
                    help="store directory to collect")
    gc.add_argument("--max-age", type=float, default=None,
                    metavar="DAYS",
                    help="sweep entries older than DAYS")
    gc.add_argument("--max-size", type=float, default=None,
                    metavar="MB",
                    help="keep at most MB of entries, newest first")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be swept without removing "
                         "anything")

    stats = commands.add_parser(
        "stats", help="object, run, and shard counts")
    stats.add_argument("store", metavar="STORE",
                       help="store directory to inspect")
    stats.add_argument("--json", metavar="FILE",
                       help="also write the statistics as JSON")

    runs = commands.add_parser(
        "runs", help="list the run history (shard tables included)")
    runs.add_argument("store", metavar="STORE",
                      help="store directory to inspect")
    runs.add_argument("--last", type=int, default=20, metavar="N",
                      help="show the last N runs (default 20)")
    return parser


def _write_json(path: str, document) -> bool:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
    except OSError as error:
        print(f"cannot write JSON: {error}", file=sys.stderr)
        return False
    return True


def _merge(args) -> int:
    store = Store(args.store)
    try:
        stats = merge_into(store, sources=args.sources,
                           remove_shards=not args.keep_shards)
    except OSError as error:
        print(f"cannot merge into store: {error}", file=sys.stderr)
        return 2
    print(f"merged {stats.shards_merged} shard(s)"
          + (f" + {len(stats.sources)} source(s)"
             if stats.sources else "")
          + f" into {args.store}")
    print(f"objects: {stats.objects_added} added, "
          f"{stats.objects_identical} identical, "
          f"{stats.objects_conflicts} conflict(s)")
    print(f"runs: {stats.runs_added} added, "
          f"{stats.runs_known} already recorded")
    if args.json and not _write_json(args.json, stats.to_dict()):
        return 2
    return 0


def _gc(args) -> int:
    if args.max_age is None and args.max_size is None:
        print("gc needs --max-age DAYS and/or --max-size MB",
              file=sys.stderr)
        return 2
    for name, value in (("--max-age", args.max_age),
                        ("--max-size", args.max_size)):
        if value is not None and not (math.isfinite(value)
                                      and value >= 0):
            print(f"{name} must be >= 0 and finite, got {value}",
                  file=sys.stderr)
            return 2
    stats = collect_garbage(Store(args.store),
                            max_age_days=args.max_age,
                            max_size_mb=args.max_size,
                            dry_run=args.dry_run)
    verb = "would sweep" if args.dry_run else "swept"
    print(f"{verb} {stats.swept} entr{'y' if stats.swept == 1 else 'ies'}"
          f" ({stats.swept_bytes} bytes) of {stats.examined} examined; "
          f"kept {stats.kept_fresh} fresh, "
          f"{stats.kept_referenced} run-referenced")
    return 0


def _stats(args) -> int:
    stats = Store(args.store).stats()
    print(f"store {stats.root}")
    print(f"  objects: {stats.objects} ({stats.object_bytes} bytes)")
    print(f"  runs:    {stats.runs}")
    print(f"  shards:  {stats.shards} "
          f"({stats.shard_objects} objects, {stats.shard_runs} runs "
          f"pending merge)")
    if args.json and not _write_json(args.json, stats.to_dict()):
        return 2
    return 0


def _runs(args) -> int:
    if args.last < 1:
        print(f"--last must be a positive integer, got {args.last}",
              file=sys.stderr)
        return 2
    history = Store(args.store).history()
    try:
        records = history.tail(args.last)
    except OSError as error:
        print(f"cannot read run history: {error}", file=sys.stderr)
        return 2
    if not records:
        print(f"store {args.store} holds no readable run manifests",
              file=sys.stderr)
        return 2
    header = (f"{'run':<13}{'timestamp':<21}{'shard':<8}{'units':>6}"
              f"{'findings':>9}{'exit':>5}")
    print(header)
    print("-" * len(header))
    for record in records:
        print(f"{record.run_id[:12]:<13}{record.timestamp[:20]:<21}"
              f"{(record.shard or '-'):<8}"
              f"{record.corpus.get('units', 0):>6}"
              f"{record.total_findings:>9}{record.exit_code:>5}")
    if history.corrupt_lines:
        print(f"({history.corrupt_lines} corrupt line(s) skipped)",
              file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    return {"merge": _merge, "gc": _gc,
            "stats": _stats, "runs": _runs}[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

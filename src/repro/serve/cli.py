"""Command-line entry point: ``repro-serve``.

Examples::

    repro-serve src/                    # stdio: JSON requests on stdin
    repro-serve src/ --tcp 127.0.0.1:9026
    repro-serve --watch src/ --interval 2

Stdio and TCP modes answer the line-delimited JSON protocol
(:mod:`repro.serve.protocol`); ``--watch`` turns the same warm server
into a streaming re-assessor that prints one JSON event per material
change.  All three share the hot cache: the daemon parses and checks
each file version exactly once.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import ReproError
from ..obs import LEVELS, EventLog
from ..rules import REGISTRY, profile_from_globs
from ..store import Store, new_run_id
from .protocol import encode_reply
from .server import AssessmentServer, run_stdio, run_tcp
from .stream import watch_events


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-lived assessment daemon: answers assess/diff/"
                    "rules/stats requests over line-delimited JSON "
                    "with a hot parse/check cache, or streams "
                    "incremental re-assessments with --watch.")
    parser.add_argument("path", nargs="?",
                        help="default source tree for requests that "
                             "carry no \"path\"")
    parser.add_argument("--tcp", metavar="HOST:PORT",
                        help="serve over TCP instead of stdio (PORT 0 "
                             "binds an ephemeral port, printed on "
                             "stderr)")
    parser.add_argument("--watch", metavar="PATH",
                        help="watch PATH: assess once, then re-assess "
                             "only what changes, one JSON event line "
                             "per assessment")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="poll interval for --watch (default 2.0)")
    parser.add_argument("--iterations", type=int, default=0, metavar="N",
                        help="stop --watch after N polls past the "
                             "baseline (default 0 = run until "
                             "interrupted)")
    parser.add_argument("--store", metavar="DIR",
                        help="back the daemon with a sharded result "
                             "store: its object area is the cache and "
                             "every served assessment appends a run "
                             "manifest for repro-trends (default: a "
                             "process-private in-memory cache and no "
                             "run history)")
    parser.add_argument("--enable", action="append", metavar="GLOB",
                        default=None,
                        help="enable only rules matching GLOB "
                             "(repeatable)")
    parser.add_argument("--disable", action="append", metavar="GLOB",
                        default=None,
                        help="disable rules matching GLOB (repeatable; "
                             "applied after --enable)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for each assessment's "
                             "fan-out (default 1 = serial)")
    parser.add_argument("--strict", action="store_true",
                        help="re-raise contained faults instead of "
                             "degrading the affected reply (debugging "
                             "aid; a strict fault kills the daemon)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task deadline for --jobs > 1")
    parser.add_argument("--log-json", metavar="FILE",
                        help="write structured JSONL events (requests, "
                             "skipped files, contained crashes) to "
                             "FILE")
    parser.add_argument("--log-level", choices=tuple(LEVELS),
                        default=None,
                        help="minimum level written to --log-json "
                             "(default info)")
    return parser


def _parse_endpoint(value: str):
    host, separator, port = value.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"--tcp expects HOST:PORT, got {value!r}")
    return host, int(port)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    root = args.watch or args.path
    if root is None:
        parser.error("give a source tree path (or --watch PATH)")
    if args.watch and args.tcp:
        print("--watch and --tcp are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"--interval must be positive, got {args.interval}",
              file=sys.stderr)
        return 2
    if args.iterations < 0:
        print(f"--iterations must be >= 0, got {args.iterations}",
              file=sys.stderr)
        return 2
    if args.task_timeout is not None and args.task_timeout <= 0:
        print(f"--task-timeout must be positive, got "
              f"{args.task_timeout}", file=sys.stderr)
        return 2
    if args.log_level is not None and not args.log_json:
        print("--log-level has no effect without --log-json",
              file=sys.stderr)
        return 2
    endpoint = None
    if args.tcp:
        try:
            endpoint = _parse_endpoint(args.tcp)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    try:
        profile = profile_from_globs(args.enable, args.disable,
                                     REGISTRY)
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    store = Store(args.store) if args.store else None
    log_handle = None
    event_log = None
    if args.log_json:
        try:
            log_handle = open(args.log_json, "w", encoding="utf-8")
        except OSError as error:
            print(f"cannot open event log: {error}", file=sys.stderr)
            return 2
        event_log = EventLog(log_handle,
                             level=args.log_level or "info",
                             run_id=new_run_id())
    server = AssessmentServer(
        root, profile=profile, store=store, jobs=args.jobs,
        strict=args.strict, task_timeout=args.task_timeout,
        log=event_log)
    try:
        if args.watch:
            return _watch(server, args)
        if endpoint is not None:
            def announce(bound) -> None:
                print(f"repro-serve listening on "
                      f"{bound[0]}:{bound[1]}", file=sys.stderr)
            run_tcp(server, endpoint[0], endpoint[1], ready=announce)
            return 0
        run_stdio(server, sys.stdin, sys.stdout)
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        if log_handle is not None:
            log_handle.close()


def _watch(server: AssessmentServer, args) -> int:
    """Run the watch loop; exit 3 when any iteration was degraded."""
    import os

    root = os.path.abspath(args.watch)
    degraded = False
    try:
        for event in watch_events(server, root,
                                  iterations=args.iterations,
                                  interval=args.interval):
            degraded = degraded or bool(event.get("degraded"))
            sys.stdout.write(encode_reply(event))
            sys.stdout.flush()
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 3 if degraded else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

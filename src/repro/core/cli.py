"""Command-line entry point: ``repro-assess``.

Examples::

    repro-assess path/to/codebase          # assess a source tree
    repro-assess --corpus 0.1              # generate + assess a corpus
    repro-assess --corpus 1.0 --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from ..corpus.apollo import apollo_spec
from ..corpus.generator import generate_corpus
from ..corpus.writer import read_tree
from ..errors import (
    BaselineError,
    ConfigError,
    CorpusError,
    ReportError,
    RuleError,
)
from ..obs import (
    LEVELS,
    EventLog,
    Tracer,
    render_hotspots,
    render_profile,
    render_self_time,
    render_span_tree,
    trace_document,
)
from ..report import (
    ReportTargets,
    build_report_model,
    collect_yolo_coverage,
    configured_reporters,
)
from ..rules import REGISTRY, Baseline, profile_from_globs, render_rules
from ..store import (
    Store,
    build_run_record,
    default_shard_name,
    merge_into,
    new_run_id,
)
from .config import PipelineConfig
from .diff import diff_assessments, gap_reduction, load_assessment_view
from .pipeline import AssessmentPipeline


def _shard_name(shard: Optional[str]) -> Optional[str]:
    """The shard directory name for a ``--shard K/N`` run.

    The slice is folded into the name (``shard-<host>-<pid>-1of2``) so
    one process driving several slices — CI matrix legs on one runner,
    or the in-process test harness — writes each slice into its own
    shard directory.
    """
    if not shard:
        return None
    return default_shard_name(shard.replace("/", "of"))


def _package_version() -> str:
    """The installed distribution version, else the source-tree version."""
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:  # PackageNotFoundError, or no importlib.metadata
        from .. import __version__
        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-assess",
        description="Assess a C/C++/CUDA codebase against the ISO 26262-6 "
                    "software guidelines (DAC 2019 reproduction).")
    parser.add_argument("path", nargs="?",
                        help="root of the source tree to assess")
    parser.add_argument("--corpus", type=float, metavar="SCALE",
                        help="generate and assess the synthetic "
                             "Apollo-like corpus at the given scale "
                             "instead of reading a tree")
    parser.add_argument("--seed", type=int, default=26262,
                        help="corpus generation seed (default 26262)")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the assessment as JSON")
    parser.add_argument("--markdown", metavar="FILE",
                        help="also write the assessment as Markdown")
    parser.add_argument("--html", metavar="DIR",
                        help="write the self-contained HTML dashboard "
                             "(overview + per-module drilldowns + "
                             "annotated coverage) into DIR")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write the findings as SARIF 2.1.0 "
                             "(deviation suppressions included)")
    parser.add_argument("--cobertura", metavar="FILE",
                        help="also write the YOLO coverage experiment "
                             "as Cobertura XML")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the parse/checker "
                             "fan-out (default 1 = serial, 0 = one per "
                             "CPU); results are identical at any "
                             "setting")
    parser.add_argument("--store", metavar="DIR",
                        help="sharded content-addressed result store: "
                             "caches parse/checker results under "
                             "DIR/objects (unchanged files "
                             "short-circuit to them), records this "
                             "run's manifest (config fingerprints, "
                             "stage times, fault and cache counters, "
                             "finding counts) to DIR/runs.jsonl for "
                             "repro-trends, and accepts shard merges "
                             "(see repro-store)")
    parser.add_argument("--no-cache", action="store_true",
                        help="with --store: record the run's manifest "
                             "but neither read nor write cached "
                             "results")
    parser.add_argument("--shard", metavar="K/N",
                        help="assess only the Kth of N round-robin "
                             "corpus slices (1-based; requires "
                             "--store); results land in a private "
                             "shard directory for a later "
                             "repro-store merge")
    parser.add_argument("--merge-from", dest="merge_from",
                        action="append", default=[], metavar="DIR",
                        help="merge DIR (another store, shard, or "
                             "object area) into --store before "
                             "assessing, so its results are reused "
                             "(repeatable; sources are only read)")
    parser.add_argument("--strict", action="store_true",
                        help="abort on the first internal fault "
                             "(checker crash, parser bug) instead of "
                             "containing it; without this flag a "
                             "faulted run completes degraded and "
                             "exits 3")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task deadline for --jobs > 1; a "
                             "task exceeding it is abandoned and its "
                             "chunk recomputed serially")
    parser.add_argument("--plan", action="store_true",
                        help="print the prioritized remediation plan")
    parser.add_argument("--experiments", action="store_true",
                        help="also run the coverage and performance "
                             "experiments (Figures 5-8) and print their "
                             "tables")
    parser.add_argument("--trace", action="store_true",
                        help="print the telemetry span tree (per-stage "
                             "wall times and counts)")
    parser.add_argument("--profile", action="store_true",
                        help="print the span tree plus the top slowest "
                             "spans by self time")
    parser.add_argument("--top", type=int, default=None, metavar="N",
                        help="number of spans in the --profile table "
                             "(default 10; requires --profile)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules (id, checker, "
                             "default severity, ISO 26262 topic) and "
                             "exit")
    parser.add_argument("--enable", action="append", metavar="GLOB",
                        default=None,
                        help="enable only rules matching GLOB "
                             "(repeatable; default: all rules)")
    parser.add_argument("--disable", action="append", metavar="GLOB",
                        default=None,
                        help="disable rules matching GLOB (repeatable; "
                             "applied after --enable)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="finding baseline to compare against; the "
                             "summary then reports only new findings")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write this run's finding baseline to FILE")
    parser.add_argument("--diff-baseline", dest="diff_baseline",
                        metavar="FILE",
                        help="diff this run's verdicts against a saved "
                             "--json document: print the improved/"
                             "regressed techniques and the weighted "
                             "gap reduction")
    parser.add_argument("--metrics-json", metavar="FILE",
                        help="write the telemetry document (spans, "
                             "counters, histograms, Chrome trace events) "
                             "as JSON")
    parser.add_argument("--log-json", metavar="FILE",
                        help="write structured JSONL events (parse "
                             "failures, checker crashes, worker "
                             "faults, cache corruption) to FILE")
    parser.add_argument("--log-level", choices=tuple(LEVELS),
                        default=None,
                        help="minimum level written to --log-json "
                             "(default info)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return 0
    if args.top is not None:
        if args.top < 1:
            print(f"--top must be a positive integer, got {args.top}",
                  file=sys.stderr)
            return 2
        if not args.profile:
            print("--top has no effect without --profile",
                  file=sys.stderr)
            return 2
    if args.log_level is not None and not args.log_json:
        print("--log-level has no effect without --log-json",
              file=sys.stderr)
        return 2
    if args.corpus is None and args.path is None:
        parser.error("give a source tree path or --corpus SCALE")
    try:
        profile = profile_from_globs(args.enable, args.disable, REGISTRY)
    except RuleError as error:
        print(str(error), file=sys.stderr)
        return 2
    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except BaselineError as error:
            print(str(error), file=sys.stderr)
            return 2
    store = None
    if args.store:
        store = Store(args.store)
    else:
        if args.shard:
            print("--shard requires --store (shard results need a "
                  "store to merge into)", file=sys.stderr)
            return 2
        if args.merge_from:
            print("--merge-from requires --store", file=sys.stderr)
            return 2
        if args.no_cache:
            print("--no-cache requires --store", file=sys.stderr)
            return 2
    telemetry = args.trace or args.profile or args.metrics_json
    # A store-backed run is traced even without --trace/--profile: the
    # RunRecord needs per-stage wall times.  Stdout is unchanged.
    tracer = Tracer() if telemetry or store is not None else None
    cache = (store.object_store(shard=_shard_name(args.shard))
             if store is not None and not args.no_cache else None)
    if args.task_timeout is not None and args.task_timeout <= 0:
        print(f"--task-timeout must be positive, got {args.task_timeout}",
              file=sys.stderr)
        return 2
    run_id = new_run_id()
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
                             run_id=run_id)
    try:
        # Sources are read *after* the event log exists, so per-file
        # skips (a file vanishing or turning unreadable mid-walk) are
        # recorded as parse.skipped_unreadable warnings instead of
        # aborting the run.
        if args.corpus is not None:
            try:
                corpus = generate_corpus(apollo_spec(scale=args.corpus,
                                                     seed=args.seed))
            except CorpusError as error:
                print(f"cannot generate corpus: {error}",
                      file=sys.stderr)
                return 2
            sources = corpus.sources()
        else:
            try:
                sources = read_tree(args.path, log=event_log)
            except CorpusError as error:
                print(f"cannot read source tree: {error}",
                      file=sys.stderr)
                return 2
            if not sources:
                print(f"no C/C++/CUDA sources found under {args.path}",
                      file=sys.stderr)
                return 2
        if args.merge_from:
            try:
                stats = merge_into(store, sources=args.merge_from,
                                   remove_shards=False)
            except OSError as error:
                print(f"cannot merge into store: {error}",
                      file=sys.stderr)
                return 2
            print(f"merged {len(args.merge_from)} source(s) into "
                  f"{args.store} ({stats.objects_added} objects, "
                  f"{stats.runs_added} runs added)")
        return _assess(args, sources, profile, baseline, tracer,
                       cache, event_log, run_id, store)
    finally:
        if log_handle is not None:
            log_handle.close()


def _assess(args, sources, profile, baseline, tracer, cache,
            event_log, run_id, store=None) -> int:
    """Build and run the pipeline, print every report, and (when
    store-backed) append the run's manifest to the store."""
    try:
        pipeline = AssessmentPipeline(PipelineConfig(
            tracer=tracer, log=event_log, jobs=args.jobs,
            cache=cache, shard=args.shard, rules=profile,
            baseline=baseline, strict=args.strict,
            task_timeout=args.task_timeout,
            report=ReportTargets(
                json=args.json, markdown=args.markdown,
                html=args.html, sarif=args.sarif,
                cobertura=args.cobertura)))
    except ConfigError as error:
        print(f"bad pipeline configuration: {error}", file=sys.stderr)
        return 2
    # Under --strict a contained fault is not contained: the original
    # exception (and traceback) propagates out of run(), aborting here.
    start = time.perf_counter()
    result = pipeline.run(sources)
    duration = time.perf_counter() - start
    print(result.render_summary())
    if cache is not None:
        print(f"\ncache: {cache.hits} hits, {cache.misses} misses "
              f"({cache.root})")
    if args.diff_baseline:
        try:
            before = load_assessment_view(args.diff_baseline)
        except BaselineError as error:
            print(str(error), file=sys.stderr)
            return 2
        print()
        print(diff_assessments(before, result).render())
        reduction = gap_reduction(before, result)
        print(f"weighted gap: {reduction['before']} -> "
              f"{reduction['after']} "
              f"(reduced by {reduction['reduction']})")
    if args.trace or args.profile:
        print()
        print(render_span_tree(tracer))
    if args.profile:
        limit = args.top if args.top is not None else 10
        print()
        print(render_profile(tracer, limit=limit))
        print()
        print(render_self_time(tracer, limit=limit))
        print()
        print(render_hotspots(tracer, limit=limit))
    if args.metrics_json:
        try:
            with open(args.metrics_json, "w", encoding="utf-8") as handle:
                json.dump(trace_document(tracer), handle, indent=2)
        except OSError as error:
            print(f"cannot write telemetry JSON: {error}", file=sys.stderr)
            return 2
        print(f"\ntelemetry JSON written to {args.metrics_json}")
    if args.plan:
        from .remediation import plan_remediation, render_plan
        print()
        print(render_plan(plan_remediation(result.tables)))
    if args.write_baseline:
        try:
            Baseline.from_reports(result.reports).save(args.write_baseline)
        except BaselineError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(f"\nbaseline written to {args.write_baseline}")
    # Every configured output surface renders from one shared model;
    # the reporters own their (pre-bridge, pinned) announcement lines
    # and error prefixes, so --json/--markdown stay byte-identical.
    targets = pipeline.config.report
    if targets.any():
        coverage = (collect_yolo_coverage()
                    if targets.needs_coverage() else None)
        model = build_report_model(
            result, sources, module_of=pipeline.config.module_of,
            coverage=coverage, tracer=tracer,
            history=store.history() if store is not None else None)
        for reporter, destination in configured_reporters(targets):
            try:
                print(reporter.write(model, destination))
            except ReportError as error:
                print(str(error), file=sys.stderr)
                return 2
    if args.experiments:
        _print_experiments()
    # Exit 3: the assessment completed, but one or more faults were
    # contained along the way — the findings are a lower bound.  CI can
    # distinguish "clean" (0), "unusable invocation" (2), and
    # "complete but degraded" (3).
    exit_code = 3 if result.degraded else 0
    trailer = "\n"
    if store is not None:
        record = build_run_record(
            result, run_id=run_id, duration=duration,
            exit_code=exit_code, config=pipeline.config,
            tracer=tracer, cache=cache,
            # A shard run's manifest describes its slice, not the full
            # input (the default counts what was actually assessed).
            files=len(sources) if not args.shard else None)
        # A shard run's manifest lives beside its objects, in its own
        # shard directory: concurrent shard processes never contend on
        # the master table, and the merge unions the manifests by run
        # id.
        history = (store.shard(_shard_name(args.shard))
                   if args.shard else store.history())
        try:
            store_path = history.append(record)
        except OSError as error:
            print(f"cannot record run to store: {error}",
                  file=sys.stderr)
            return 2
        print(f"{trailer}run {run_id} recorded to {store_path}")
        trailer = ""
    if event_log is not None:
        print(f"{trailer}event log written to {args.log_json}")
    return exit_code


def _print_experiments() -> None:
    """The dynamic experiments (coverage + performance figures)."""
    from ..dnn.minic_yolo import run_yolo_coverage
    from ..perf import (compare_conv, compare_gemm, render_case_study,
                        render_conv_table, render_gemm_table,
                        run_case_study)
    print("\nFigure 5 — YOLO real-scenario coverage:")
    print(run_yolo_coverage().render())
    print("\nFigure 7 — object detection per implementation:")
    print(render_case_study(run_case_study()))
    print("\nFigure 8(a) — GEMM, CUTLASS vs cuBLAS:")
    print(render_gemm_table(compare_gemm()))
    print("\nFigure 8(b) — convolution, ISAAC vs cuDNN:")
    print(render_conv_table(compare_conv()))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

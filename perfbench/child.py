"""Timed assessments in one fresh process; prints one JSON line.

``assess`` generates the corpus, then assesses it over and over, cycling
through ``--modes`` (``serial``; ``process2``, a process pool of two;
``cold``, into a fresh store; ``warm``, through a new store opened over
the last one filled) until ``--count`` assessments are done or the next
one would end past ``--seconds``.  The probe of ``hostspeed.py`` runs
between assessments, so each is bracketed by two: ``wall_s`` is its wall
time, ``time_s`` and ``setup_s`` are in reference seconds.

A fresh process per run makes its peak memory its own: ``peak_rss_mb``
is this process's peak plus the largest peak among its reaped children
(the process pool's workers), never a maximum carried over from earlier
runs.

Usage::

    python3 perfbench/child.py assess --seed N --scale X \
        --modes serial,process2 [--seconds S | --count K] \
        [--store-root DIR] [--trace 0|1]
    python3 perfbench/child.py oneshot --tree DIR
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402

#: Corpus generations timed for ``setup_s`` (their median counts).
SETUPS = 3


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (MB)."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for directory, _, names in os.walk(root) for name in names)


def generate(args):
    """The corpus sources, and the set-up time in seconds: the imports
    plus the median of :data:`SETUPS` generations of the corpus."""
    from repro.corpus import apollo_spec, generate_corpus

    imported = time.perf_counter() - STARTED
    generations = []
    for _ in range(SETUPS):
        began = time.perf_counter()
        sources = generate_corpus(apollo_spec(scale=args.scale,
                                              seed=args.seed)).sources()
        generations.append(time.perf_counter() - began)
    return sources, imported + sorted(generations)[SETUPS // 2]


def config_for(mode: str, stores: list, root: str):
    """The pipeline configuration of one mode; ``cold`` fills a fresh
    store, ``warm`` opens a new store over the last one filled."""
    from repro.core.config import PipelineConfig
    from repro.store import Store

    if mode == "serial":
        return PipelineConfig()
    if mode == "process2":
        return PipelineConfig(jobs=2, executor="process")
    if mode == "cold":
        if stores:
            shutil.rmtree(stores[-1], ignore_errors=True)
        stores.append(os.path.join(root, f"store{len(stores)}"))
    return PipelineConfig(cache=Store(stores[-1]).object_store())


def assess(args) -> dict:
    from repro.core.pipeline import assess_sources

    sources, setup_s = generate(args)
    modes = args.modes.split(",")
    recorder = layers.Recorder()
    stores: list = []
    samples = []
    took = {}
    # probes chain: each one closes the sample before it and opens the
    # sample after it
    last_probe = hostspeed.probe(hostspeed.ASSESS_CHUNKS)
    setup_s = hostspeed.corrected(setup_s, last_probe,
                                  hostspeed.ASSESS_CHUNKS)
    patches = layers.install(recorder) if args.trace else None
    start = time.perf_counter()
    try:
        for done, mode in enumerate(itertools.cycle(modes)):
            if args.count is not None:
                if done >= args.count:
                    break
            elif (done >= 2 * len(modes) and time.perf_counter() - start
                  + took[mode] > args.seconds):
                break
            config = config_for(mode, stores, args.store_root)
            # every assessment starts from a collected heap, whatever the
            # one before it left behind (a pool forks it)
            gc.collect()
            attributed = recorder.attributed()
            began = time.perf_counter()
            result = assess_sources(sources, config)
            wall_s = time.perf_counter() - began
            took[mode] = wall_s
            probe_s = hostspeed.probe(hostspeed.ASSESS_CHUNKS)
            cache = config.cache
            samples.append({
                "mode": mode, "wall_s": wall_s,
                "time_s": hostspeed.corrected(wall_s,
                                              (last_probe + probe_s) / 2,
                                              hostspeed.ASSESS_CHUNKS),
                "attributed_s": recorder.attributed() - attributed,
                "digest": gate.digest(gate.fingerprint(result)),
                "anchors": gate.anchors(result),
                "degraded": result.degraded,
                "cache": None if cache is None else {
                    "hits": cache.hits, "misses": cache.misses,
                    "puts": cache.puts},
                "store_mb": (tree_bytes(stores[-1]) / 1e6
                             if mode == "cold" else None),
            })
            last_probe = probe_s
    finally:
        if patches is not None:
            patches.restore()
    return {
        "setup_s": setup_s,
        "samples": samples,
        "layers": recorder.snapshot() if args.trace else None,
        "peak_rss_mb": peak_rss_mb(),
    }


def oneshot(args) -> dict:
    from repro.core.pipeline import assess_sources
    from repro.corpus.writer import read_tree

    result = assess_sources(read_tree(args.tree))
    return {"findings": gate.served_findings(result),
            "verdicts": result.verdict_counts(),
            "degraded": result.degraded}


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="action", required=True)
    one = sub.add_parser("assess")
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--scale", type=float, required=True)
    one.add_argument("--modes", required=True,
                     help="comma-separated cycle of serial, process2, "
                          "cold and warm")
    one.add_argument("--seconds", type=float, default=0.0)
    one.add_argument("--count", type=int)
    one.add_argument("--store-root")
    one.add_argument("--trace", type=int, default=0)
    tree = sub.add_parser("oneshot")
    tree.add_argument("--tree", required=True)
    args = parser.parse_args()
    outcome = assess(args) if args.action == "assess" else oneshot(args)
    print(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

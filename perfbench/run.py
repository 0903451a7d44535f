"""The repro benchmark: three seeded workloads, timed end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload apollo_cold --seed 1 --seconds 30 \
        --trace 0 [--record perfbench/records/runs.jsonl]

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``apollo_cold`` -- one untimed serial assessment of the scale-1.0
  Apollo corpus gated on the paper anchors, then cold assessments of the
  scale-0.1 corpus, serial and with ``executor="process", jobs=2``,
  alternating, no cache;
* ``store_cycle`` -- cycles of an assessment of the scale-0.1 corpus
  into a fresh sharded store (all writes), then two re-assessments, each
  through a newly opened store over it (all reads);
* ``serve_edit`` -- a ``repro-serve`` stdio daemon over a generated tree
  driven by one closed-loop client: seeded one-file edits, about one
  request in five an unchanged-tree ``assess``.

The timed assessments of a run happen in one fresh process
(``child.py``), so its peak memory is its own.  Every end-to-end time is
in reference seconds: the wall time corrected by the host-speed probe of
``hostspeed.py`` run right before and after it, because the speed a
shared host gives one process drifts by more than the bounds within a
run; the raw wall medians are printed too.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics, in which ``primary_s`` and ``secondary_s`` are the
workload's own first two metrics of :data:`DETAIL` (each also printed
by name); with ``--trace 1`` the
workload runs once untraced and once with the layer wrappers of
``layers.py`` installed (inside the daemon through
``serve_launcher.py``), and the JSON carries the per-layer metrics.
Every operation passes the correctness gate of ``gate.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
LAUNCHER = os.path.join(HERE, "serve_launcher.py")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import hostspeed  # noqa: E402
from summary import median, percentile  # noqa: E402

#: Corpus scale of the paper anchors: one untimed serial assessment per
#: ``apollo_cold`` run must reproduce them.
PAPER_SCALE = 1.0
#: Corpus scale of each workload's timed work.  At 1.0 one serial
#: assessment takes ~8 s and a process-pool one ~13 s, so a 30 s run
#: would hold three samples, too few for a steady median on a shared
#: host; at 0.1 it holds a dozen of each, and a dozen store cycles.  One
#: served request costs ~0.5 s at 1.0 and ~0.1 s at 0.2, where a run
#: holds 200+ requests, 40+ of them no-ops.
SCALES = {"apollo_cold": 0.1, "store_cycle": 0.1, "serve_edit": 0.2}
#: Edit requests per serve run, at least (so p90 has 10 samples beyond).
MIN_EDITS = 100
#: Share of serve requests that are unchanged-tree ``assess`` calls.
NOOP_SHARE = 0.2
#: Requests after which the daemon's peak memory is read: a fixed count,
#: so the peak covers the same seeded work on every run, however many
#: requests the run's seconds hold.
PEAK_AT_REQUESTS = MIN_EDITS
#: Daemon set-ups per untraced serve run (``setup_s`` is their median).
SERVE_SETUPS = 3
#: Hard stop for the serve request loop, seconds.
SERVE_CAP_S = 100.0
CHILD_TIMEOUT_S = 150

CHECKERS = ("language_subset", "casts", "defensive", "globals", "naming",
            "style", "unit_design", "architecture", "gpu_subset")

#: The end-to-end metrics every workload reports (``BENCHMARK.json``):
#: ``primary_s`` and ``secondary_s`` are the workload's two timed paths
#: to the verdict, named per workload by :data:`DETAIL`'s first two.
END_TO_END = [("setup_s", "s"), ("primary_s", "s"), ("secondary_s", "s"),
              ("peak_rss_mb", "MB")]

#: Each workload's own metrics, printed by name with their units.
DETAIL = {
    "apollo_cold": [("cold_serial_s", "s"), ("cold_process2_s", "s")],
    "store_cycle": [("cold_store_s", "s"), ("warm_store_s", "s"),
                    ("store_mb", "MB")],
    "serve_edit": [("edit_p50_ms", "ms"), ("noop_p50_ms", "ms"),
                   ("edit_p90_ms", "ms"), ("first_assess_s", "s")],
}

PER_LAYER = ([("lex_s", "s"), ("lex_tokens", "count"), ("scan_s", "s"),
              ("units_parsed", "count"), ("sweep_s", "s"),
              ("sweep_units", "count"), ("metrics_s", "s"),
              ("modules_measured", "count"), ("finish_s", "s")]
             + [(f"finish.{name}_s", "s") for name in CHECKERS]
             + [("verdict_s", "s"), ("store_put_s", "s"),
                ("store_puts", "count"), ("store_get_s", "s"),
                ("store_gets", "count"), ("cache_key_s", "s"),
                ("store_hit_ratio", "ratio"), ("fanout_parse_s", "s"),
                ("fanout_check_s", "s"), ("ipc_parse_mb", "MB"),
                ("ipc_check_mb", "MB"), ("pool_fallbacks", "count"),
                ("watch_poll_ms", "ms"), ("request_pipeline_ms", "ms"),
                ("reply_encode_ms", "ms"), ("misses_per_edit", "count"),
                ("attributed_share", "ratio"), ("unattributed_s", "s"),
                ("trace_overhead_s", "s")])


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a gate failure)."""


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


class Bench:
    """One invocation: seed, time budget, work area, and the tally."""

    def __init__(self, seed: int, seconds: float, scale: float,
                 work: str) -> None:
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.work = work
        self.usable_cpus = len(os.sched_getaffinity(0))
        self.tally = gate.Tally()
        self.setups: List[float] = []
        self._reference: Optional[str] = None
        self._serial = 0

    @property
    def parallel_ok(self) -> bool:
        return self.usable_cpus >= 2

    def child(self, *argv: str) -> Dict[str, Any]:
        proc = subprocess.run([sys.executable, CHILD, *argv], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"child {argv[0]} failed:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def assess(self, modes: str, traced: bool, plan: Optional[Dict] = None,
               scale: Optional[float] = None,
               store_root: Optional[str] = None) -> Dict[str, Any]:
        """One child cycling through ``modes`` for the run's seconds, or
        for exactly the ``plan`` of an earlier run; ``scale`` defaults to
        the workload's, and only set-ups at that scale are kept."""
        own_scale = scale is None
        argv = ["assess", "--seed", str(self.seed),
                "--scale", str(self.scale if own_scale else scale),
                "--modes", modes, "--trace", str(int(traced))]
        if plan is None:
            argv += ["--seconds", str(self.seconds)]
        else:
            argv += ["--count", str(plan["count"])]
        if store_root is not None:
            argv += ["--store-root", store_root]
        out = self.child(*argv)
        if own_scale:
            self.setups.append(out["setup_s"])
        return out

    def reference(self) -> str:
        """The serial reference digest for this seed (untimed)."""
        if self._reference is None:
            out = self.assess("serial", traced=False, plan={"count": 1})
            self.tally.record(self.adopt_reference(out["samples"][0]),
                              "serial reference")
        return self._reference

    def adopt_reference(self, serial: Dict[str, Any]) -> str:
        """Make a serial result the reference when it is sound and there
        is none yet; returns the problem."""
        if serial["degraded"]:
            return "degraded"
        if self._reference is None:
            self._reference = serial["digest"]
        return ""

    def check_anchors(self) -> None:
        """Gate an untimed serial assessment of the paper-scale corpus
        against the paper anchors."""
        out = self.assess("serial", traced=False, plan={"count": 1},
                          scale=PAPER_SCALE)["samples"][0]
        problems = gate.anchor_failures(out["anchors"])
        if out["degraded"]:
            problems.append("degraded")
        self.tally.record("; ".join(problems), "paper anchors")

    def check(self, out: Dict[str, Any], what: str,
              misses: Optional[int] = None,
              hits: Optional[int] = None) -> None:
        """Gate one timed assessment against the serial reference."""
        self.tally.record(gate.assessment_problem(
            out, self._reference, misses=misses, hits=hits), what)

    def fresh_dir(self, stem: str) -> str:
        self._serial += 1
        path = os.path.join(self.work, f"{stem}{self._serial}")
        os.makedirs(path)
        return path


# ----------------------------------------------------------------------
# workloads: each returns (metrics, plan, phases); ``plan`` fixes the
# amount of work so a traced replay repeats exactly the untraced run.


def apollo_cold(bench: Bench, traced: bool, plan: Optional[Dict] = None):
    """The paper anchors; one serial and one process-pool assessment in
    a fresh process, the serial one the reference, for the peak memory
    of one of each; then both, alternating in one process while they
    fit."""
    metrics = {}
    if plan is None:
        bench.check_anchors()
        once = bench.assess("serial,process2", False, {"count": 2})
        serial, pooled = once["samples"]
        bench.tally.record(bench.adopt_reference(serial), "serial reference")
        bench.check(pooled, "process2")
        metrics["peak_rss_mb"] = once["peak_rss_mb"]
    out = bench.assess("serial,process2", traced, plan)
    times: Dict[str, List[float]] = {"serial": [], "process2": []}
    for sample in out["samples"]:
        bench.check(sample, sample["mode"])
        times[sample["mode"]].append(sample["time_s"])
    metrics.update({"cold_serial_s": median(times["serial"]),
                    "cold_process2_s": median(times["process2"])})
    return metrics, {"count": len(out["samples"])}, [("child", out)]


def store_cycle(bench: Bench, traced: bool, plan: Optional[Dict] = None):
    """Cycles of a fresh store filled cold, then re-read warm twice, each
    time through a newly opened store, in one process while they fit."""
    bench.reference()
    out = bench.assess("cold,warm,warm", traced, plan,
                       store_root=bench.fresh_dir("stores"))
    times: Dict[str, List[float]] = {"cold": [], "warm": []}
    sizes = set()
    for sample in out["samples"]:
        if sample["mode"] == "cold":
            bench.check(sample, "cold store", hits=0)
            sizes.add(sample["store_mb"])
        else:
            bench.check(sample, "warm store", misses=0)
        times[sample["mode"]].append(sample["time_s"])
    if len(sizes) != 1:
        bench.tally.record(f"store sizes differ: {sorted(sizes)}",
                           "store size")
    metrics = {"cold_store_s": median(times["cold"]),
               "warm_store_s": median(times["warm"]),
               "store_mb": min(sizes), "peak_rss_mb": out["peak_rss_mb"]}
    return metrics, {"count": len(out["samples"])}, [("child", out)]


class Daemon:
    """One ``repro-serve`` stdio daemon and its closed-loop client."""

    def __init__(self, tree: str, errors: str,
                 trace_out: Optional[str] = None) -> None:
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.serve.cli", tree]
        else:
            argv = [sys.executable, LAUNCHER, trace_out, "--", tree]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._errors = open(errors, "w", encoding="utf-8")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._errors, text=True,
                                     cwd=ROOT, env=env)
        self._next_id = 0

    def request(self, verb: str = "assess") -> Dict[str, Any]:
        self._next_id += 1
        self.proc.stdin.write(json.dumps({"id": self._next_id,
                                          "verb": verb}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("repro-serve exited without replying")
        return json.loads(line)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the daemon")

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.request("shutdown")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._errors.close()


def serve_setup(bench: Bench, traced: bool, firsts: List[float]):
    """Generate the tree, start a daemon and have it answer its first,
    cold ``assess``: all of it set-up, the cold assess also kept in
    ``firsts`` (both corrected by a probe right after)."""
    from repro.corpus import apollo_spec, generate_corpus
    from repro.corpus.writer import write_corpus

    began = time.perf_counter()
    corpus = generate_corpus(apollo_spec(scale=bench.scale,
                                         seed=bench.seed))
    tree = os.path.join(bench.fresh_dir("tree"), "tree")
    write_corpus(corpus, tree)
    trace_out = os.path.join(bench.work, "serve-trace.json") if traced \
        else None
    daemon = Daemon(tree, os.path.join(bench.work, "serve-stderr.txt"),
                    trace_out)
    try:
        pong = daemon.request("ping")
        assessing = time.perf_counter()
        first = daemon.request()
        first_s = time.perf_counter() - assessing
        setup_s = time.perf_counter() - began
        speed = hostspeed.probe(hostspeed.ASSESS_CHUNKS)
        firsts.append(hostspeed.corrected(first_s, speed,
                                          hostspeed.ASSESS_CHUNKS))
        bench.setups.append(hostspeed.corrected(setup_s, speed,
                                                hostspeed.ASSESS_CHUNKS))
    except BaseException:
        daemon.close()
        raise
    bench.tally.record("" if pong.get("pong") else "no pong", "ping")
    bench.tally.record(gate.reply_problem(first, None), "first assess")
    return daemon, tree, sorted(record.path for record in corpus.files), \
        trace_out


def serve_edit(bench: Bench, traced: bool, plan: Optional[Dict] = None):
    sys.path.insert(0, SRC)
    setups = 1 if traced else SERVE_SETUPS
    firsts: List[float] = []
    for _ in range(setups - 1):
        daemon, tree, _, _ = serve_setup(bench, traced, firsts)
        daemon.close()
        shutil.rmtree(os.path.dirname(tree), ignore_errors=True)
    daemon, tree, paths, trace_out = serve_setup(bench, traced, firsts)
    rng = random.Random(bench.seed)
    edits, noops, misses, raw = [], [], [], []
    reply: Dict[str, Any] = {}
    peak = None
    try:
        start = time.perf_counter()
        # each latency is corrected by the mean of the probes the client
        # runs just before and just after its request
        last_probe = hostspeed.probe(hostspeed.REQUEST_CHUNKS)
        while True:
            elapsed = time.perf_counter() - start
            if plan is not None:
                if len(edits) + len(noops) >= plan["requests"]:
                    break
            elif ((len(edits) >= MIN_EDITS and elapsed >= bench.seconds)
                  or elapsed > SERVE_CAP_S):
                break
            noop = rng.random() < NOOP_SHARE
            if not noop:
                path = rng.choice(paths)
                with open(os.path.join(tree, path), "a",
                          encoding="utf-8") as handle:
                    handle.write(f"\n// edit {len(edits)} "
                                 f"{'x' * rng.randint(1, 40)}\n")
            began = time.perf_counter()
            reply = daemon.request()
            latency = time.perf_counter() - began
            raw.append(latency)
            probe_s = hostspeed.probe(hostspeed.REQUEST_CHUNKS)
            latency = hostspeed.corrected(latency, (last_probe + probe_s) / 2,
                                          hostspeed.REQUEST_CHUNKS)
            last_probe = probe_s
            expected = gate.NOOP_MISSES if noop else gate.EDIT_MISSES
            bench.tally.record(gate.reply_problem(reply, expected),
                               "noop" if noop else "edit")
            (noops if noop else edits).append(latency)
            if not noop:
                misses.append(reply.get("cache", {}).get("misses", 0))
            if len(edits) + len(noops) == PEAK_AT_REQUESTS:
                peak = daemon.peak_rss_mb()
        if peak is None:
            peak = daemon.peak_rss_mb()
    finally:
        daemon.close()
    oneshot = bench.child("oneshot", "--tree", tree)
    same = (not oneshot["degraded"]
            and oneshot["findings"] == reply.get("findings")
            and oneshot["verdicts"] == reply.get("verdicts"))
    bench.tally.record("" if same else "last served findings differ from "
                       "a one-shot assessment of the edited tree",
                       "final check")
    p90, beyond = percentile(edits, 90)
    metrics = {"first_assess_s": median(firsts),
               "edit_p50_ms": median(edits) * 1e3, "edit_p90_ms": p90 * 1e3,
               "noop_p50_ms": median(noops) * 1e3, "peak_rss_mb": peak}
    notes = [f"edit samples {len(edits)} ({beyond} beyond p90), "
             f"noop samples {len(noops)}"]
    phases = [("serve", {"latencies": raw, "misses": misses,
                         "trace_out": trace_out,
                         "requests": len(edits) + len(noops)})]
    return metrics, {"requests": len(edits) + len(noops), "notes": notes}, \
        phases


WORKLOADS = {"apollo_cold": apollo_cold, "store_cycle": store_cycle,
             "serve_edit": serve_edit}


# ----------------------------------------------------------------------
# per-layer metrics from a traced run


def _sum_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    total = {"self_time": Counter(), "calls": Counter(),
             "counts": Counter(), "attributed_s": 0.0}
    for snapshot in snapshots:
        for key in ("self_time", "calls", "counts"):
            total[key].update(snapshot[key])
        total["attributed_s"] += snapshot["attributed_s"]
    return total


def _per_request_ms(records: List[Dict[str, Any]], label: str) -> float:
    values = [sum(record["samples"].get(label, ())) for record in records]
    return median(values) * 1e3 if values else 0.0


def _samples(phases):
    """``(kind, wall seconds)`` of every timed operation in ``phases``."""
    for kind, out in phases:
        if kind == "serve":
            for latency in out["latencies"]:
                yield kind, latency
        else:
            for sample in out["samples"]:
                yield sample["mode"], sample["wall_s"]


def layer_metrics(traced_phases, untraced_phases) -> Dict[str, Any]:
    snapshots, records, misses = [], [], []
    shares = []
    for kind, out in traced_phases:
        if kind == "serve":
            with open(out["trace_out"], encoding="utf-8") as handle:
                # records 0 and 1 are the set-up ping and the first
                # assess; the last is the shutdown
                records = json.load(handle)[2:2 + out["requests"]]
            snapshots.extend(records)
            misses.extend(out["misses"])
            shares.append((kind, sum(record["attributed_s"]
                                     for record in records)
                           / sum(out["latencies"])))
        else:
            snapshots.append(out["layers"])
            shares.extend((sample["mode"],
                           sample["attributed_s"] / sample["wall_s"])
                          for sample in out["samples"])
    walls = sum(wall for _, wall in _samples(traced_phases))
    untraced = sum(wall for _, wall in _samples(untraced_phases))
    total = _sum_snapshots(snapshots)
    own, calls, counts = total["self_time"], total["calls"], total["counts"]
    gets = calls["store_get"]
    metrics = {
        "lex_s": own["lex"], "lex_tokens": counts["lex_tokens"],
        "scan_s": own["scan"], "units_parsed": calls["scan"],
        "sweep_s": own["sweep"], "sweep_units": calls["sweep"],
        "metrics_s": own["metrics"], "modules_measured": calls["metrics"],
        "finish_s": sum(own[f"finish.{name}"] for name in CHECKERS),
    }
    for name in CHECKERS:
        metrics[f"finish.{name}_s"] = own[f"finish.{name}"]
    metrics.update({
        "verdict_s": own["verdict"],
        "store_put_s": own["store_put"], "store_puts": calls["store_put"],
        "store_get_s": own["store_get"], "store_gets": gets,
        "cache_key_s": own["cache_key"],
        "store_hit_ratio": counts["store_hits"] / gets if gets else 0.0,
        "fanout_parse_s": own["fanout_parse"],
        "fanout_check_s": own["fanout_check"],
        "ipc_parse_mb": counts["ipc_parse_mb"],
        "ipc_check_mb": counts["ipc_check_mb"],
        "pool_fallbacks": counts["parallel.serial_fallbacks"],
        "watch_poll_ms": _per_request_ms(records, "watch_poll"),
        "request_pipeline_ms": _per_request_ms(records, "pipeline"),
        "reply_encode_ms": _per_request_ms(records, "reply_encode"),
        "misses_per_edit": sum(misses) / len(misses) if misses else 0.0,
        "attributed_share": total["attributed_s"] / walls if walls else 0.0,
        "unattributed_s": walls - total["attributed_s"],
        "trace_overhead_s": walls - untraced,
    })
    return metrics, shares


def _raw_walls(phases) -> str:
    """The uncorrected wall times' medians and minima, per kind of
    phase."""
    by_kind: Dict[str, List[float]] = {}
    for kind, wall in _samples(phases):
        by_kind.setdefault(kind, []).append(wall)
    return "raw wall median/min: " + ", ".join(
        f"{kind} {median(values):.6g}/{min(values):.6g} s "
        f"({len(values)} samples)" for kind, values in by_kind.items())


def _phase_shares(shares) -> List[str]:
    by_kind: Dict[str, List[float]] = {}
    for kind, share in shares:
        by_kind.setdefault(kind, []).append(share)
    return [f"attributed share {kind}: "
            f"{min(values):.1%}..{max(values):.1%}"
            for kind, values in by_kind.items()]


# ----------------------------------------------------------------------


def run(args) -> Dict[str, Any]:
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    bench = Bench(args.seed, args.seconds, SCALES[args.workload], work)
    workload = WORKLOADS[args.workload]
    os.makedirs(work)
    detail: Dict[str, Any] = {}
    try:
        metrics, plan, phases = workload(bench, traced=False)
        notes = plan.pop("notes", [])
        if args.trace:
            _, _, traced_phases = workload(bench, traced=True, plan=plan)
            results, shares = layer_metrics(traced_phases, phases)
            units = dict(PER_LAYER)
            notes += _phase_shares(shares)
        else:
            metrics["setup_s"] = median(bench.setups)
            notes.append(_raw_walls(phases))
            (first, first_unit), (second, second_unit) = \
                DETAIL[args.workload][:2]
            metrics["primary_s"] = in_seconds(metrics[first], first_unit)
            metrics["secondary_s"] = in_seconds(metrics[second], second_unit)
            units = dict(END_TO_END)
            results = {name: metrics[name] for name in units}
            detail = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in DETAIL[args.workload]}
            if args.workload == "apollo_cold" and not bench.parallel_ok:
                detail["cold_process2_s"]["value"] = "not comparable"
                notes.append(f"cold_process2_s not comparable: "
                             f"{bench.usable_cpus} usable CPU(s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"bench": bench, "results": results, "units": units,
            "detail": detail, "notes": notes}


def in_seconds(value: float, unit: str) -> float:
    return value / 1e3 if unit == "ms" else value


def _detail_line(name: str, unit: str, value: Any) -> str:
    shown = value if isinstance(value, str) else f"{value:.6g}"
    return f"{name} = {shown} {unit}"


def stamp(args, usable_cpus: int) -> Dict[str, Any]:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "scale": SCALES[args.workload],
        "paper_scale": (PAPER_SCALE if args.workload == "apollo_cold"
                        else None),
        "executors": {"apollo_cold": ["serial", "process/jobs=2"],
                      "store_cycle": ["serial"],
                      "serve_edit": ["serial"]}[args.workload],
        "cpu_count": os.cpu_count(), "usable_cpus": usable_cpus,
        "python": platform.python_version(), "commit": git_commit(),
        "timing": "reference seconds (hostspeed probe, chunk nominal "
                  f"{hostspeed.CHUNK_NOMINAL_S} s)",
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append the stamped result to this JSONL file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}",
              file=sys.stderr)
        return 2
    outcome = run(args)
    bench = outcome["bench"]
    run_stamp = stamp(args, bench.usable_cpus)
    print("stamp " + json.dumps(run_stamp, sort_keys=True))
    metrics = {}
    for name, unit in outcome["units"].items():
        value = outcome["results"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(_detail_line(name, unit, value))
    print(f"fail_ratio = {bench.tally.fail_ratio:.6g} ratio "
          f"({bench.tally.failed}/{bench.tally.attempted})")
    for name, metric in outcome["detail"].items():
        print(_detail_line(name, metric["unit"], metric["value"]))
    for note in outcome["notes"]:
        print(note)
    for problem in bench.tally.problems:
        print(f"gate failure: {problem}")
    result = {"correct": bench.tally.failed == 0,
              "attempted": bench.tally.attempted,
              "failed": bench.tally.failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "stamp": run_stamp, "result": result,
                "detail": outcome["detail"], "notes": outcome["notes"],
                "gate_failures": bench.tally.problems}, sort_keys=True)
                + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

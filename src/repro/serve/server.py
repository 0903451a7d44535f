"""The long-lived assessment daemon behind ``repro-serve``.

One :class:`AssessmentServer` process loads the rules profile and the
result store once, then answers ``assess`` / ``diff`` / ``rules`` /
``stats`` requests indefinitely, keeping the parse/check object cache
hot in memory (:class:`~repro.core.cache.MemoryCache` by default, the
store's shared object area under ``--store``).  A request costs what
changed, not the tree: every per-file stage of an unchanged file
short-circuits to a content-addressed cache hit (its key memoized on
the cache), and the project-level stages (metrics, checker finish,
evidence, compliance, observations) are folded from the root's previous
result part by part, rebuilt only from the files that changed (see
:meth:`~repro.core.pipeline.AssessmentPipeline.run`).  The reply's
``findings`` body is assembled the same way: each checker bundle's
sorted ``located()`` strings are kept per bundle, so an edit formats
only the changed files' and the project-level findings before one
run-aware sort.  A repeat ``assess`` of an unchanged tree recomputes
nothing and replies byte-identically to the first.

Each request runs inside the fault-containment boundary the pipeline
already provides: a crashing checker or a corrupt cache entry degrades
*that one reply* (``"degraded": true`` — the protocol mapping of the
CLI's exit code 3), and an unexpected fault in the serve layer itself
is caught and answered as ``ok: false`` — the daemon keeps serving
either way.

Store-backed serving appends one
:class:`~repro.store.history.RunRecord` per assessment through the same
:class:`~repro.store.history.RunHistory` the one-shot CLI uses, so
watch iterations and served requests feed the ``repro-trends`` window
exactly like standalone runs — with *per-request* cache deltas, not
process-lifetime totals.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional, Set

from ..core.cache import MemoryCache
from ..core.config import PipelineConfig
from ..core.diff import (
    diff_assessments,
    gap_reduction,
    load_assessment_view,
)
from ..core.pipeline import AssessmentPipeline
from ..errors import ReproError, ServeError
from ..obs import NULL_LOG, EventLog, Histogram, Tracer
from ..rules import REGISTRY, RuleProfile
from ..store import ObjectStore, Store, build_run_record, new_run_id
from .protocol import PROTOCOL_VERSION, VERBS, encode_reply, \
    error_reply, parse_request
from .stream import finding_diff
from .watcher import TreeWatcher, WatchDelta

__all__ = ["AssessmentServer", "run_stdio", "run_tcp"]


class _CacheDelta:
    """One request's slice of the shared cache accounting.

    :func:`~repro.store.history.build_run_record` reads hit/miss/put/
    corruption counts off whatever cache object it is handed; a daemon
    must hand it the *request's* delta, not the process-lifetime
    totals, or every served run's manifest would double-count its
    predecessors'.
    """

    def __init__(self, cache: ObjectStore) -> None:
        self._cache = cache
        self._hits = cache.hits
        self._misses = cache.misses
        self._puts = cache.puts
        self._corrupt = cache.corrupt_entries
        self.record_references = cache.record_references

    @property
    def hits(self) -> int:
        return self._cache.hits - self._hits

    @property
    def misses(self) -> int:
        return self._cache.misses - self._misses

    @property
    def puts(self) -> int:
        return self._cache.puts - self._puts

    @property
    def corrupt_entries(self) -> int:
        return self._cache.corrupt_entries - self._corrupt

    @property
    def referenced(self):
        # the server clears the set before each request (see assess)
        return self._cache.referenced

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts,
                "corrupt_entries": self.corrupt_entries}


class AssessmentServer:
    """Warm assessment state plus the verb dispatch table.

    Thread-safe: requests are serialized on an internal lock, so the
    TCP mode's per-connection threads share one hot cache without
    interleaving pipeline runs.
    """

    def __init__(self, root: Optional[str] = None, *,
                 profile: Optional[RuleProfile] = None,
                 store: Optional[Store] = None,
                 jobs: int = 1,
                 strict: bool = False,
                 task_timeout: Optional[float] = None,
                 log: Optional[EventLog] = None,
                 extra_checkers: tuple = ()) -> None:
        self.log = log if log is not None else NULL_LOG
        self.profile = profile
        self.store = store
        self.cache = (store.object_store() if store is not None
                      else MemoryCache())
        self.jobs = jobs
        self.strict = strict
        self.task_timeout = task_timeout
        self.extra_checkers = extra_checkers
        self.default_root = os.path.abspath(root) if root else None
        self.watchers: Dict[str, TreeWatcher] = {}
        #: Latest and previous assessment per root (the diff operands).
        self.results: Dict[str, Any] = {}
        self.previous: Dict[str, Any] = {}
        #: The latest reply's ``findings`` body per root, shared by the
        #: next reply when its result shares the reports.
        self.findings: Dict[str, Dict[str, List[str]]] = {}
        #: Each live checker bundle's sorted ``located()`` strings per
        #: checker, by the bundle's cache key.
        self.located: Dict[str, Dict[str, List[str]]] = {}
        #: Cache keys each root's latest assessment touched; the union
        #: is what :meth:`MemoryCache.retain` and :attr:`located` keep.
        self.live_keys: Dict[str, Set[str]] = {}
        self.closing = False
        self.started = time.monotonic()
        self.requests = 0
        self.assessments = 0
        self.project_reuses = 0
        #: Project parts (module metrics, checker reports, the verdict
        #: stage) assessments took from a previous result vs computed.
        self.parts_reused = 0
        self.parts_recomputed = 0
        #: Request latency in seconds, per verb.
        self.latency: Dict[str, Histogram] = {}
        self.errors = 0
        self.degraded_replies = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # request entry points

    def handle_line(self, line: str) -> Dict[str, Any]:
        """Serve one raw request line; never raises."""
        try:
            request = parse_request(line)
        except ServeError as error:
            with self._lock:
                self.requests += 1
                self.errors += 1
            return error_reply(None, str(error))
        return self.handle(request)

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one parsed request; never raises.

        The per-request containment boundary: expected errors
        (:class:`~repro.errors.ReproError` — bad path, malformed
        baseline) and unexpected ones (a bug anywhere below) both
        degrade to an ``ok: false`` reply for *this* request.
        """
        request_id = request.get("id")
        verb = request.get("verb")
        with self._lock:
            self.requests += 1
            started = time.perf_counter()
            try:
                handler = getattr(self, f"_verb_{verb}")
                reply = handler(request)
            except ReproError as error:
                self.errors += 1
                self.log.warning("serve.request_error", verb=verb,
                                 error=str(error))
                return error_reply(request_id, str(error))
            except Exception as error:  # the daemon must outlive bugs
                self.errors += 1
                self.log.error(
                    "serve.crash", verb=verb,
                    error=f"{type(error).__name__}: {error}")
                return error_reply(
                    request_id,
                    f"internal fault serving {verb!r}: "
                    f"{type(error).__name__}: {error}",
                    degraded=True)
            finally:
                if verb in VERBS:
                    histogram = self.latency.get(verb)
                    if histogram is None:
                        histogram = self.latency[verb] = Histogram(verb)
                    histogram.observe(time.perf_counter() - started)
            reply["id"] = request_id
            reply.setdefault("ok", True)
            if reply.get("degraded"):
                self.degraded_replies += 1
            return reply

    # ------------------------------------------------------------------
    # shared plumbing

    def _root_for(self, request: Dict[str, Any]) -> str:
        path = request.get("path") or self.default_root
        if not path:
            raise ServeError(
                "no tree to assess: pass \"path\" in the request or "
                "start repro-serve with a default tree")
        if not isinstance(path, str):
            raise ServeError("request path must be a string")
        return os.path.abspath(path)

    def watcher(self, root: str) -> TreeWatcher:
        try:
            return self.watchers[root]
        except KeyError:
            watcher = TreeWatcher(root, log=self.log)
            self.watchers[root] = watcher
            return watcher

    def refresh(self, root: str) -> WatchDelta:
        """Poll a root's tree (creating its watcher on first use)."""
        with self._lock:
            return self.watcher(root).poll()

    def _config(self, tracer: Optional[Tracer]) -> PipelineConfig:
        return PipelineConfig(
            tracer=tracer, log=self.log, jobs=self.jobs,
            cache=self.cache, rules=self.profile, strict=self.strict,
            task_timeout=self.task_timeout,
            extra_checkers=self.extra_checkers)

    def _record_run(self, result, root: str, duration: float,
                    tracer: Optional[Tracer], delta: _CacheDelta,
                    files: int) -> Optional[str]:
        if self.store is None:
            return None
        run_id = new_run_id()
        record = build_run_record(
            result, run_id=run_id, duration=duration,
            exit_code=3 if result.degraded else 0,
            config=self._config(tracer), tracer=tracer,
            cache=delta, files=files)
        self.store.history().append(record)
        return run_id

    # ------------------------------------------------------------------
    # verbs

    def _verb_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "protocol": PROTOCOL_VERSION}

    def _verb_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.closing = True
        self.log.info("serve.shutdown")
        return {"closing": True}

    def _verb_rules(self, request: Dict[str, Any]) -> Dict[str, Any]:
        rules = [{
            "id": rule.id,
            "title": rule.title,
            "severity": rule.severity.name,
            "checker": rule.checker,
            "table": rule.table,
            "topic": rule.topic,
            "enabled": (self.profile.enabled(rule.id)
                        if self.profile is not None else True),
        } for rule in sorted(REGISTRY, key=lambda rule: rule.id)]
        return {"rules": rules, "count": len(rules)}

    def _verb_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        cache: Dict[str, Any] = {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "puts": self.cache.puts,
            "corrupt_entries": self.cache.corrupt_entries,
            "backend": type(self.cache).__name__,
        }
        if isinstance(self.cache, MemoryCache):
            cache["entries"] = len(self.cache)
        roots = {root: {
            "files": len(watcher.sources),
            "polls": watcher.polls,
            "skipped_unreadable": watcher.skipped_total,
        } for root, watcher in sorted(self.watchers.items())}
        latency = {verb: {
            "count": histogram.count,
            "p50_ms": round(histogram.quantile(0.5) * 1e3, 3),
            "p90_ms": round(histogram.quantile(0.9) * 1e3, 3),
            "max_ms": round(histogram.maximum * 1e3, 3),
        } for verb, histogram in sorted(self.latency.items())}
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "requests": self.requests,
            "assessments": self.assessments,
            "project_reuses": self.project_reuses,
            "project_parts": {"reused": self.parts_reused,
                              "recomputed": self.parts_recomputed},
            "latency": latency,
            "errors": self.errors,
            "degraded_replies": self.degraded_replies,
            "skipped_unreadable": sum(
                watcher.skipped_total
                for watcher in self.watchers.values()),
            "cache": cache,
            "roots": roots,
        }

    def assess(self, root: str, refresh: bool = True) -> Dict[str, Any]:
        """Assess ``root``, hot: one reply dict (no ``id`` yet).

        ``refresh=False`` reuses the watcher's current sources — the
        watch loop polls separately and must not double-stat the tree.
        """
        with self._lock:
            watcher = self.watcher(root)
            if refresh:
                watcher.poll()
            sources = watcher.sources
            if not sources:
                raise ServeError(
                    f"no C/C++/CUDA sources found under {root}")
            tracer = Tracer() if self.store is not None else None
            # Collect exactly the keys this assessment touches: the
            # memory cache retains them, and a store-backed run record
            # pins them.
            self.cache.referenced.clear()
            delta = _CacheDelta(self.cache)
            previous = self.results.get(root)
            start = time.perf_counter()
            result = AssessmentPipeline(self._config(tracer)).run(
                sources, previous=previous)
            duration = time.perf_counter() - start
            self.assessments += 1
            self.previous[root] = previous
            self.results[root] = result
            if result.parts is not None:
                self.parts_reused += result.parts.reused
                self.parts_recomputed += result.parts.recomputed
            if result.project_reused:
                self.project_reuses += 1
                findings = self.findings[root]
            else:
                findings = self._findings_body(result)
                self.findings[root] = findings
            self._retain_live(root)
            run_id = self._record_run(result, root, duration, tracer,
                                      delta, files=len(sources))
            reply: Dict[str, Any] = {
                "root": root,
                "files": len(sources),
                "units": result.unit_count,
                "total_loc": result.total_loc,
                "total_findings": sum(
                    report.finding_count
                    for report in result.reports.values()),
                "findings": findings,
                "verdicts": result.verdict_counts(),
                "cache": delta.to_dict(),
                "seconds": round(duration, 6),
                "degraded": result.degraded,
            }
            if result.degraded:
                reply["degradations"] = [
                    crash.describe() for crash in result.crashes]
            if run_id is not None:
                reply["run"] = run_id
            return reply

    def _findings_body(self, result) -> Dict[str, List[str]]:
        """The reply's ``findings``: each checker's sorted ``located()``
        strings.

        A folded report (one with :attr:`~repro.checkers.base.
        CheckerReport.partials`) starts with its per-unit reports'
        findings in unit order, so its strings are the kept per-bundle
        lists (see :meth:`_bundle_located`) plus the project-level
        findings' fresh ones, put in order by one sort that runs
        through the already-sorted stretches.
        """
        parts = result.parts
        per_unit = None
        if parts is not None:
            per_unit = [self._bundle_located(parts.files[path][2],
                                             parts.bundles[path])
                        for path in parts.units]
        findings: Dict[str, List[str]] = {}
        for name, report in sorted(result.reports.items()):
            partials = report.partials
            if per_unit is None or partials is None:
                findings[name] = sorted(finding.located()
                                        for finding in report.findings)
                continue
            located: List[str] = []
            if partials.unit_findings:
                for strings in per_unit:
                    located.extend(strings[name])
            located.extend(finding.located() for finding
                           in report.findings[partials.unit_findings:])
            located.sort()
            findings[name] = located
        return findings

    def _bundle_located(self, key: str, bundle) -> Dict[str, List[str]]:
        """One checker bundle's sorted ``located()`` strings per checker,
        formatted once per bundle key while the key stays live."""
        located = self.located.get(key)
        if located is None:
            located = {name: sorted(finding.located()
                                    for finding in report.findings)
                       for name, report in bundle.items()}
            self.located[key] = located
        return located

    def _retain_live(self, root: str) -> None:
        """Drop the memory-cache entries and kept ``located()`` strings
        no root's latest assessment touched (an edited file's
        superseded parse and checker entries), so the daemon's memory
        follows its trees, not their edit history."""
        self.live_keys[root] = set(self.cache.referenced)
        live = set().union(*self.live_keys.values())
        if isinstance(self.cache, MemoryCache):
            self.cache.retain(live)
        located = self.located
        for key in [key for key in located if key not in live]:
            del located[key]

    def _verb_assess(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.assess(self._root_for(request),
                           refresh=request.get("refresh", True))

    def diff(self, root: str,
             baseline_path: Optional[str] = None) -> Dict[str, Any]:
        """Diff ``root``'s latest assessment against its predecessor.

        With ``baseline_path``, the "before" side is a saved ``--json``
        document instead of the in-memory previous run.
        """
        with self._lock:
            after = self.results.get(root)
            if after is None:
                raise ServeError(
                    f"nothing assessed yet for {root}: issue an "
                    f"\"assess\" first")
            if baseline_path is not None:
                before = load_assessment_view(baseline_path)
                findings = None
            else:
                before = self.previous.get(root)
                if before is None:
                    raise ServeError(
                        f"only one assessment of {root} so far: diff "
                        f"needs two, or a \"baseline\" document")
                findings = finding_diff(before, after)
            reply: Dict[str, Any] = {
                "root": root,
                "verdicts": diff_assessments(before, after).to_dict(),
                "gap_reduction": gap_reduction(before, after),
            }
            if findings is not None:
                reply["findings"] = findings
            return reply

    def _verb_diff(self, request: Dict[str, Any]) -> Dict[str, Any]:
        baseline = request.get("baseline")
        if baseline is not None and not isinstance(baseline, str):
            raise ServeError("diff baseline must be a file path string")
        return self.diff(self._root_for(request), baseline)


# ----------------------------------------------------------------------
# transports


def run_stdio(server: AssessmentServer, stdin, stdout) -> int:
    """Serve line-delimited requests from ``stdin`` until EOF/shutdown.

    Returns the number of requests served.  Blank lines are ignored so
    hand-driven sessions (``repro-serve src/ < requests.jsonl``) stay
    forgiving.
    """
    served = 0
    for line in stdin:
        if not line.strip():
            continue
        reply = server.handle_line(line)
        stdout.write(encode_reply(reply))
        stdout.flush()
        served += 1
        if server.closing:
            break
    return served


def run_tcp(server: AssessmentServer, host: str, port: int,
            ready=None) -> None:
    """Serve the protocol over TCP until a ``shutdown`` request.

    Each connection is a thread speaking the same line protocol as
    stdio mode; the shared :class:`AssessmentServer` lock serializes
    the actual assessment work.  ``port`` may be 0 (ephemeral); the
    bound ``(host, port)`` is passed to ``ready`` once listening, so
    tests and CI can connect without racing the bind.
    """
    import socketserver

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            for raw in self.rfile:
                line = raw.decode("utf-8", "replace")
                if not line.strip():
                    continue
                reply = server.handle_line(line)
                self.wfile.write(
                    encode_reply(reply).encode("utf-8"))
                self.wfile.flush()
                if server.closing:
                    tcp_server.shutdown()
                    return

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as tcp_server:
        bound = tcp_server.server_address
        server.log.info("serve.listening", host=bound[0],
                        port=bound[1])
        if ready is not None:
            ready(bound)
        tcp_server.serve_forever(poll_interval=0.1)

"""The long-lived assessment daemon behind ``repro-serve``.

One :class:`AssessmentServer` process takes one
:class:`~repro.core.config.PipelineConfig` and the result store once,
then answers ``assess`` / ``diff`` / ``rules`` / ``stats`` requests
indefinitely, keeping the parse/check object cache hot in memory
(:class:`~repro.core.cache.MemoryCache` by default, the store's shared
object area under ``--store``).  A request costs what changed, not the
tree.  The watcher stats the tree in one walk and hands an untouched
file over as the very string it held, so the pipeline reuses that
file's parse outcome, bundle and keys from the root's previous result
without hashing or looking anything up, the memory cache accounting
each reused entry as a hit (see :meth:`~repro.core.pipeline.
AssessmentPipeline.run`); a changed file's entries are looked up and,
missing, recomputed.  The project-level stages (metrics, checker
finish, evidence, compliance, observations) are folded from the
previous result part by part, rebuilt only from the files that changed.
The reply's ``findings`` body is assembled the same way, its JSON text
included: each checker bundle's sorted ``located()`` strings are
formatted and encoded once per bundle key, and each checker's merged
list and text are kept per root and re-formed only around the changed
files' bundles and the project-level findings
(:class:`~repro.serve.protocol.FindingsBody`).  A repeat ``assess`` of
an unchanged tree recomputes nothing, encodes no finding, and replies
byte-identically to the first.

Under ``--store`` the object area cannot vouch for entries it would
have to re-read, so every file is looked up as in a one-shot run: an
entry removed between requests (``repro-store gc`` sweeping what no run
pins any more) is a plain miss, recomputed and put back, and a rotted
one counts under ``corrupt_entries``.

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
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import replace
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set, \
    Tuple

from ..core.cache import MemoryCache
from ..core.config import PipelineConfig
from ..core.diff import (
    diff_assessments,
    gap_reduction,
    load_assessment_view,
)
from ..core.pipeline import AssessmentPipeline
from ..errors import ReproError, ServeError
from ..obs import NULL_LOG, Histogram, Tracer
from ..rules import REGISTRY
from ..store import ObjectStore, Store, build_run_record, new_run_id
from .protocol import PROTOCOL_VERSION, VERBS, FindingsBody, canonical, \
    encode_reply, error_reply, parse_request
from .stream import finding_diff
from .watcher import TreeWatcher, WatchDelta

__all__ = ["AssessmentServer", "run_stdio", "run_tcp"]

#: One checker's findings in one bundle: its first and last sorted
#: ``located()`` strings, all of them, and their JSON array text without
#: the brackets.
Run = Tuple[str, str, List[str], str]


class _Block(NamedTuple):
    """A stretch of one checker's sorted strings, encoded as one piece:
    a run no other string sorts within (``whole``, spliced as its kept
    fragment), or all the loose strings between two such runs.  ``runs``
    are the bundle keys of the runs whose strings it holds."""

    first: str
    last: str
    strings: List[str]
    fragment: str
    runs: Tuple[Any, ...]
    whole: bool


class _Column:
    """One checker's part of a root's findings body, kept across
    requests and updated around the changed bundles.

    ``blocks`` partition the checker's sorted strings, each run lying
    within one block; ``located`` and ``pieces`` (each block's fragment
    followed by a comma) are their concatenation.  Both lists are
    rebuilt by slicing, never mutated, because a reply body shares
    them.
    """

    def __init__(self) -> None:
        self.runs: Dict[Any, Run] = {}
        self.fresh: List[str] = []
        self.blocks: List[_Block] = []
        self.firsts: List[str] = []
        self.lasts: List[str] = []
        self.sizes: List[int] = []
        self.located: List[str] = []
        self.pieces: List[str] = []

    def update(self, removed: Iterable[Any], added: Dict[Any, Run],
               fresh: List[str]) -> None:
        """Drop the runs under ``removed`` keys, take the ``added`` ones
        and the new sorted ``fresh`` strings, re-forming only the blocks
        within the span the changes touch.

        The span is the smallest one holding every dropped and added
        run and every fresh string that came or went, widened to whole
        blocks and to a loose block on either side (which may have to
        join the re-formed loose strings).  No run or string outside it
        sorts within it, so re-forming it alone (see :func:`_blocks`)
        gives the blocks a build from nothing would.
        """
        bounds: List[str] = []
        for key in removed:
            run = self.runs.pop(key, None)
            if run is not None:
                bounds += run[:2]
        for run in added.values():
            bounds += run[:2]
        self.runs.update(added)
        if fresh != self.fresh:
            before, after = Counter(self.fresh), Counter(fresh)
            bounds.extend((before - after) + (after - before))
            self.fresh = fresh
        if not bounds:
            return
        low, high = min(bounds), max(bounds)
        start = bisect_left(self.lasts, low)
        end = bisect_right(self.firsts, high, start)
        if start > 0 and not self.blocks[start - 1].whole:
            start -= 1
        if end < len(self.blocks) and not self.blocks[end].whole:
            end += 1
        if start < end:
            low = min(low, self.firsts[start])
            high = max(high, self.lasts[end - 1])
        keys = dict.fromkeys(key for block in self.blocks[start:end]
                             for key in block.runs)
        keys.update(added)
        runs = self.runs
        blocks = _blocks(
            [(key, runs[key]) for key in keys if key in runs],
            fresh[bisect_left(fresh, low):bisect_right(fresh, high)])
        offset = sum(self.sizes[:start])
        size = sum(self.sizes[start:end])
        strings: List[str] = []
        pieces: List[str] = []
        for block in blocks:
            strings.extend(block.strings)
            pieces.append(block.fragment)
            pieces.append(",")
        self.blocks[start:end] = blocks
        self.firsts[start:end] = [block.first for block in blocks]
        self.lasts[start:end] = [block.last for block in blocks]
        self.sizes[start:end] = [len(block.strings) for block in blocks]
        self.located = (self.located[:offset] + strings
                        + self.located[offset + size:])
        self.pieces = (self.pieces[:2 * start] + pieces
                       + self.pieces[2 * end:])


class _Body:
    """A root's latest findings body, the result it reflects, and the
    per-checker columns the next body is updated from."""

    def __init__(self) -> None:
        self.result: Any = None
        self.columns: Dict[str, _Column] = {}
        self.findings: Optional[FindingsBody] = None


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

    Every request runs under ``config`` (default
    :class:`~repro.core.config.PipelineConfig`) with its ``cache`` and
    ``tracer`` replaced by the server's hot cache and the request's
    tracer, so a served verdict is the one-shot verdict of the same
    configuration.

    Thread-safe: requests are serialized on an internal lock, so the
    TCP mode's per-connection threads share one hot cache without
    interleaving pipeline runs.
    """

    def __init__(self, root: Optional[str] = None,
                 config: Optional[PipelineConfig] = None, *,
                 store: Optional[Store] = None) -> None:
        self.config = config or PipelineConfig()
        self.log = self.config.log or NULL_LOG
        self.store = store
        self.cache = (store.object_store() if store is not None
                      else MemoryCache())
        self.default_root = os.path.abspath(root) if root else None
        self.watchers: Dict[str, TreeWatcher] = {}
        #: Latest and previous assessment per root (the diff operands).
        self.results: Dict[str, Any] = {}
        self.previous: Dict[str, Any] = {}
        #: The latest reply's ``findings`` body per root with what the
        #: next body is updated from; shared (text included) by the next
        #: reply when its result shares the reports.
        self.bodies: Dict[str, _Body] = {}
        #: Cache keys each root's latest assessment touched; the union
        #: is what :meth:`MemoryCache.retain` keeps.
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
        #: Seconds the transports spent encoding replies, which the
        #: verb latency does not include.
        self.reply_encode = Histogram("reply_encode")
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

    def _record_run(self, result, config: PipelineConfig,
                    duration: float, delta: _CacheDelta,
                    files: int) -> Optional[str]:
        if self.store is None:
            return None
        run_id = new_run_id()
        record = build_run_record(
            result, run_id=run_id, duration=duration,
            exit_code=3 if result.degraded else 0,
            config=config, tracer=config.tracer,
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
        profile = self.config.rules
        rules = [{
            "id": rule.id,
            "title": rule.title,
            "severity": rule.severity.name,
            "checker": rule.checker,
            "table": rule.table,
            "topic": rule.topic,
            "enabled": (profile.enabled(rule.id)
                        if profile is not None else True),
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
        latency = {verb: _summary(histogram)
                   for verb, histogram in sorted(self.latency.items())}
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "requests": self.requests,
            "assessments": self.assessments,
            "project_reuses": self.project_reuses,
            "project_parts": {"reused": self.parts_reused,
                              "recomputed": self.parts_recomputed},
            "latency": latency,
            "reply_encode": _summary(self.reply_encode),
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
            config = replace(
                self.config, cache=self.cache,
                tracer=Tracer() if self.store is not None else None)
            # Collect exactly the keys this assessment touches: the
            # memory cache retains them, and a store-backed run record
            # pins them.
            self.cache.referenced.clear()
            delta = _CacheDelta(self.cache)
            previous = self.results.get(root)
            start = time.perf_counter()
            result = AssessmentPipeline(config).run(
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
            body = self.bodies.get(root)
            if (result.project_reused and body is not None
                    and body.result is previous):
                body.result = result
                findings = body.findings
            else:
                findings = self._findings_body(root, result, previous)
            self._retain_live(root)
            run_id = self._record_run(result, config, duration, delta,
                                      files=len(sources))
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

    def _findings_body(self, root: str, result, previous) -> FindingsBody:
        """The reply's ``findings``: each checker's sorted ``located()``
        strings, with the pieces of the body's JSON text.

        A folded report (one with :attr:`~repro.checkers.base.
        CheckerReport.partials`) starts with its per-unit reports'
        findings in unit order, so its strings are one :data:`Run` per
        bundle with findings (formatted and encoded once per bundle key)
        merged with the project-level findings' fresh ones; any other
        report's strings are all fresh.  When ``result`` was folded from
        ``previous`` and ``previous`` is what the root's kept body
        reflects, each checker's :class:`_Column` is updated around the
        changed files' bundle keys only; otherwise it is built anew.
        The pieces are joined once, with the rest of the reply, by
        :func:`encode_reply`.
        """
        body = self.bodies.get(root)
        parts = result.parts
        changed = parts.changed if parts is not None else None
        if (body is None or changed is None or body.result is not previous
                or body.columns.keys() != result.reports.keys()):
            body = self.bodies[root] = _Body()
            changed = None
        gone: List[str] = []
        came: List[Tuple[str, Dict[str, Run]]] = []
        if parts is not None:
            if changed is None:
                paths: Iterable[str] = parts.units
            else:
                before = previous.parts.files
                gone = [before[path][2] for path in changed
                        if path in before and before[path][2] is not None]
                paths = sorted(path for path in changed
                               if path in parts.units)
            came = [(parts.files[path][2],
                     _bundle_runs(parts.bundles[path])) for path in paths]
        findings: Dict[str, List[str]] = {}
        pieces = ["{"]
        for name, report in sorted(result.reports.items()):
            column = body.columns.get(name)
            if column is None:
                column = body.columns[name] = _Column()
            partials = report.partials
            if parts is not None and partials is not None:
                fresh = report.findings[partials.unit_findings:]
                column.update(gone, {key: runs[name] for key, runs in came
                                     if name in runs},
                              sorted(finding.located() for finding in fresh))
            else:
                column.update(list(column.runs), {},
                              sorted(finding.located()
                                     for finding in report.findings))
            if len(pieces) > 1:
                pieces.append(",")
            pieces.append(canonical(name))
            pieces.append(":[")
            pieces.extend(column.pieces)
            if column.pieces:
                pieces.pop()
            pieces.append("]")
            findings[name] = column.located
        pieces.append("}")
        body.result = result
        body.findings = FindingsBody(findings, pieces)
        return body.findings

    def _retain_live(self, root: str) -> None:
        """Drop the memory-cache entries no root's latest assessment
        touched (an edited file's superseded parse and checker
        entries), so the daemon's memory follows its trees, not their
        edit history."""
        self.live_keys[root] = set(self.cache.referenced)
        if isinstance(self.cache, MemoryCache):
            self.cache.retain(set().union(*self.live_keys.values()))

    def _verb_assess(self, request: Dict[str, Any]) -> Dict[str, Any]:
        refresh = request.get("refresh", True)
        if not isinstance(refresh, bool):
            raise ServeError("assess refresh must be true or false")
        return self.assess(self._root_for(request), refresh=refresh)

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


def _bundle_runs(bundle) -> Dict[str, Run]:
    """One checker bundle's :data:`Run` per checker with findings."""
    runs = {}
    for name, report in bundle.items():
        if report.findings:
            strings = sorted(finding.located()
                             for finding in report.findings)
            runs[name] = (strings[0], strings[-1], strings,
                          canonical(strings)[1:-1])
    return runs


def _blocks(runs: List[Tuple[Any, Run]], fresh: List[str]
            ) -> List[_Block]:
    """The sorted strings of keyed ``runs`` and sorted ``fresh`` ones,
    as :class:`_Block` s in order.

    A run is spliced whole, as its kept fragment, when no other run's
    string and no fresh string sorts within it (between its first and
    last string, both included).  The spliced runs are then disjoint
    and no other string falls inside one, so the rest (the fresh
    strings and every other run's) are sorted together and encoded in
    slices, one per gap between spliced runs.  Whether a run is whole
    depends only on the strings that sort within it, so a stretch of
    blocks can be re-formed on its own.
    """
    runs = sorted(runs, key=lambda keyed: keyed[1][0])
    whole: List[Tuple[Any, Run]] = []
    loose = list(fresh)
    loose_runs: List[Tuple[str, Any]] = []
    reach = None
    following = [run[0] for _, run in runs[1:]]
    following.append(None)
    for (key, run), after in zip(runs, following):
        first, last, strings, _ = run
        if ((reach is None or reach < first)
                and (after is None or last < after)
                and (not fresh or _none_within(fresh, first, last))):
            whole.append((key, run))
        else:
            loose.extend(strings)
            loose_runs.append((first, key))
        if reach is None or reach < last:
            reach = last
    loose.sort()
    blocks: List[_Block] = []
    at = taken = 0

    def gap(end: int) -> None:
        nonlocal at, taken
        chunk = loose[at:end]
        members = taken
        while members < len(loose_runs) \
                and loose_runs[members][0] <= chunk[-1]:
            members += 1
        blocks.append(_Block(chunk[0], chunk[-1], chunk,
                             canonical(chunk)[1:-1],
                             tuple(key for _, key
                                   in loose_runs[taken:members]), False))
        at, taken = end, members

    for key, (first, last, strings, fragment) in whole:
        if at < len(loose) and loose[at] < first:
            gap(bisect_left(loose, first, at))
        blocks.append(_Block(first, last, strings, fragment, (key,),
                             True))
    if at < len(loose):
        gap(len(loose))
    return blocks


def _none_within(strings: List[str], first: str, last: str) -> bool:
    """Whether no string of sorted ``strings`` lies in [first, last]."""
    index = bisect_left(strings, first)
    return index == len(strings) or last < strings[index]


def _summary(histogram: Histogram) -> Dict[str, Any]:
    """A histogram of seconds as ``stats`` reports it."""
    return {
        "count": histogram.count,
        "p50_ms": round(histogram.quantile(0.5) * 1e3, 3),
        "p90_ms": round(histogram.quantile(0.9) * 1e3, 3),
        "max_ms": (round(histogram.maximum * 1e3, 3)
                   if histogram.count else 0.0),
    }


# ----------------------------------------------------------------------
# transports


def _encode(server: AssessmentServer, reply: Dict[str, Any]) -> str:
    """:func:`~repro.serve.protocol.encode_reply`, timed into the
    server's ``reply_encode`` histogram."""
    started = time.perf_counter()
    text = encode_reply(reply)
    elapsed = time.perf_counter() - started
    with server._lock:
        server.reply_encode.observe(elapsed)
    return text


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
        stdout.write(_encode(server, reply))
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

    Raises:
        ServeError: when the address cannot be bound (in use, not
            local, unresolvable).
    """
    import socketserver

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            for raw in self.rfile:
                line = raw.decode("utf-8", "replace")
                if not line.strip():
                    continue
                reply = server.handle_line(line)
                self.wfile.write(_encode(server, reply).encode("utf-8"))
                self.wfile.flush()
                if server.closing:
                    tcp_server.shutdown()
                    return

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    try:
        tcp_server = Server((host, port), Handler)
    except OSError as error:
        raise ServeError(
            f"cannot listen on {host}:{port}: {error}") from None
    with tcp_server:
        bound = tcp_server.server_address
        server.log.info("serve.listening", host=bound[0],
                        port=bound[1])
        if ready is not None:
            ready(bound)
        tcp_server.serve_forever(poll_interval=0.1)

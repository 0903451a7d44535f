"""Layer wrappers: time the program's public entry points from outside.

:func:`install` replaces each wrapped function or method with a timing
wrapper that records into a :class:`Recorder`, everywhere the original
is bound (a function imported by name into several modules is patched
in each of them), and returns a :class:`Patches` whose ``restore()``
puts every original object back.  Methods keep their kind: a
``staticmethod`` is wrapped as a ``staticmethod``, so the program sees
the same attribute it would without tracing.

Times are *self* times: a layer's time excludes the wrapped layers it
calls (``scan`` is parse time minus the ``tokenize`` calls inside it).
Container spans (the pipeline run, the serve request) are timed but not
attributed, so the sum of attributed self times is the part of the
wall time some layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Labels timed but not attributed to a layer (they contain layers).
CONTAINERS = ("pipeline", "serve.request")

#: Labels whose per-call durations are kept, for per-request medians.
SAMPLED = ("pipeline", "watch_poll", "reply_encode")


class Recorder:
    """Self times, call counts and event counts of the wrapped layers.

    Single-threaded by design: the benchmark drives the serial pipeline
    and the serve daemon's one request at a time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: ``(stage, tasks, results)`` a process pool shipped, sized
        #: later by :meth:`settle` so pickling them costs no timed time.
        self.shipped: List[Tuple[str, Any, Any]] = []
        self._stack: List[List[float]] = []

    def timed(self, label: str, function: Callable, args, kwargs):
        self._stack.append([0.0])
        start = self.clock()
        try:
            return function(*args, **kwargs)
        finally:
            duration = self.clock() - start
            children = self._stack.pop()[0]
            self.self_time[label] += duration - children
            self.calls[label] += 1
            if label in SAMPLED:
                self.samples[label].append(duration)
            if self._stack:
                self._stack[-1][0] += duration

    def attributed(self) -> float:
        """Seconds of self time some non-container layer accounts for."""
        return sum(seconds for label, seconds in self.self_time.items()
                   if label not in CONTAINERS)

    def settle(self) -> None:
        """Size the pool payloads recorded so far (``ipc_<stage>_mb``)."""
        for stage, tasks, results in self.shipped:
            self.counts[f"ipc_{stage}_mb"] += (pickled_mb(tasks)
                                               + pickled_mb(results))
        self.shipped.clear()

    def snapshot(self) -> Dict[str, Any]:
        self.settle()
        return {"self_time": dict(self.self_time),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "samples": {label: list(values)
                            for label, values in self.samples.items()},
                "attributed_s": self.attributed()}


class Patches:
    """The originals replaced by :func:`install`, for ``restore()``."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def wrap_function(recorder: Recorder, function: Callable,
                  label: Callable[..., str],
                  after: Optional[Callable] = None) -> Callable:
    """A timing wrapper; ``label(*args)`` names the layer per call and
    ``after(result)`` records counts from the result."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = recorder.timed(label(*args), function, args, kwargs)
        if after is not None:
            after(result)
        return result
    return wrapper


def patch_function(patches: Patches, recorder: Recorder, module: str,
                   name: str, label: Callable[..., str],
                   after: Optional[Callable] = None) -> None:
    """Wrap a module-level function in every loaded module binding it."""
    original = getattr(importlib.import_module(module), name)
    _rebind(patches, name, original,
            wrap_function(recorder, original, label, after))


def _rebind(patches: Patches, name: str, original: Any,
            replacement: Any) -> None:
    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, "__dict__", {}).get(name) is original):
            patches.set(loaded, name, replacement)


def patch_method(patches: Patches, recorder: Recorder, owner: type,
                 name: str, label: Callable[..., str],
                 after: Optional[Callable] = None) -> None:
    """Wrap a method defined on ``owner``, keeping its kind."""
    raw = owner.__dict__[name]
    if isinstance(raw, (staticmethod, classmethod)):
        wrapped = type(raw)(wrap_function(recorder, raw.__func__, label,
                                          after))
    else:
        wrapped = wrap_function(recorder, raw, label, after)
    patches.set(owner, name, wrapped)


def _fixed(name: str) -> Callable[..., str]:
    return lambda *args: name


def _finish(checker, *args) -> str:
    return f"finish.{checker.name}"


def pickled_mb(values) -> float:
    """Total pickled size of ``values`` in MB (what a pool ships)."""
    return sum(len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
               for value in values) / 1e6


class _CountingRegistry:
    """Forwards ``counter(...)`` to the program's registry and keeps
    its own totals, so pool fallbacks are counted with tracing off."""

    def __init__(self, inner, counts: Counter) -> None:
        self._inner = inner
        self._counts = counts

    def counter(self, name: str, **labels):
        counts = self._counts
        inner = (self._inner.counter(name, **labels)
                 if self._inner is not None else None)

        class _Count:
            def inc(self, amount: float = 1) -> None:
                counts[name] += amount
                if inner is not None:
                    inner.inc(amount)
        return _Count()


def install(recorder: Recorder) -> Patches:
    """Wrap every layer's public entry points; returns the patches."""
    from repro.checkers.architecture import ArchitectureChecker
    from repro.checkers.base import Checker
    from repro.checkers.unitdesign import UnitDesignChecker
    from repro.core import parallel
    from repro.core.cache import MemoryCache
    from repro.core.pipeline import AssessmentPipeline
    from repro.iso26262.compliance import ComplianceEngine
    from repro.serve import cli as _serve_cli  # noqa: F401 (binds names)
    from repro.serve.server import AssessmentServer
    from repro.serve.watcher import TreeWatcher
    from repro.store.objects import CACHE_MISS, ObjectStore

    patches = Patches()
    counts = recorder.counts

    def count_tokens(result) -> None:
        counts["lex_tokens"] += len(result)

    def count_hit(result) -> None:
        if result is not CACHE_MISS:
            counts["store_hits"] += 1

    for module, name, label, after in (
            ("repro.lang.lexer", "tokenize", "lex", count_tokens),
            ("repro.lang.cppmodel", "parse_translation_unit", "scan", None),
            ("repro.engine.driver", "fused_unit_bundle", "sweep", None),
            ("repro.metrics.report", "measure_module", "metrics", None),
            ("repro.iso26262.observations", "generate_observations",
             "verdict", None),
            ("repro.serve.protocol", "encode_reply", "reply_encode", None)):
        patch_function(patches, recorder, module, name, _fixed(label),
                       after)
    for owner, name, label, after in (
            (ComplianceEngine, "assess_all", _fixed("verdict"), None),
            (AssessmentPipeline, "_assemble_evidence", _fixed("verdict"),
             None),
            (AssessmentPipeline, "run", _fixed("pipeline"), None),
            (Checker, "finish_from_units", _finish, None),
            (Checker, "check_project", _finish, None),
            (UnitDesignChecker, "finish_from_units", _finish, None),
            (ArchitectureChecker, "check_project", _finish, None),
            (ObjectStore, "get", _fixed("store_get"), count_hit),
            (ObjectStore, "put", _fixed("store_put"), None),
            (MemoryCache, "get", _fixed("store_get"), count_hit),
            (MemoryCache, "put", _fixed("store_put"), None),
            (ObjectStore, "key_for", _fixed("cache_key"), None),
            (TreeWatcher, "poll", _fixed("watch_poll"), None),
            (AssessmentServer, "handle_line", _fixed("serve.request"),
             None)):
        patch_method(patches, recorder, owner, name, label, after)

    run_tasks = parallel.run_tasks
    stage = {parallel.run_parse_task: "parse",
             parallel.run_check_task: "check"}

    @functools.wraps(run_tasks)
    def fanout(function, tasks, **kwargs):
        name = stage.get(function, function.__name__)
        kwargs["metrics"] = _CountingRegistry(kwargs.get("metrics"),
                                              counts)
        results = recorder.timed(f"fanout_{name}", run_tasks,
                                 (function, tasks), kwargs)
        if kwargs.get("jobs", 1) > 1 and kwargs.get("executor") == "process":
            recorder.shipped.append((name, tasks, results))
        return results
    _rebind(patches, "run_tasks", run_tasks, fanout)
    return patches

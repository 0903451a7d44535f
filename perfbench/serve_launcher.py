"""Run ``repro-serve`` with the layer wrappers installed in the daemon.

Usage::

    python3 perfbench/serve_launcher.py TRACE_OUT -- <repro-serve args>

The daemon is the stock :func:`repro.serve.cli.main`; the launcher only
wraps the layers first.  Each served request gets one record of the
layer self times spent from its start to the next request's start (so
the reply encoding that follows a request lands in its record); the
records are written to ``TRACE_OUT`` as JSON when the daemon exits.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402


class RequestRecords:
    """Per-request deltas of a recorder's layer totals."""

    def __init__(self, recorder: layers.Recorder) -> None:
        self.recorder = recorder
        self.records = []
        self._last = recorder.snapshot()

    def close_request(self) -> None:
        now = self.recorder.snapshot()
        before = self._last
        record = {key: {label: value - before[key].get(label, 0)
                        for label, value in now[key].items()}
                  for key in ("self_time", "calls", "counts")}
        record["attributed_s"] = now["attributed_s"] - before["attributed_s"]
        record["samples"] = {
            label: values[len(before["samples"].get(label, ())):]
            for label, values in now["samples"].items()}
        self.records.append(record)
        self._last = now


def main() -> int:
    trace_out, separator, *serve_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: serve_launcher.py TRACE_OUT -- ARGS...")
    from repro.serve import cli
    from repro.serve.server import AssessmentServer

    recorder = layers.Recorder()
    patches = layers.install(recorder)
    records = RequestRecords(recorder)
    traced_handle = AssessmentServer.handle_line
    seen = []

    def handle_line(server, line):
        if seen:
            records.close_request()
        seen.append(True)
        return traced_handle(server, line)

    AssessmentServer.handle_line = handle_line
    try:
        return cli.main(serve_args)
    finally:
        AssessmentServer.handle_line = traced_handle
        patches.restore()
        records.close_request()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(records.records, handle)


if __name__ == "__main__":
    raise SystemExit(main())

"""A fixed interpreter probe that corrects timings for host speed.

On a shared host the speed one process gets drifts by 20-40% over
seconds to minutes: on a 2-vCPU cloud VM the same serial assessment of
the scale-0.3 corpus read anywhere from 1.8 to 3.6 s within two
minutes.  Medians inside one run cannot remove drift that spans the
whole run, so every timed operation is bracketed by this probe -- a
fixed piece of pure-Python work shaped like the program's own (string
slicing, dict counting, small tuples) -- and its time is reported in
*reference seconds*::

    corrected = wall_s * CHUNK_NOMINAL_S / (probe_s / chunks)

that is, the time the operation would have taken on a host that runs
one probe chunk in :data:`CHUNK_NOMINAL_S`.  The probe lives in the
benchmark, not the program, so a change to the program moves the
corrected time exactly as it moves the wall time.  The correction is
partial: the probe tracks one core's interpreter speed, so it steadies
serial work best and a two-process pool least.
"""

from __future__ import annotations

import gc
import time

#: What one probe chunk takes on the reference host, seconds.
CHUNK_NOMINAL_S = 0.006
#: Chunks in the probe bracketing one whole assessment (before and after).
ASSESS_CHUNKS = 15
#: Chunks in the probe a serve client runs after each reply.
REQUEST_CHUNKS = 3

_TEXT = "".join(f"ident{i % 97} = ({i} + x{i % 13}); // c\n"
                for i in range(2000))


def _chunk() -> int:
    counts = {}
    pairs = []
    text = _TEXT
    for start in range(0, len(text) - 8, 3):
        word = text[start:start + 6]
        counts[word] = counts.get(word, 0) + 1
        pairs.append((word, start & 7))
    return len(counts) + len(pairs)


def probe(chunks: int) -> float:
    """Seconds this host takes for ``chunks`` probe chunks now.

    The collector is paused so that the probe times the interpreter,
    not a collection of whatever the calling process has allocated; one
    untimed chunk first warms the caches."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _chunk()
        began = time.perf_counter()
        for _ in range(chunks):
            _chunk()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


def corrected(wall_s: float, probe_s: float, chunks: int) -> float:
    """``wall_s`` in reference seconds, given a probe of ``chunks``
    chunks that took ``probe_s`` around it."""
    return wall_s * CHUNK_NOMINAL_S * chunks / probe_s

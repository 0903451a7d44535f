"""``python -m repro.testing``: the fault-injection smoke check.

Assesses a small synthetic corpus with an injected checker crash on a
``jobs=2`` pool, checks the crash is contained and the other checkers'
findings are unchanged, then checks ``strict`` aborts on the same fault.
"""

from .faults import _smoke

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_smoke())

"""Interest registration for the fused single-sweep checker engine.

A :class:`UnitSweep` is built per translation unit.  Each checker's
:meth:`~repro.checkers.base.Checker.unit_visitor` registers *interests*
— token-kind events, punctuator/keyword text events, per-function
callbacks, and end-of-unit hooks — and the sweep then walks the unit's
code tokens **once**, dispatching every event to every interested
checker.  This replaces N independent full-token sweeps (one per
checker) with one shared sweep plus O(1) dict dispatch per token.

Emission order: for any single checker, events fire in the phase
order *registration → token sweep (code order) → functions-begin hooks
→ per-function callbacks (declaration order) → end hooks*, whether the
sweep is shared with other checkers or is the checker's own
(:meth:`~repro.checkers.base.Checker.check_unit`).  Work whose findings
must land later than its events fire (e.g. casts' narrowing findings,
reported after every cast finding) buffers them and flushes them from
an end hook.

Every registered callable is tagged with the checker that owns it, so
the driver can attribute a mid-sweep crash to the offending checker
and contain it (see :mod:`repro.engine.driver`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..lang.cppmodel import TranslationUnit
from ..lang.tokens import TokenKind

__all__ = ["UnitSweep"]

#: ``(owning checker, callable)`` — the owner is only read for crash
#: attribution, never during normal dispatch beyond a list write.
_Entry = Tuple[object, Callable]


class UnitSweep:
    """One unit's fused dispatch tables, populated by checker visitors.

    The driver sets :attr:`owner` to the registering checker before each
    ``unit_visitor`` call, so registrations are attributed automatically.
    """

    def __init__(self, unit: TranslationUnit) -> None:
        self.unit = unit
        #: The checker currently registering (or being dispatched to).
        self.owner: Optional[object] = None
        self._by_kind: Dict[TokenKind, List[_Entry]] = {}
        self._by_text: Dict[str, List[_Entry]] = {}
        self._functions: List[_Entry] = []
        self._functions_begin: List[_Entry] = []
        self._end: List[_Entry] = []

    # ------------------------------------------------------------------
    # registration (called from Checker.unit_visitor)

    def on_kind(self, kind: TokenKind,
                handler: Callable[[int, object], None]) -> None:
        """Call ``handler(index, token)`` for every code token of ``kind``.

        Registering for hot kinds (IDENTIFIER, PUNCT) costs a dispatch
        on most tokens; prefer :meth:`on_text` for specific punctuators
        and keywords.
        """
        self._by_kind.setdefault(kind, []).append((self.owner, handler))

    def on_text(self, text: str,
                handler: Callable[[int, object], None]) -> None:
        """Call ``handler(index, token)`` for each PUNCT/KEYWORD token
        spelled ``text``.

        Punctuator symbols and keyword words can never collide, so one
        table serves both kinds; identifiers never dispatch here.
        """
        self._by_text.setdefault(text, []).append((self.owner, handler))

    def on_function(self,
                    handler: Callable[[object, list], None]) -> None:
        """Call ``handler(function, body)`` per function, declaration
        order; ``body`` is the shared ``unit.body_tokens(function)``
        slice, cut once for all checkers."""
        self._functions.append((self.owner, handler))

    def at_functions(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` after the token sweep, before the first
        per-function callback."""
        self._functions_begin.append((self.owner, hook))

    def at_end(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` after everything else — the place to flush
        buffered findings and compute summary statistics."""
        self._end.append((self.owner, hook))

    # ------------------------------------------------------------------
    # dispatch (called by the driver)

    def run(self) -> None:
        """Walk the unit once, dispatching all registered interests."""
        by_kind = self._by_kind
        by_text = self._by_text
        punct = TokenKind.PUNCT
        keyword = TokenKind.KEYWORD
        if by_kind or by_text:
            for index, token in enumerate(self.unit.code):
                kind = token.kind
                entries = by_kind.get(kind)
                if entries is not None:
                    for entry in entries:
                        self.owner = entry[0]
                        entry[1](index, token)
                if kind is punct or kind is keyword:
                    entries = by_text.get(token.text)
                    if entries is not None:
                        for entry in entries:
                            self.owner = entry[0]
                            entry[1](index, token)
        for owner, hook in self._functions_begin:
            self.owner = owner
            hook()
        if self._functions:
            unit = self.unit
            for function in unit.functions:
                body = unit.body_tokens(function)
                for owner, handler in self._functions:
                    self.owner = owner
                    handler(function, body)
        for owner, hook in self._end:
            self.owner = owner
            hook()

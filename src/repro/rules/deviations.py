"""MISRA-style documented deviations, declared inline in source comments.

MISRA compliance does not mean zero violations; it means every remaining
violation is a *documented deviation* with a recorded rationale.  The
reproduction recognizes the industrial idiom::

    int g_state;  // DEVIATION(GV.mutable_global: legacy HAL interop)

A deviation suppresses findings of exactly the named rule on exactly the
line the ``DEVIATION(...)`` text sits on.  Suppressed findings are kept
(reported separately, counted under the ``deviations`` stat) — a
deviation hides nothing, it reclassifies.  A deviation *without* a
rationale suppresses nothing and is itself a finding
(:data:`~repro.rules.registry.MISSING_RATIONALE`), as is one naming an
unregistered rule (:data:`~repro.rules.registry.UNKNOWN_RULE`).

Deviations are scanned once per file, from the comment tokens of
:attr:`TranslationUnit.tokens` (where comments survive lexing), while
the unit is built; the index lands in :attr:`TranslationUnit.deviations`
and in the file's token-free :class:`~repro.lang.summary.UnitSummary`,
so freshly parsed units, process-pool-shipped units and cached
summaries all route findings identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..lang.tokens import Token, TokenKind

#: ``DEVIATION(rule-id)`` or ``DEVIATION(rule-id: rationale)``; several
#: may share one comment.
DEVIATION_PATTERN = re.compile(
    r"DEVIATION\(\s*([A-Za-z0-9_.\-]+)\s*(?::\s*([^)]*?)\s*)?\)")


@dataclass(frozen=True)
class Deviation:
    """One declared deviation site.

    Attributes:
        rule: the rule id being deviated from.
        rationale: the recorded justification (``""`` when missing).
        filename: file carrying the comment.
        line: 1-based line the ``DEVIATION(...)`` text sits on.
    """

    rule: str
    rationale: str
    filename: str
    line: int


class DeviationIndex:
    """Deviations of one or more units, indexed for suppression lookups.

    Picklable (plain dict/list state), so it crosses process pools and
    the result cache inside checker reports without special handling.
    """

    def __init__(self, deviations: Iterable[Deviation] = ()) -> None:
        self._deviations: List[Deviation] = []
        self._by_site: Dict[Tuple[str, int, str], Deviation] = {}
        for deviation in deviations:
            self.add(deviation)

    def add(self, deviation: Deviation) -> None:
        self._deviations.append(deviation)
        self._by_site[(deviation.filename, deviation.line,
                       deviation.rule)] = deviation

    def extend(self, other: "DeviationIndex") -> None:
        for deviation in other:
            self.add(deviation)

    def suppressing(self, rule: str, filename: str,
                    line: int) -> Optional[Deviation]:
        """The deviation justifying ``rule`` at ``filename:line``, if any.

        Only deviations carrying a rationale suppress; an unjustified
        one is itself a finding and must not hide the violation it
        points at.
        """
        deviation = self._by_site.get((filename, line, rule))
        if deviation is not None and deviation.rationale:
            return deviation
        return None

    def __iter__(self) -> Iterator[Deviation]:
        return iter(self._deviations)

    def __len__(self) -> int:
        return len(self._deviations)

    def __bool__(self) -> bool:
        return bool(self._deviations)


def scan_deviations(tokens: Iterable[Token],
                    filename: str) -> DeviationIndex:
    """All ``DEVIATION(...)`` declarations in a unit's comment tokens."""
    index = DeviationIndex()
    for token in tokens:
        if token.kind is not TokenKind.COMMENT:
            continue
        for match in DEVIATION_PATTERN.finditer(token.text):
            line = token.line + token.text[:match.start()].count("\n")
            index.add(Deviation(rule=match.group(1),
                                rationale=(match.group(2) or "").strip(),
                                filename=filename,
                                line=line))
    return index

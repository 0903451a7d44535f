"""The reporter interface and the pre-bridge JSON/Markdown writers.

A :class:`Reporter` renders one :class:`~repro.report.model.ReportModel`
to one destination (a file, or a directory for the HTML dashboard).
The CLI no longer carries ad-hoc ``open``/``dump`` blocks per format:
it asks :func:`configured_reporters` for the (reporter, destination)
pairs the :class:`ReportTargets` request and runs them in order.  Each
reporter owns its announcement line and its error prefix, so the
pre-bridge stdout and stderr stay byte-identical.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.markdown import render_markdown
from ..errors import ReportError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import ReportModel


@dataclass(frozen=True)
class ReportTargets:
    """Where each configured reporter writes; ``None`` disables it."""

    json: Optional[str] = None
    markdown: Optional[str] = None
    html: Optional[str] = None
    sarif: Optional[str] = None
    cobertura: Optional[str] = None

    def any(self) -> bool:
        return any((self.json, self.markdown, self.html, self.sarif,
                    self.cobertura))

    def needs_coverage(self) -> bool:
        """True when a requested surface renders coverage data."""
        return bool(self.html or self.cobertura)


class Reporter(abc.ABC):
    """One output surface over the shared report model."""

    #: Short format name, e.g. ``"json"`` — keys the reporter registry.
    format: str = ""
    #: Error prefix: ``"cannot write <label>: <oserror>"`` on exit 2.
    error_label: str = "report"

    @abc.abstractmethod
    def render(self, model: "ReportModel") -> str:
        """The serialized document (single-file formats only)."""

    def announce(self, destination: str) -> str:
        """The stdout line printed after a successful write."""
        return f"{self.error_label} written to {destination}"

    def write(self, model: "ReportModel", destination: str) -> str:
        """Render to ``destination``; returns the announcement line.

        Raises :class:`~repro.errors.ReportError` on any filesystem
        failure, carrying the exact pre-bridge error message.
        """
        try:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(self.render(model))
        except OSError as error:
            raise ReportError(
                f"cannot write {self.error_label}: {error}") from error
        return self.announce(destination)


class JsonReporter(Reporter):
    """The ``--json`` document — byte-identical to the pre-bridge writer
    (``json.dump(result.to_dict(), indent=2)``)."""

    format = "json"
    error_label = "JSON report"

    def render(self, model: "ReportModel") -> str:
        return json.dumps(model.result.to_dict(), indent=2)

    def announce(self, destination: str) -> str:
        return f"\nJSON written to {destination}"


class MarkdownReporter(Reporter):
    """The ``--markdown`` document — byte-identical to the pre-bridge
    :func:`~repro.core.markdown.render_markdown` writer; its rule index
    renders the model's :class:`~repro.rules.RuleActivity` rows."""

    format = "markdown"
    error_label = "Markdown report"

    def render(self, model: "ReportModel") -> str:
        return render_markdown(model.result, rules=model.rules)

    def announce(self, destination: str) -> str:
        return f"Markdown written to {destination}"


def configured_reporters(targets: ReportTargets
                         ) -> List[Tuple[Reporter, str]]:
    """The (reporter, destination) pairs ``targets`` request, in the
    CLI's historical output order: JSON, Markdown, then the new
    surfaces (SARIF, Cobertura, HTML)."""
    from .cobertura import CoberturaReporter
    from .html import HtmlReporter
    from .sarif import SarifReporter
    pairs: List[Tuple[Reporter, str]] = []
    if targets.json:
        pairs.append((JsonReporter(), targets.json))
    if targets.markdown:
        pairs.append((MarkdownReporter(), targets.markdown))
    if targets.sarif:
        pairs.append((SarifReporter(), targets.sarif))
    if targets.cobertura:
        pairs.append((CoberturaReporter(), targets.cobertura))
    if targets.html:
        pairs.append((HtmlReporter(), targets.html))
    return pairs

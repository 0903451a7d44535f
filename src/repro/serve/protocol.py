"""The ``repro-serve`` wire protocol: one JSON object per line.

Requests and replies are newline-delimited JSON — the simplest shape a
CI runner, an editor plugin, or ``nc`` can speak, and the same framing
the run history and event log already use.  A request names a ``verb``
and optionally carries an ``id`` the reply echoes back, so clients may
pipeline requests over one connection::

    -> {"id": 1, "verb": "assess", "path": "src/"}
    <- {"id": 1, "ok": true, "degraded": false, ...}

Contract:

* every reply carries ``ok`` — ``true`` when the verb produced its
  result (possibly *degraded*: a contained checker crash or corrupt
  cache entry sets ``"degraded": true``, the protocol mapping of the
  CLI's exit code 3), ``false`` when the request itself failed;
* a failed request carries ``error`` and never kills the daemon — the
  containment boundary is per-request;
* replies are serialized deterministically (sorted keys, compact
  separators), so byte-comparing two replies is byte-comparing their
  content.  An ``assess`` reply's ``findings`` body arrives already
  encoded (:class:`FindingsBody`) and is spliced in, not re-encoded;
  the bytes are those plain :func:`json.dumps` would write.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..errors import ServeError

__all__ = [
    "FindingsBody",
    "PROTOCOL_VERSION",
    "VERBS",
    "canonical",
    "encode_reply",
    "error_reply",
    "parse_request",
]

#: Bump when a verb's reply shape changes incompatibly.
PROTOCOL_VERSION = 1

#: Recognized request verbs.
VERBS = ("assess", "diff", "rules", "stats", "ping", "shutdown")

#: JSON scalar types allowed as a request id (echoed verbatim).
_ID_TYPES = (str, int, float, type(None))


def parse_request(line: str) -> Dict[str, Any]:
    """Decode and validate one request line.

    Raises:
        ServeError: not JSON, not an object, a non-scalar ``id``, or a
            missing/unknown ``verb``.  The daemon maps this to an
            ``ok: false`` reply; it never tears the connection down.
    """
    try:
        request = json.loads(line)
    except ValueError as error:
        raise ServeError(f"request is not valid JSON: {error}")
    if not isinstance(request, dict):
        raise ServeError(
            f"request must be a JSON object, got {type(request).__name__}")
    if not isinstance(request.get("id", None), _ID_TYPES):
        raise ServeError("request id must be a JSON scalar")
    verb = request.get("verb")
    if verb is None:
        raise ServeError(f"request has no verb (one of {VERBS})")
    if verb not in VERBS:
        raise ServeError(f"unknown verb {verb!r} (one of {VERBS})")
    return request


def error_reply(request_id: Optional[Any], message: str,
                degraded: bool = False) -> Dict[str, Any]:
    """The reply for a request that could not be served."""
    return {"id": request_id, "ok": False, "degraded": degraded,
            "error": message}


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, built
#: once: the server encodes one small list per checker bundle.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical(value: Any) -> str:
    """``value`` as canonical JSON text: sorted keys, compact
    separators."""
    return _CANONICAL.encode(value)


class FindingsBody(dict):
    """An ``assess`` reply's ``findings`` (checker name -> sorted
    ``located()`` strings) that carries its own canonical JSON text.

    The text is kept as ``pieces`` whose concatenation must equal
    :func:`canonical` of the dict, so the server's kept per-file
    fragments are shared rather than copied into a second text.  The
    server builds the pieces once per body; a body is never mutated
    after it is built.
    """

    def __init__(self, findings: Dict[str, List[str]],
                 pieces: List[str]) -> None:
        super().__init__(findings)
        self.pieces = pieces


def encode_reply(reply: Dict[str, Any]) -> str:
    """One reply as a deterministic JSON line (trailing newline).

    Sorted keys and compact separators make equal replies equal bytes —
    the property the serve acceptance tests (and caching clients) pin.
    A :class:`FindingsBody`'s pieces are spliced in at its key's sorted
    place and every other value is encoded, so the line, joined once,
    is exactly ``canonical(reply) + "\\n"`` without re-encoding the
    findings.
    """
    findings = reply.get("findings")
    if not isinstance(findings, FindingsBody):
        return canonical(reply) + "\n"
    pieces = ["{"]
    for key in sorted(reply):
        pieces.append(canonical(key))
        pieces.append(":")
        if key == "findings":
            pieces.extend(findings.pieces)
        else:
            pieces.append(canonical(reply[key]))
        pieces.append(",")
    pieces[-1] = "}\n"
    return "".join(pieces)

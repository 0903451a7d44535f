"""Store directory layout: names, shard discovery, path helpers.

A *store* is a directory with up to three kinds of children::

    <root>/objects/<key[:2]>/<key>.pkl   content-addressed object area
    <root>/runs.jsonl                    run-history table (JSONL)
    <root>/shard-<host>-<pid>[-...]/     per-writer shards, each again
                                         {objects/, runs.jsonl}

Every layer of nesting is the same shape, which is what makes merging
uniform: a shard is merged into its store exactly the way a foreign
store is merged into a master.
"""

from __future__ import annotations

import os
import re
from typing import List

#: Object-area directory name inside a store (and inside each shard).
OBJECTS_DIRNAME = "objects"

#: Prefix marking per-writer shard directories inside a store.
SHARD_PREFIX = "shard-"

#: Characters allowed in a shard-name component; anything else is
#: squashed to ``-`` so hostnames never produce hostile paths.
_SAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def _safe_component(text: str) -> str:
    return _SAFE.sub("-", text) or "anon"


def default_shard_name(suffix: str = "") -> str:
    """A shard directory name unique to this writer process.

    ``shard-<host>-<pid>`` identifies one process on one machine — two
    concurrent invocations (or two machines sharing a network store)
    can never collide.  An optional ``suffix`` distinguishes finer
    writers within one process (a ``K/N`` corpus slice).
    """
    name = f"{SHARD_PREFIX}{safe_hostname()}-{os.getpid()}"
    if suffix:
        name += f"-{_safe_component(suffix)}"
    return name


def safe_hostname() -> str:
    """This machine's hostname as it appears in shard names."""
    try:
        host = os.uname().nodename
    except AttributeError:  # pragma: no cover - non-POSIX
        host = os.environ.get("COMPUTERNAME", "host")
    return _safe_component(host)


def list_shards(root: str) -> List[str]:
    """The store's shard directory paths, sorted by name.

    Missing or unreadable roots yield an empty list — shard discovery
    is always best-effort.
    """
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return [os.path.join(root, name) for name in sorted(names)
            if name.startswith(SHARD_PREFIX)
            and os.path.isdir(os.path.join(root, name))]

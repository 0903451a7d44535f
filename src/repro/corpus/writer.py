"""Write a generated corpus to disk as a source tree."""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Tuple

from ..errors import CorpusError
from ..obs.log import NULL_LOG, EventLog
from .generator import Corpus


def write_corpus(corpus: Corpus, root: str,
                 overwrite: bool = False) -> List[str]:
    """Materialize every corpus file under ``root``.

    Args:
        corpus: the generated corpus.
        root: target directory (created if missing).
        overwrite: refuse to clobber existing files unless True.

    Returns:
        The written paths, relative to ``root``.
    """
    written: List[str] = []
    for record in corpus.files:
        relative = record.path
        if os.path.isabs(relative) or ".." in relative.split("/"):
            raise CorpusError(f"unsafe corpus path {relative!r}")
        destination = os.path.join(root, relative)
        if os.path.exists(destination) and not overwrite:
            raise CorpusError(f"refusing to overwrite {destination}")
        os.makedirs(os.path.dirname(destination), exist_ok=True)
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(record.source)
        written.append(relative)
    return written


#: Every C, C++, and CUDA suffix an industrial tree uses for sources
#: and headers.  Plain C and the alternate C++ spellings matter: Apollo
#: vendors C libraries, and dropping them silently under-reports LOC.
#: Template implementation files (``.tcc``, ``.inl``, ``.ipp``) hold
#: the bodies of header templates (libstdc++ alone ships dozens).
#: Matching is case-insensitive (see :func:`iter_tree_entries`), so the
#: upper-case spellings (``.C``, ``.CPP``, ``.HH``) common in older
#: industrial trees need no entries of their own.
SOURCE_EXTENSIONS = (".cc", ".cu", ".h", ".cpp", ".cuh",
                     ".c", ".hpp", ".cxx", ".hh", ".tcc", ".inl", ".ipp")


def iter_tree_entries(root: str, extensions=SOURCE_EXTENSIONS
                      ) -> Iterator[Tuple[str, "os.DirEntry[str]"]]:
    """Yield ``(relative, entry)`` for every source file under ``root``.

    One :func:`os.scandir` walk, in :func:`os.walk`'s top-down order:
    a directory's files as listed, then each subdirectory in turn.  The
    :class:`os.DirEntry` carries the full path (``entry.path``) and a
    cached :meth:`~os.DirEntry.stat`, so the watch loop stats each file
    with one call and no path joins.

    Extensions are matched case-insensitively: industrial trees mix
    ``.C``/``.CPP``/``.HH`` (old Unix C++ conventions, DOS-era exports)
    with the lower-case spellings, and a case-sensitive walk silently
    drops them from the corpus.  Symbolic links to files are yielded
    (a dangling one too: reading or statting it fails, and each caller
    handles that); links to directories are not descended into, so a
    link back up the tree cannot make the walk loop.  An unlistable
    directory is skipped, as :func:`os.walk` skips it.

    ``relative`` equals ``os.path.relpath(entry.path, root)`` with
    ``/`` separators, built from each directory's prefix rather than by
    per-file path normalization.

    Raises:
        CorpusError: when ``root`` does not exist or is not a directory
            (a walk would silently yield nothing).
    """
    if not os.path.exists(root):
        raise CorpusError(f"source tree {root!r} does not exist")
    if not os.path.isdir(root):
        raise CorpusError(f"source tree {root!r} is not a directory")
    suffixes = tuple(extension.lower() for extension in extensions)
    stack = [(root, "")]
    while stack:
        directory, prefix = stack.pop()
        try:
            with os.scandir(directory) as listing:
                entries = list(listing)
        except OSError:
            continue
        subdirectories = []
        for entry in entries:
            try:
                is_directory = entry.is_dir()
            except OSError:
                is_directory = False
            if is_directory:
                if not entry.is_symlink():
                    subdirectories.append(entry)
            elif entry.name.lower().endswith(suffixes):
                yield prefix + entry.name, entry
        stack.extend((entry.path, prefix + entry.name + "/")
                     for entry in reversed(subdirectories))


def iter_tree_files(root: str, extensions=SOURCE_EXTENSIONS
                    ) -> Iterator[Tuple[str, str]]:
    """Yield ``(relative, full)`` for every source file under ``root``:
    :func:`iter_tree_entries` with each entry's full path.

    Raises:
        CorpusError: when ``root`` does not exist or is not a directory.
    """
    for relative, entry in iter_tree_entries(root, extensions):
        yield relative, entry.path


def read_tree(root: str, extensions=SOURCE_EXTENSIONS,
              log: Optional[EventLog] = None,
              skipped: Optional[List[str]] = None) -> dict:
    """Load a source tree back into a path -> source mapping.

    Files are decoded as UTF-8 with invalid bytes replaced by U+FFFD:
    industrial trees contain latin-1 comments and the odd embedded
    blob, and a single such file must degrade to fuzzy-parser noise,
    not kill the whole sweep with a ``UnicodeDecodeError``.

    A file that vanishes or turns unreadable between the walk and the
    read — an editor's atomic-rename save racing a watch daemon, a
    broken symlink, a permissions hole — is *skipped*, not fatal: it is
    recorded in ``skipped`` (when a list is passed) and emitted as a
    ``parse.skipped_unreadable`` warning event on ``log``.

    Args:
        root: tree root to walk.
        extensions: source suffixes to load (case-insensitive).
        log: optional :class:`~repro.obs.log.EventLog` receiving one
            ``parse.skipped_unreadable`` warning per skipped file.
        skipped: optional list the skipped relative paths are appended
            to, for stats accounting.

    Raises:
        CorpusError: when ``root`` does not exist or is not a directory.
    """
    log = log if log is not None else NULL_LOG
    sources = {}
    for relative, full in iter_tree_files(root, extensions):
        try:
            with open(full, "r", encoding="utf-8",
                      errors="replace") as handle:
                sources[relative] = handle.read()
        except OSError as error:
            log.warning("parse.skipped_unreadable", path=relative,
                        error=f"{type(error).__name__}: {error}")
            if skipped is not None:
                skipped.append(relative)
    return sources

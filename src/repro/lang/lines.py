"""Line-counting metrics: physical lines, code lines, comments, blanks.

These feed Figure 3 (LOC per module) and the architectural-design size
checks (Table 3 item 2: "Main modules of Apollo have from 5k to 60k lines
of code").  They live beside the lexer because each file's lines are
counted once, while its :class:`~repro.lang.cppmodel.TranslationUnit`
is built: the token stream is at hand there and nowhere later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set

from .tokens import Token, TokenKind


@dataclass(frozen=True)
class LineCounts:
    """Line-level size metrics for one source file.

    Attributes:
        total: physical lines in the file.
        code: lines carrying at least one code token (NLOC).
        comment: lines carrying at least one comment token.
        blank: lines with neither code nor comments nor directives.
        preprocessor: lines carrying a preprocessor directive.
    """

    total: int
    code: int
    comment: int
    blank: int
    preprocessor: int

    @property
    def comment_density(self) -> float:
        """Comment lines per code line; 0 for an empty file."""
        if self.code == 0:
            return 0.0
        return self.comment / self.code

    def __add__(self, other: "LineCounts") -> "LineCounts":
        return LineCounts(
            total=self.total + other.total,
            code=self.code + other.code,
            comment=self.comment + other.comment,
            blank=self.blank + other.blank,
            preprocessor=self.preprocessor + other.preprocessor,
        )

    def __sub__(self, other: "LineCounts") -> "LineCounts":
        return LineCounts(
            total=self.total - other.total,
            code=self.code - other.code,
            comment=self.comment - other.comment,
            blank=self.blank - other.blank,
            preprocessor=self.preprocessor - other.preprocessor,
        )


EMPTY_LINE_COUNTS = LineCounts(total=0, code=0, comment=0, blank=0,
                               preprocessor=0)


def count_lines(source: str, tokens: Iterable[Token]) -> LineCounts:
    """Classify every physical line of ``source`` using its token stream.

    A line can be both a code line and a comment line (trailing comment);
    the categories are therefore not disjoint, except for ``blank``.
    """
    total = source.count("\n") + (1 if source and not source.endswith("\n")
                                  else 0)
    code_lines: Set[int] = set()
    comment_lines: Set[int] = set()
    directive_lines: Set[int] = set()
    comment = TokenKind.COMMENT
    preprocessor = TokenKind.PREPROCESSOR
    end = TokenKind.END
    for token in tokens:
        kind = token.kind
        if kind is comment:
            lines = comment_lines
        elif kind is preprocessor:
            lines = directive_lines
        elif kind is not end:
            lines = code_lines
        else:
            continue
        line = token.line
        # Almost every token sits on one line; only multi-line tokens
        # (block comments, continued directives, raw strings) pay for a
        # span update.
        if "\n" in token.text:
            lines.update(range(line, line + token.text.count("\n") + 1))
        else:
            lines.add(line)
    occupied = code_lines | comment_lines | directive_lines
    blank = max(0, total - len(occupied))
    return LineCounts(
        total=total,
        code=len(code_lines),
        comment=len(comment_lines),
        blank=blank,
        preprocessor=len(directive_lines),
    )

"""Token model shared by the fuzzy C++ analyzer and the MiniC parser."""

from __future__ import annotations

import enum
from typing import FrozenSet, NamedTuple


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    COMMENT = "comment"
    PREPROCESSOR = "preprocessor"
    END = "end"

    # Members are singletons, so identity hashing is exact, and it runs in
    # C: ``Enum.__hash__`` is a Python-level call on every dict lookup by
    # kind (the sweep does one per token).
    __hash__ = object.__hash__


class Token(NamedTuple):
    """A single lexical token with its source position.

    Tokens are plain tuples ``(kind, text, line, column)``: immutable,
    hashable, picklable and cheap to build (the lexer creates them with
    ``tuple.__new__``).  Equality is tuple equality.

    Attributes:
        kind: lexical category.
        text: the exact source spelling (for comments, the full comment).
        line: 1-based line of the first character.
        column: 1-based column of the first character.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        """True when this token is the punctuator ``text``."""
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        """True when this token is the keyword ``text``."""
        return self.kind is TokenKind.KEYWORD and self.text == text

    def is_identifier(self, text: str = "") -> bool:
        """True for any identifier, or for the specific identifier ``text``."""
        if self.kind is not TokenKind.IDENTIFIER:
            return False
        return not text or self.text == text

    @property
    def end_line(self) -> int:
        """1-based line of the last character (multi-line comments span)."""
        return self.line + self.text.count("\n")

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})@{self.line}:{self.column}"


#: C and C++ keywords recognized by the lexer (C++17-era working set).
CPP_KEYWORDS: FrozenSet[str] = frozenset({
    "alignas", "alignof", "asm", "auto", "bool", "break", "case", "catch",
    "char", "class", "const", "constexpr", "const_cast", "continue",
    "decltype", "default", "delete", "do", "double", "dynamic_cast", "else",
    "enum", "explicit", "extern", "false", "float", "for", "friend", "goto",
    "if", "inline", "int", "long", "mutable", "namespace", "new", "noexcept",
    "nullptr", "operator", "private", "protected", "public", "register",
    "reinterpret_cast", "return", "short", "signed", "sizeof", "static",
    "static_assert", "static_cast", "struct", "switch", "template", "this",
    "throw", "true", "try", "typedef", "typeid", "typename", "union",
    "unsigned", "using", "virtual", "void", "volatile", "while",
})

#: CUDA execution-space and builtin qualifiers.  They are lexically plain
#: identifiers, but the analyzers treat them as keywords so kernel
#: declarations are recognizable.
CUDA_KEYWORDS: FrozenSet[str] = frozenset({
    "__global__", "__device__", "__host__", "__shared__", "__constant__",
    "__restrict__", "__managed__", "__launch_bounds__", "__forceinline__",
})

#: All keywords, C++ plus CUDA.
ALL_KEYWORDS: FrozenSet[str] = CPP_KEYWORDS | CUDA_KEYWORDS

#: Multi-character punctuators, longest first so maximal munch works.  The
#: CUDA kernel-launch brackets ``<<<``/``>>>`` are lexed as single tokens:
#: no well-formed C++ expression in the analyzed subset produces them.
PUNCTUATORS: tuple = (
    "<<<", ">>>",
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", ".*", "##",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
    ":", ";", ",", ".", "(", ")", "[", "]", "{", "}", "#", "@",
)

"""Reference tokenizer kept as the oracle for :mod:`repro.lang.lexer`.

This is the character-dispatch lexer the master-regex scanner replaced,
unchanged apart from absolute imports and one fix: the fast-path
``_STRING``/``_CHAR`` regexes use the unrolled form, so an unterminated
literal no longer backtracks exponentially.  The oracle tests check
that the production lexer agrees with it token for token, errors
included.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, List

from repro.errors import LexError
from repro.lang.tokens import ALL_KEYWORDS, PUNCTUATORS, Token, TokenKind

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_NUMBER_SUFFIX = frozenset("uUlLfF")

#: Whitespace plus backslash-newline line continuations, as one batch.
_WHITESPACE = re.compile(r"(?:[ \t\r\n\f\v]|\\\n)+")

#: A full identifier (the ``$`` extension matches GNU/CUDA tolerance).
_IDENTIFIER = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")

#: One punctuator; alternatives keep the PUNCTUATORS longest-first order,
#: so the regex engine implements maximal munch exactly.
_PUNCTUATOR = re.compile("|".join(re.escape(punct) for punct in PUNCTUATORS))

#: A complete double-quoted string on the fast path: any run of
#: non-quote/non-backslash/non-newline characters or escape pairs (an
#: escaped character may be a newline — the slow path's ``advance(2)``
#: skips one too).  Unterminated/newline-broken literals fail to match
#: and fall back to the character loop for exact error semantics.
_STRING = re.compile(r'"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"')
_CHAR = re.compile(r"'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*'")

#: Prefixes that start a raw string literal when followed by ``"``.
_RAW_PREFIXES = frozenset({"R", "LR", "u8R", "uR", "UR"})


class Lexer:
    """Single-pass tokenizer over one translation unit.

    Args:
        source: the source text.
        filename: used only for error messages.
        strict: when True, an unrecognizable character raises
            :class:`~repro.errors.LexError`; when False it is skipped, which
            is the right behaviour for corpus-scale scanning.
    """

    def __init__(self, source: str, filename: str = "<memory>",
                 strict: bool = True) -> None:
        self.source = source
        self.filename = filename
        self.strict = strict
        self._pos = 0
        self._line = 1
        #: Source offset of the current line's first character; the
        #: column of any position on this line is ``pos - line_start + 1``.
        self._line_start = 0

    def tokens(self) -> Iterator[Token]:
        """Yield every token in the source, ending with an END token."""
        while True:
            token = self._next_token()
            yield token
            if token.kind is TokenKind.END:
                return

    def tokenize(self) -> List[Token]:
        """Return all tokens as a list (END token excluded)."""
        result: List[Token] = []
        append = result.append
        next_token = self._next_token
        end = TokenKind.END
        while True:
            token = next_token()
            if token.kind is end:
                return result
            append(token)

    # ------------------------------------------------------------------
    # scanning helpers

    @property
    def _column(self) -> int:
        return self._pos - self._line_start + 1

    def _consume_to(self, new_pos: int) -> None:
        """Advance to ``new_pos``, settling line bookkeeping in batch."""
        source = self.source
        newlines = source.count("\n", self._pos, new_pos)
        if newlines:
            self._line += newlines
            self._line_start = source.rindex("\n", self._pos, new_pos) + 1
        self._pos = new_pos

    def _error(self, message: str) -> LexError:
        return LexError(message, self.filename, self._line, self._column)

    # ------------------------------------------------------------------
    # token producers

    def _next_token(self) -> Token:
        source = self.source
        length = len(source)
        while True:
            pos = self._pos
            match = _WHITESPACE.match(source, pos)
            if match is not None:
                new_pos = match.end()
                newlines = source.count("\n", pos, new_pos)
                if newlines:
                    self._line += newlines
                    self._line_start = source.rindex("\n", pos, new_pos) + 1
                self._pos = pos = new_pos
            if pos >= length:
                return Token(TokenKind.END, "", self._line, self._column)

            line = self._line
            column = pos - self._line_start + 1
            character = source[pos]

            if character in _IDENT_CONT:
                if character in _DIGITS:
                    return self._lex_number(line, column)
                return self._lex_identifier(line, column)
            if character == "/" and source[pos + 1:pos + 2] in ("/", "*"):
                return self._lex_comment(line, column)
            if character == '"':
                return self._lex_string(line, column)
            if character == "#" and self._at_line_start():
                return self._lex_preprocessor(line, column)
            if character == "." and source[pos + 1:pos + 2] in _DIGITS:
                return self._lex_number(line, column)
            if character == "'":
                return self._lex_char(line, column)
            match = _PUNCTUATOR.match(source, pos)
            if match is not None:
                text = match.group()
                self._pos = pos + len(text)
                return Token(TokenKind.PUNCT, text, line, column)

            if self.strict:
                raise self._error(f"unexpected character {character!r}")
            self._pos = pos + 1

    def _at_line_start(self) -> bool:
        """True when only blanks precede the current position on its line."""
        for character in self.source[self._line_start:self._pos]:
            if character not in " \t\r":
                return False
        return True

    def _lex_comment(self, line: int, column: int) -> Token:
        source = self.source
        start = self._pos
        if source[start + 1] == "/":
            # A line comment continued with a backslash spans lines.
            cursor = start
            while True:
                newline = source.find("\n", cursor)
                if newline < 0:
                    end = len(source)
                    break
                if source[newline - 1] == "\\":
                    cursor = newline + 1
                    continue
                end = newline
                break
            self._consume_to(end)
            return Token(TokenKind.COMMENT, source[start:end], line, column)
        close = source.find("*/", start + 2)
        if close < 0:
            if not self.strict:
                self._consume_to(len(source))
                return Token(TokenKind.COMMENT, source[start:], line, column)
            raise self._error("unterminated block comment")
        self._consume_to(close + 2)
        return Token(TokenKind.COMMENT, source[start:self._pos],
                     line, column)

    def _lex_preprocessor(self, line: int, column: int) -> Token:
        source = self.source
        length = len(source)
        start = self._pos
        pos = start
        while pos < length:
            character = source[pos]
            if character == "\\" and source[pos + 1:pos + 2] == "\n":
                pos += 2
                continue
            if character == "\n":
                break
            if character == "/":
                follower = source[pos + 1:pos + 2]
                # Block comments inside a directive must not hide the
                # newline; a trailing line comment ends the directive.
                if follower == "*":
                    close = source.find("*/", pos + 2)
                    pos = length if close < 0 else close + 2
                    continue
                if follower == "/":
                    break
            pos += 1
        self._consume_to(pos)
        return Token(TokenKind.PREPROCESSOR, source[start:pos], line, column)

    def _lex_identifier(self, line: int, column: int) -> Token:
        match = _IDENTIFIER.match(self.source, self._pos)
        text = match.group()
        end = match.end()
        # Raw string literal prefix, e.g. R"(...)".
        if text in _RAW_PREFIXES and self.source[end:end + 1] == '"':
            return self._lex_raw_string(self._pos, end, line, column)
        self._pos = end
        kind = TokenKind.KEYWORD if text in ALL_KEYWORDS else TokenKind.IDENTIFIER
        return Token(kind, text, line, column)

    def _lex_raw_string(self, start: int, quote: int, line: int,
                        column: int) -> Token:
        source = self.source
        delimiter_start = quote + 1
        open_paren = delimiter_start
        while open_paren < len(source) and source[open_paren] != "(":
            open_paren += 1
        if open_paren >= len(source):
            if not self.strict:
                self._consume_to(len(source))
                return Token(TokenKind.STRING, source[start:], line, column)
            self._consume_to(open_paren)
            raise self._error("malformed raw string literal")
        delimiter = source[delimiter_start:open_paren]
        terminator = ")" + delimiter + '"'
        end = source.find(terminator, open_paren + 1)
        if end < 0:
            if not self.strict:
                self._consume_to(len(source))
                return Token(TokenKind.STRING, source[start:], line, column)
            raise self._error("unterminated raw string literal")
        self._consume_to(end + len(terminator))
        return Token(TokenKind.STRING, source[start:self._pos],
                     line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        source = self.source
        length = len(source)
        start = self._pos
        pos = start
        if source[pos] == "0" and source[pos + 1:pos + 2] in ("x", "X"):
            digits = self._scan_hex_digits(pos + 2)
            saw_digits = digits > pos + 2
            pos = digits
            if pos < length and source[pos] == ".":
                fraction = self._scan_hex_digits(pos + 1)
                if fraction > pos + 1 or saw_digits:
                    saw_digits = saw_digits or fraction > pos + 1
                    pos = fraction
            if not saw_digits:
                # A bare `0x` is not a number: emit the `0` alone and let
                # the `x...` lex as an identifier.
                self._pos = start + 1
                return Token(TokenKind.NUMBER, "0", line, column)
            if pos < length and source[pos] in ("p", "P"):
                cursor = pos + 1
                if cursor < length and source[cursor] in ("+", "-"):
                    cursor += 1
                if cursor < length and source[cursor] in _DIGITS:
                    cursor += 1
                    while cursor < length and source[cursor] in _DIGITS:
                        cursor += 1
                    pos = cursor
        else:
            seen_dot = False
            seen_exponent = False
            while pos < length:
                character = source[pos]
                if character in _DIGITS:
                    pos += 1
                elif character == "'":
                    # Digit separators bind digits together; a quote not
                    # followed by a digit starts a character literal.
                    if source[pos + 1:pos + 2] in _DIGITS:
                        pos += 1
                    else:
                        break
                elif character == ".":
                    if seen_dot or seen_exponent:
                        break
                    seen_dot = True
                    pos += 1
                elif character in ("e", "E") and not seen_exponent:
                    seen_exponent = True
                    pos += 1
                    if pos < length and source[pos] in ("+", "-"):
                        pos += 1
                else:
                    break
        while pos < length and source[pos] in _NUMBER_SUFFIX:
            pos += 1
        self._pos = pos
        return Token(TokenKind.NUMBER, source[start:pos], line, column)

    def _scan_hex_digits(self, pos: int) -> int:
        """End of the run of hex digits and inter-digit separators at ``pos``."""
        source = self.source
        length = len(source)
        start = pos
        while pos < length:
            character = source[pos]
            if character in _HEX_DIGITS:
                pos += 1
            elif (character == "'" and pos > start
                    and source[pos + 1:pos + 2] in _HEX_DIGITS):
                pos += 1
            else:
                break
        return pos

    def _lex_string(self, line: int, column: int) -> Token:
        match = _STRING.match(self.source, self._pos)
        if match is not None:
            self._consume_to(match.end())
            return Token(TokenKind.STRING, match.group(), line, column)
        return self._lex_quoted_slow('"', "string literal", TokenKind.STRING,
                                     line, column)

    def _lex_char(self, line: int, column: int) -> Token:
        match = _CHAR.match(self.source, self._pos)
        if match is not None:
            self._consume_to(match.end())
            return Token(TokenKind.CHAR, match.group(), line, column)
        return self._lex_quoted_slow("'", "character literal", TokenKind.CHAR,
                                     line, column)

    def _lex_quoted_slow(self, quote: str, what: str, kind: TokenKind,
                         line: int, column: int) -> Token:
        """Character-loop fallback for malformed quoted literals.

        Reached only when the fast regex failed, i.e. the literal is
        unterminated or broken by a newline; preserves the strict/lenient
        error behaviour exactly.
        """
        source = self.source
        length = len(source)
        start = self._pos
        pos = start + 1
        while pos < length:
            character = source[pos]
            if character == "\\":
                pos += 2
                continue
            if character == "\n":
                if not self.strict:
                    break
                self._consume_to(pos)
                raise self._error(f"unterminated {what}")
            pos += 1
            if character == quote:
                self._consume_to(pos)
                return Token(kind, source[start:pos], line, column)
        if not self.strict:
            self._consume_to(min(pos, length))
            return Token(kind, source[start:self._pos], line, column)
        self._consume_to(min(pos, length))
        raise self._error(f"unterminated {what}")


def tokenize(source: str, filename: str = "<memory>",
             strict: bool = True) -> List[Token]:
    """Tokenize ``source`` and return all tokens (no END sentinel)."""
    return Lexer(source, filename, strict=strict).tokenize()


def code_tokens(tokens: Iterable[Token]) -> List[Token]:
    """Filter out comments and preprocessor directives."""
    return [token for token in tokens
            if token.kind not in (TokenKind.COMMENT, TokenKind.PREPROCESSOR)]

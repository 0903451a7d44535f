"""Strong-typing evidence: explicit casts and implicit-conversion risks.

Section 3.1.3 of the paper: "In Apollo, we have observed more than 1,400
explicit castings, which confronts the requirements of the ISO 26262
standard" (Observation 5).  This checker counts:

* C++ named casts (``static_cast`` etc.) — unambiguous on the token stream;
* C-style casts ``(type)expr`` — detected with the conservative heuristic
  every metric tool uses (parenthesized pure-type spelling followed by a
  castable operand);
* functional casts of builtin types, e.g. ``int(x)``;
* implicit narrowing risks: builtin integer declarations initialized with
  floating literals, and float declarations initialized from integer
  division (heuristic evidence for Table 8 item 7).
"""

from __future__ import annotations

from typing import List

from ..lang.cppmodel import TYPE_KEYWORDS, TranslationUnit
from ..lang.tokens import Token, TokenKind
from ..rules import REGISTRY, Rule
from .base import Checker, CheckerReport, Finding, Severity, \
    enclosing_function_name

RULES = REGISTRY.register_many("casts", (
    Rule("ST.named_cast", "C++ named cast (static_cast etc.)",
         Severity.MINOR, table="modeling_coding", topic="strong_typing"),
    Rule("ST.c_cast", "C-style casts shall not be used",
         Severity.MAJOR, table="modeling_coding", topic="strong_typing"),
    Rule("ST.functional_cast", "Functional cast of a builtin type",
         Severity.MINOR, table="modeling_coding", topic="strong_typing"),
    Rule("ST.narrowing_init", "No narrowing initialization from a "
         "floating literal",
         Severity.MAJOR, table="unit_design",
         topic="no_implicit_conversions"),
))

#: Identifiers commonly spelling types in automotive C++ (fixed-width ints
#: and common aliases); extends the builtin keywords for the C-style-cast
#: heuristic.
TYPE_LIKE_IDENTIFIERS = frozenset({
    "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t", "size_t", "ssize_t", "ptrdiff_t", "intptr_t",
    "uintptr_t", "uchar", "uint", "ulong", "byte", "wchar_t", "char16_t",
    "char32_t",
})

NAMED_CASTS = ("static_cast", "dynamic_cast", "const_cast",
               "reinterpret_cast")

#: Builtin integer types whose float-literal initialization narrows.
_INTEGER_TYPES = frozenset({"int", "long", "short", "char", "unsigned",
                            "signed"})


def _is_type_like(token: Token) -> bool:
    if token.kind is TokenKind.KEYWORD and token.text in TYPE_KEYWORDS:
        return True
    if token.kind is TokenKind.KEYWORD and token.text == "const":
        return True
    if token.kind is TokenKind.IDENTIFIER:
        return (token.text in TYPE_LIKE_IDENTIFIERS
                or token.text.endswith("_t"))
    return False


class CastChecker(Checker):
    """Counts explicit casts and flags implicit-conversion risks."""

    name = "casts"

    def unit_visitor(self, unit: TranslationUnit, report: CheckerReport,
                     sweep) -> None:
        """Cast checks on three disjoint text events: named-cast
        keywords, ``(`` and type keywords.

        Narrowing initializations are recognized on the same type
        keyword events, but their findings buffer and flush from the
        end hook, so every ``ST.narrowing_init`` finding follows every
        cast finding of the unit.
        """
        code = unit.code
        length = len(code)
        counts = {"named": 0, "c": 0, "functional": 0}
        narrowing_pending: List[Finding] = []

        def on_named(index, token):
            if report.emit(Finding(
                    rule="ST.named_cast",
                    message=f"{token.text} expression",
                    filename=unit.filename,
                    line=token.line,
                    severity=Severity.MINOR,
                    function=enclosing_function_name(unit, token.line),
            )):
                counts["named"] += 1

        def on_open_paren(index, token):
            if self._is_c_style_cast(code, index):
                if report.emit(Finding(
                        rule="ST.c_cast",
                        message="C-style cast",
                        filename=unit.filename,
                        line=token.line,
                        severity=Severity.MAJOR,
                        function=enclosing_function_name(unit, token.line),
                )):
                    counts["c"] += 1

        def on_type_keyword(index, token):
            if (index + 1 < length and code[index + 1].is_punct("(")
                    and not self._is_declaration_context(code, index)):
                if report.emit(Finding(
                        rule="ST.functional_cast",
                        message=f"functional cast to {token.text}",
                        filename=unit.filename,
                        line=token.line,
                        severity=Severity.MINOR,
                        function=enclosing_function_name(unit, token.line),
                )):
                    counts["functional"] += 1
            if token.text in _INTEGER_TYPES and index < length - 3:
                name = code[index + 1]
                equals = code[index + 2]
                value = code[index + 3]
                if (name.kind is TokenKind.IDENTIFIER
                        and equals.is_punct("=")
                        and value.kind is TokenKind.NUMBER
                        and ("." in value.text or "e" in value.text.lower())
                        and not value.text.lower().startswith("0x")):
                    narrowing_pending.append(Finding(
                        rule="ST.narrowing_init",
                        message=(f"integer variable {name.text!r} "
                                 f"initialized with floating literal "
                                 f"{value.text}"),
                        filename=unit.filename,
                        line=token.line,
                        severity=Severity.MAJOR,
                        function=enclosing_function_name(unit, token.line),
                    ))

        for keyword in NAMED_CASTS:
            sweep.on_text(keyword, on_named)
        sweep.on_text("(", on_open_paren)
        for keyword in TYPE_KEYWORDS:
            sweep.on_text(keyword, on_type_keyword)

        def finish():
            narrowing = 0
            for finding in narrowing_pending:
                if report.emit(finding):
                    narrowing += 1
            report.stats.update({
                "named_casts": counts["named"],
                "c_style_casts": counts["c"],
                "functional_casts": counts["functional"],
                "explicit_casts": (counts["named"] + counts["c"]
                                   + counts["functional"]),
                "implicit_narrowing_risks": narrowing,
            })

        sweep.at_end(finish)

    # ------------------------------------------------------------------

    @staticmethod
    def _is_c_style_cast(code: List[Token], index: int) -> bool:
        """True when ``code[index]`` opens a C-style cast ``(type)x``.

        Requires: every token inside the parens is type-like (type keyword,
        ``const``, ``*``, ``&``, or a type-spelling identifier), at least
        one is a real type spelling, and the token after the close paren
        can start an operand.  The token *before* the open paren must not
        be an identifier or closing bracket (that would be a call).
        """
        if index > 0:
            previous = code[index - 1]
            if previous.kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER):
                return False
            if previous.kind is TokenKind.PUNCT and previous.text in (")", "]"):
                return False
            if previous.kind is TokenKind.KEYWORD and previous.text in (
                    "if", "while", "for", "switch", "return", "sizeof"):
                # `return (x);` style parens and sizeof are not casts
                # unless the contents are purely type-like *and* followed
                # by an operand; be conservative and skip sizeof/control.
                if previous.text != "return":
                    return False
        cursor = index + 1
        saw_type = False
        saw_pointer = False
        while cursor < len(code) and not code[cursor].is_punct(")"):
            token = code[cursor]
            if _is_type_like(token):
                if not (token.is_keyword("const")):
                    saw_type = True
            elif token.kind is TokenKind.PUNCT and token.text in ("*", "&"):
                saw_pointer = True
            elif token.is_punct("::"):
                pass  # qualified type name
            else:
                return False
            cursor += 1
            if cursor - index > 8:
                return False
        if cursor >= len(code) or not saw_type:
            return False
        # An identifier alone in parens is ambiguous (`(size_t)` vs
        # `(variable)`); require a builtin keyword, a pointer, or an
        # identifier-typed spelling when followed by a castable operand.
        after = code[cursor + 1] if cursor + 1 < len(code) else None
        if after is None:
            return False
        operand_ok = (
            after.kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER,
                           TokenKind.STRING, TokenKind.CHAR)
            or after.is_punct("(")
            or (after.kind is TokenKind.PUNCT and after.text in ("*", "&",
                                                                 "-", "~",
                                                                 "!"))
            or (after.kind is TokenKind.KEYWORD and after.text in (
                "sizeof", "new", "true", "false", "nullptr"))
        )
        if not operand_ok:
            return False
        only_identifier = all(
            code[position].kind is TokenKind.IDENTIFIER
            or code[position].is_punct("::")
            for position in range(index + 1, cursor)
        )
        if only_identifier and not saw_pointer:
            # `(name) x` with a bare non-_t identifier is too ambiguous.
            inner = [code[position] for position in range(index + 1, cursor)
                     if code[position].kind is TokenKind.IDENTIFIER]
            if not any(_is_type_like(token) for token in inner):
                return False
        return True

    @staticmethod
    def _is_declaration_context(code: List[Token], index: int) -> bool:
        """True when ``type (`` is a declaration, not a functional cast.

        ``int (*fp)(void)`` declares a function pointer; ``int (x)`` with a
        preceding type keyword is a declaration too.  The functional-cast
        heuristic only fires when the type keyword starts an expression:
        preceded by an operator, ``(``, ``,``, ``=`` or ``return``.
        """
        if index == 0:
            return True
        previous = code[index - 1]
        if previous.kind is TokenKind.PUNCT and previous.text in (
                "=", "(", ",", "+", "-", "*", "/", "%", "<", ">", "<=",
                ">=", "==", "!=", "&&", "||", "[", "?", ":", "<<", ">>"):
            return False
        if previous.kind is TokenKind.KEYWORD and previous.text == "return":
            return False
        return True

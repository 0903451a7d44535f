"""The master-regex lexer agrees token for token with the reference lexer.

``oracle_lexer`` is the character-dispatch lexer the master regex
replaced.  Both must produce the same tokens (kind, text, line, column)
or raise the same :class:`~repro.errors.LexError` at the same position,
in strict and tolerant mode, on the scale-1.0 synthetic corpus and on
every string literal of the lexer test suites.
"""

import ast
import pathlib
import time

import pytest

from repro.corpus import apollo_spec, generate_corpus
from repro.errors import LexError
from repro.lang.lexer import Lexer

from .oracle_lexer import Lexer as OracleLexer

_SUITES = ("test_lexer.py", "test_lexer_edges.py")


def outcome(lexer_class, source, strict):
    """Tokens as plain tuples, or the error's message and position."""
    try:
        return [tuple(token) for token in
                lexer_class(source, "<oracle>", strict=strict).tokenize()]
    except LexError as error:
        return ("LexError", error.message, error.line, error.column)


def assert_agrees(source, strict):
    assert outcome(Lexer, source, strict) == \
        outcome(OracleLexer, source, strict), repr(source)


def suite_inputs():
    """Every string constant in the lexer test modules."""
    here = pathlib.Path(__file__).parent
    found = set()
    for name in _SUITES:
        tree = ast.parse((here / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return sorted(found)


@pytest.fixture(scope="module")
def corpus_sources():
    return generate_corpus(apollo_spec(scale=1.0)).sources()


@pytest.mark.parametrize("strict", [False, True], ids=["tolerant", "strict"])
def test_agrees_on_scale_one_corpus(corpus_sources, strict):
    assert len(corpus_sources) == 1397
    for path, source in corpus_sources.items():
        assert outcome(Lexer, source, strict) == \
            outcome(OracleLexer, source, strict), path


@pytest.mark.parametrize("strict", [False, True], ids=["tolerant", "strict"])
def test_agrees_on_lexer_suite_inputs(strict):
    inputs = suite_inputs()
    assert len(inputs) > 100
    for source in inputs:
        assert_agrees(source, strict)


@pytest.mark.parametrize("source", [
    "", "   ", "a", "#", "  #x\n#y", "a # b", "a ## b", "\\\n#define X",
    "R\"x(a)x\"", "u8R\"(s)\"", "LR\"(", "R\"abc", "uR\"(a)\" b", "xR\"s\"",
    "'", "\"", "'\\", "\"a\\\nb\" c", "'a\nb'", "// a\\\nb\nc", "// x",
    "/* a", "/* a */ b", "0x", "0x1p3f", "1'000", "1'", ".5e-3f", "1.e5",
    "1..2", "12ull", "1.5.3", "\\", "a\\ b", "\x01", "`", "é",
    "a\r\nb", "a\f\vb", "\n\n  x", "a /= b", "...", ".*", "->*",
])
@pytest.mark.parametrize("strict", [False, True], ids=["tolerant", "strict"])
def test_agrees_on_edge_shapes(source, strict):
    assert_agrees(source, strict)


class TestUnterminatedLiteralsAreLinear:
    """An unterminated quote must not backtrack exponentially."""

    @pytest.mark.parametrize("quote, kind", [('"', "STRING"),
                                             ("'", "CHAR")])
    def test_tolerant_mode_yields_one_token(self, quote, kind):
        source = quote + "a" * 10_000
        started = time.perf_counter()
        tokens = Lexer(source, strict=False).tokenize()
        assert time.perf_counter() - started < 0.5
        assert [(token.kind.name, token.text) for token in tokens] == \
            [(kind, source)]

    @pytest.mark.parametrize("quote, what", [('"', "string literal"),
                                             ("'", "character literal")])
    def test_strict_mode_raises_at_the_same_place(self, quote, what):
        source = "x = " + quote + "a" * 10_000
        started = time.perf_counter()
        with pytest.raises(LexError) as raised:
            Lexer(source, strict=True).tokenize()
        assert time.perf_counter() - started < 0.5
        assert raised.value.message == f"unterminated {what}"
        assert (raised.value.line, raised.value.column) == (1, 10_006)
        assert outcome(OracleLexer, source, True) == \
            ("LexError", f"unterminated {what}", 1, 10_006)

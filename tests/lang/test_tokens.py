"""The tuple-backed ``Token`` API."""

import pickle

from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind


def make(kind=TokenKind.PUNCT, text="{", line=3, column=7):
    return Token(kind, text, line, column)


class TestToken:
    def test_fields_and_tuple_shape(self):
        token = make()
        assert (token.kind, token.text, token.line, token.column) == \
            (TokenKind.PUNCT, "{", 3, 7)
        assert tuple(token) == (TokenKind.PUNCT, "{", 3, 7)
        kind, text, line, column = token
        assert (kind, text, line, column) == tuple(token)

    def test_is_helpers(self):
        assert make().is_punct("{")
        assert not make().is_punct("}")
        assert not make(TokenKind.KEYWORD, "if").is_punct("if")
        assert make(TokenKind.KEYWORD, "if").is_keyword("if")
        assert not make(TokenKind.IDENTIFIER, "if").is_keyword("if")
        identifier = make(TokenKind.IDENTIFIER, "foo")
        assert identifier.is_identifier()
        assert identifier.is_identifier("foo")
        assert not identifier.is_identifier("bar")
        assert not make(TokenKind.KEYWORD, "int").is_identifier()

    def test_end_line(self):
        assert make().end_line == 3
        comment = make(TokenKind.COMMENT, "/* a\nb\nc */", 4, 1)
        assert comment.end_line == 6

    def test_equality_and_hashing(self):
        assert make() == make()
        assert make() != make(column=8)
        assert make() != make(TokenKind.IDENTIFIER)
        assert hash(make()) == hash(make())
        assert len({make(), make(), make(line=4)}) == 2

    def test_lexer_tokens_are_tokens(self):
        token = tokenize("x")[0]
        assert type(token) is Token
        assert token == make(TokenKind.IDENTIFIER, "x", 1, 1)

    def test_pickle_round_trip(self):
        tokens = tokenize("int x = 0x1p3; // done\n")
        restored = pickle.loads(pickle.dumps(tokens))
        assert restored == tokens
        assert all(type(token) is Token for token in restored)
        assert restored[0].kind is TokenKind.KEYWORD

    def test_str(self):
        assert str(make()) == "punct('{')@3:7"
        assert str(make(TokenKind.STRING, '"a"', 1, 2)) == \
            "string('\"a\"')@1:2"

    def test_token_kind_hash_is_identity(self):
        assert hash(TokenKind.PUNCT) == object.__hash__(TokenKind.PUNCT)
        assert {TokenKind.PUNCT: 1}[TokenKind.PUNCT] == 1
        assert pickle.loads(pickle.dumps(TokenKind.NUMBER)) is \
            TokenKind.NUMBER

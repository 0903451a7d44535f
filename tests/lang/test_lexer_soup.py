"""Hypothesis token soup: the master-regex lexer matches the reference.

The soup is built from the fragments where the two scanners could
disagree — quotes, backslash-newlines, ``#`` and line starts, comment
openers, hex prefixes, digit separators, dots, raw-string prefixes and
exponent/suffix letters — mixed with arbitrary characters.  In strict
and tolerant mode the token lists, or the ``LexError`` message and
position, must be identical.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from .test_lexer_oracle import assert_agrees  # noqa: E402

FRAGMENTS = (
    '"', "'", "\\", "\\\n", "\n", "\r\n", " ", "\t", "\f", "#", "##",
    "//", "/*", "*/", "/", "*", "0x", "0X", "0", "1", "9", ".", "..",
    "e", "E", "p", "P", "+", "-", "u", "U", "l", "L", "f", "F", "x",
    "R", "u8", "LR", "R\"(", ")\"", "(", ")", "a", "_", "$", "<", ">",
    "=", ":", ";", "@", "`", "\x00", "é",
)

soup = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.characters()),
                max_size=40).map("".join)


@settings(max_examples=600, deadline=None)
@given(soup)
def test_tolerant_soup_agrees(source):
    assert_agrees(source, strict=False)


@settings(max_examples=600, deadline=None)
@given(soup)
def test_strict_soup_agrees(source):
    assert_agrees(source, strict=True)

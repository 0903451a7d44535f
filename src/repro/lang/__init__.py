"""Language-processing substrate: lexer, fuzzy C++ model, and MiniC.

Two layers coexist by design (see DESIGN.md):

* the *fuzzy* layer (:mod:`repro.lang.lexer`, :mod:`repro.lang.cppmodel`)
  tokenizes and structurally models arbitrary industrial C++/CUDA, the way
  Lizard does — robust, heuristic, never executes anything;
* the *strict* layer (:mod:`repro.lang.minic`) parses and executes a
  well-defined C subset, which the coverage engine instruments.
"""

from .cppmodel import (
    ClassInfo,
    FunctionInfo,
    GlobalVariable,
    Parameter,
    TranslationUnit,
    parse_translation_unit,
)
from .lexer import Lexer, code_tokens, tokenize
from .preprocessor import (
    Include,
    MacroDefinition,
    PreprocessorSummary,
    summarize,
    summarize_tokens,
)
from .summary import (
    ClassSummary,
    FunctionSummary,
    UnitSummary,
    summarize_unit,
    unit_summaries,
)
from .tokens import Token, TokenKind

__all__ = [
    "ClassInfo",
    "ClassSummary",
    "FunctionInfo",
    "FunctionSummary",
    "GlobalVariable",
    "Include",
    "Lexer",
    "MacroDefinition",
    "Parameter",
    "PreprocessorSummary",
    "Token",
    "TokenKind",
    "TranslationUnit",
    "UnitSummary",
    "code_tokens",
    "parse_translation_unit",
    "summarize",
    "summarize_tokens",
    "summarize_unit",
    "tokenize",
    "unit_summaries",
]

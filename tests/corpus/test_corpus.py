"""Tests for the synthetic corpus generator."""

import os
import random

import pytest

from repro.corpus import (
    APOLLO_MODULES,
    ComplexityProfile,
    CorpusSpec,
    EXPECTED_OVER_TEN,
    ModuleSpec,
    apollo_spec,
    generate_corpus,
    read_tree,
    write_corpus,
)
from repro.corpus.functions import FunctionFactory, FunctionRequest, \
    NamePool
from repro.errors import CorpusError
from repro.lang import parse_translation_unit


def parse_lines(lines):
    return parse_translation_unit("\n".join(lines) + "\n", "gen.cc")


class TestSpecs:
    def test_profile_totals(self):
        profile = ComplexityProfile(low=10, moderate=3, risky=2, unstable=1)
        assert profile.total == 16
        assert profile.over_ten == 6

    def test_profile_scaling_keeps_nonzero_bands(self):
        profile = ComplexityProfile(low=100, moderate=4, risky=2,
                                    unstable=1)
        scaled = profile.scaled(0.01)
        assert scaled.low >= 1
        assert scaled.moderate >= 1
        assert scaled.unstable >= 1

    def test_zero_band_stays_zero_when_scaled(self):
        profile = ComplexityProfile(low=100, moderate=0, risky=0,
                                    unstable=0)
        assert profile.scaled(0.5).moderate == 0

    def test_invalid_module_name(self):
        with pytest.raises(CorpusError):
            ModuleSpec(name="bad name",
                       profile=ComplexityProfile(1, 0, 0, 0))

    def test_invalid_ratio(self):
        with pytest.raises(CorpusError):
            ModuleSpec(name="m", profile=ComplexityProfile(1, 0, 0, 0),
                       multi_exit_ratio=1.5)

    def test_duplicate_modules_rejected(self):
        module = ModuleSpec(name="m", profile=ComplexityProfile(1, 0, 0, 0))
        with pytest.raises(CorpusError):
            CorpusSpec(modules=(module, module))

    def test_invalid_scale_rejected(self):
        module = ModuleSpec(name="m", profile=ComplexityProfile(1, 0, 0, 0))
        with pytest.raises(CorpusError):
            CorpusSpec(modules=(module,), scale=0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(CorpusError, match="finite"):
            apollo_spec(scale=scale)

    def test_apollo_calibration_sums_to_554(self):
        assert EXPECTED_OVER_TEN == 554
        assert sum(module.profile.over_ten
                   for module in APOLLO_MODULES) == 554


class TestFunctionFactory:
    def make(self, **kwargs):
        rng = random.Random(1)
        factory = FunctionFactory(rng)
        request = FunctionRequest(name="TestedFunction", **kwargs)
        return parse_lines(factory.render(request)), request

    @pytest.mark.parametrize("target", [1, 2, 5, 11, 20, 35, 55])
    def test_exact_complexity(self, target):
        unit, _ = self.make(complexity=target)
        assert unit.function("TestedFunction").cyclomatic_complexity \
            == target

    def test_multi_exit_flag(self):
        unit, _ = self.make(complexity=4, multi_exit=True)
        assert unit.function("TestedFunction").has_multiple_exits

    def test_single_exit_by_default(self):
        unit, _ = self.make(complexity=4)
        assert not unit.function("TestedFunction").has_multiple_exits

    def test_goto_emitted(self):
        unit, _ = self.make(complexity=2, use_goto=True)
        assert unit.function("TestedFunction").goto_count == 1

    def test_cast_count(self):
        from repro.checkers import CastChecker
        unit, _ = self.make(complexity=2, cast_count=3)
        report = CastChecker().check_project([unit])
        assert report.stats["explicit_casts"] >= 3

    def test_dynamic_alloc(self):
        unit, _ = self.make(complexity=2, dynamic_alloc=True)
        assert unit.function("TestedFunction").uses_dynamic_memory

    def test_recursive_template(self):
        rng = random.Random(2)
        factory = FunctionFactory(rng)
        request = FunctionRequest(name="WalkTree", complexity=3,
                                  recursive=True)
        unit = parse_lines(factory.render(request))
        function = unit.function("WalkTree")
        assert "WalkTree" in function.calls

    def test_lines_within_google_limit(self):
        rng = random.Random(3)
        factory = FunctionFactory(rng)
        for index in range(30):
            request = FunctionRequest(name=f"Func{index}",
                                      complexity=1 + index % 25)
            for line in factory.render(request):
                assert len(line) <= 80, line

    def test_name_pool_unique(self):
        pool = NamePool(random.Random(4))
        names = [pool.function_name() for _ in range(500)]
        assert len(set(names)) == 500


class TestGeneration:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(apollo_spec(scale=0.03))

    def test_deterministic(self, corpus):
        again = generate_corpus(apollo_spec(scale=0.03))
        assert corpus.sources() == again.sources()

    def test_different_seed_differs(self, corpus):
        other = generate_corpus(apollo_spec(scale=0.03, seed=1))
        assert corpus.sources() != other.sources()

    def test_all_modules_present(self, corpus):
        assert set(corpus.module_names()) == {
            module.name for module in APOLLO_MODULES}

    def test_every_file_parses(self, corpus):
        for record in corpus.files:
            unit = parse_translation_unit(record.source, record.path)
            assert unit.line_count > 0

    def test_exact_cc_over_ten(self, corpus):
        from repro.metrics import summarize_units
        units = [parse_translation_unit(record.source, record.path)
                 for record in corpus.files]
        summary = summarize_units(units)
        assert summary.moderate_or_higher == \
            corpus.spec.expected_over_ten

    def test_cuda_files_only_where_specified(self, corpus):
        cuda_modules = {record.module for record in corpus.files
                        if record.path.endswith(".cu")}
        assert cuda_modules == {"perception", "drivers"}

    def test_headers_have_guards(self, corpus):
        headers = [record for record in corpus.files
                   if record.path.endswith(".h")]
        assert headers
        for record in headers:
            assert "#ifndef" in record.source

    def test_globals_count_exact(self, corpus):
        for module in corpus.spec.effective_modules():
            count = 0
            for record in corpus.files_of(module.name):
                unit = parse_translation_unit(record.source, record.path)
                count += len(unit.mutable_globals)
            assert count == module.globals_count, module.name


class TestWriter:
    def test_write_and_read_roundtrip(self, tmp_path):
        corpus = generate_corpus(apollo_spec(scale=0.02))
        written = write_corpus(corpus, str(tmp_path))
        assert len(written) == len(corpus.files)
        loaded = read_tree(str(tmp_path))
        assert loaded == corpus.sources()

    def test_refuses_overwrite(self, tmp_path):
        corpus = generate_corpus(apollo_spec(scale=0.02))
        write_corpus(corpus, str(tmp_path))
        with pytest.raises(CorpusError):
            write_corpus(corpus, str(tmp_path))
        write_corpus(corpus, str(tmp_path), overwrite=True)

    def test_all_c_family_extensions_loaded(self, tmp_path):
        # .c, .hpp, .cxx, and .hh were once silently dropped, and so
        # were the template implementation files .tcc, .inl and .ipp
        names = {"legacy.c", "types.hpp", "impl.cxx", "iface.hh",
                 "main.cc", "kernel.cu", "decl.h", "body.cpp", "dev.cuh",
                 "vector.tcc", "inline.inl", "detail.ipp"}
        for name in names:
            (tmp_path / name).write_text(f"// {name}\n")
        (tmp_path / "notes.txt").write_text("not source\n")
        (tmp_path / "build.o").write_bytes(b"\x7fELF")
        loaded = read_tree(str(tmp_path))
        assert set(loaded) == names

    def test_non_utf8_file_read_tolerantly(self, tmp_path):
        (tmp_path / "latin1.cc").write_bytes(
            b"// r\xe9sum\xe9 of the controller\nint x;\n")
        loaded = read_tree(str(tmp_path))
        assert "int x;" in loaded["latin1.cc"]
        assert "�" in loaded["latin1.cc"]

    def test_upper_case_extensions_loaded(self, tmp_path):
        # Old Unix C++ (.C), DOS-era exports (.CPP, .HH): matching is
        # case-insensitive, so these need no SOURCE_EXTENSIONS entries.
        for name in ("olden.C", "exported.CPP", "iface.HH",
                     "Mixed.CxX", "plain.cpp"):
            (tmp_path / name).write_text(f"// {name}\n")
        (tmp_path / "NOTES.TXT").write_text("not source\n")
        loaded = read_tree(str(tmp_path))
        assert set(loaded) == {"olden.C", "exported.CPP", "iface.HH",
                               "Mixed.CxX", "plain.cpp"}

    def test_default_case_corpus_stays_byte_identical(self, tmp_path):
        """Case-insensitive matching must not perturb the lower-case
        default corpus: same files, same bytes, same order."""
        corpus = generate_corpus(apollo_spec(scale=0.02))
        write_corpus(corpus, str(tmp_path))
        assert read_tree(str(tmp_path)) == corpus.sources()

    def test_unreadable_file_is_skipped_not_fatal(self, tmp_path):
        from repro.obs import BufferLog
        (tmp_path / "good.cc").write_text("int x;\n")
        # A dangling symlink: the walk sees the name, the open fails
        # with OSError — the same shape as a file vanishing (atomic-
        # rename race) or turning unreadable between walk and read.
        os.symlink(str(tmp_path / "no-such-target"),
                   str(tmp_path / "ghost.cc"))
        log = BufferLog()
        skipped = []
        loaded = read_tree(str(tmp_path), log=log, skipped=skipped)
        assert loaded == {"good.cc": "int x;\n"}
        assert skipped == ["ghost.cc"]
        events = [event for event in log.events
                  if event["event"] == "parse.skipped_unreadable"]
        assert len(events) == 1
        assert events[0]["path"] == "ghost.cc"
        assert "FileNotFoundError" in events[0]["error"]

    def test_skip_accounting_is_optional(self, tmp_path):
        os.symlink(str(tmp_path / "gone"), str(tmp_path / "ghost.cc"))
        assert read_tree(str(tmp_path)) == {}

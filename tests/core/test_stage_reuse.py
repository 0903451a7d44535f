"""Stage 1 reuses a previous result's untouched files.

A file whose source is the very string object the previous result
assessed takes that result's parse outcome, bundle and keys without
hashing or a cache lookup; the cache still accounts a hit for each of
its entries.  Anything else — a new string, even with equal text — is
looked up as always, and the result is the same either way.
"""

import pytest

from repro.checkers.base import Checker
from repro.core import AssessmentPipeline, MemoryCache, PipelineConfig
from repro.corpus import apollo_spec, generate_corpus
from repro.store import Store

from .test_parallel_cache import assert_identical


class CountingCache(MemoryCache):
    """A memory cache that counts its lookups."""

    def __init__(self) -> None:
        super().__init__()
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return super().get(key)


class Quiet(Checker):
    """A per-unit checker that finds nothing."""

    name = "quiet"

    def unit_visitor(self, unit, report, sweep):
        pass


@pytest.fixture(scope="module")
def corpus_sources():
    return generate_corpus(apollo_spec(scale=0.02)).sources()


def run(sources, cache, previous=None, **config):
    return AssessmentPipeline(PipelineConfig(cache=cache, **config)).run(
        sources, previous=previous)


def edit(sources, index=0):
    """A copy of ``sources`` sharing every string but one file's."""
    edited = dict(sources)
    path = sorted(edited)[index]
    edited[path] += "\nint edited_here(int a) { return a; }\n"
    return edited


def test_one_file_edit_makes_two_lookups(corpus_sources):
    cache = CountingCache()
    first = run(corpus_sources, cache)
    cache.gets = 0
    hits = cache.hits
    second = run(edit(corpus_sources), cache, previous=first)
    assert cache.gets == 2
    files = len(corpus_sources)
    assert cache.hits - hits == 2 * (files - 1)
    assert cache.referenced >= {key for _, parse_key, check_key
                                in second.signature.files
                                for key in (parse_key, check_key)}
    assert_identical(second, run(edit(corpus_sources), MemoryCache()))


def test_unchanged_tree_makes_no_lookup(corpus_sources):
    cache = CountingCache()
    first = run(corpus_sources, cache)
    cache.gets = 0
    second = run(dict(corpus_sources), cache, previous=first)
    assert cache.gets == 0
    assert second.project_reused


def test_equal_but_new_strings_are_looked_up(corpus_sources):
    cache = CountingCache()
    first = run(corpus_sources, cache)
    cache.gets = 0
    copies = {path: "".join(list(source))
              for path, source in corpus_sources.items()}
    assert all(copies[path] is not corpus_sources[path]
               for path in copies)
    second = run(copies, cache, previous=first)
    assert cache.gets == 2 * len(copies)
    assert second.project_reused
    assert_identical(second, first)


def test_changed_checkers_look_everything_up(corpus_sources):
    cache = CountingCache()
    first = run(corpus_sources, cache)
    cache.gets = 0
    second = run(corpus_sources, cache, previous=first,
                 extra_checkers=(Quiet(),))
    assert cache.gets == 2 * len(corpus_sources)
    assert second.parts.changed is None  # folded from nothing


def test_an_entry_retain_dropped_is_looked_up(corpus_sources):
    cache = CountingCache()
    first = run(corpus_sources, cache)
    cache.retain(set())
    cache.gets = 0
    misses = cache.misses
    second = run(corpus_sources, cache, previous=first)
    # every file missed both entries and was recomputed
    assert cache.gets == cache.misses - misses == 2 * len(corpus_sources)
    assert_identical(second, first)


def test_an_on_disk_store_looks_everything_up(corpus_sources, tmp_path):
    """An on-disk object area cannot vouch for entries it would have to
    re-read (rot, gc), so it declines reuse."""
    cache = Store(str(tmp_path / "store")).object_store()
    first = run(corpus_sources, cache)
    assert not cache.reuse([key for key in cache.referenced])
    hits = cache.hits
    second = run(edit(corpus_sources), cache, previous=first)
    assert cache.hits - hits == 2 * (len(corpus_sources) - 1)
    assert cache.misses == 2 * len(corpus_sources) + 2
    assert_identical(second, run(edit(corpus_sources), MemoryCache()))

"""TreeWatcher: stat-first polling and the mid-iteration edge races."""

import os

import pytest

from repro.errors import CorpusError
from repro.obs import BufferLog
from repro.serve import TreeWatcher

from .conftest import CLEAN, GOTO, write


def bump_mtime(path):
    """Move a file's mtime without touching its content."""
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


class TestBaselinePoll:
    def test_first_poll_adds_everything(self, tree):
        watcher = TreeWatcher(tree)
        delta = watcher.poll()
        assert delta.added == ["clean.cpp", "dirty.cpp"]
        assert delta.changed == delta.removed == delta.touched == []
        assert watcher.sources["clean.cpp"] == CLEAN
        assert delta.material

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            TreeWatcher(str(tmp_path / "absent")).poll()

    def test_upper_case_extensions_are_watched(self, tmp_path):
        root = tmp_path / "t"
        root.mkdir()
        write(root, "legacy.CPP", CLEAN)
        watcher = TreeWatcher(str(root))
        assert watcher.poll().added == ["legacy.CPP"]


class TestIncrementalPoll:
    def test_unchanged_tree_is_not_even_reread(self, tree, monkeypatch):
        watcher = TreeWatcher(tree)
        watcher.poll()
        reads = []
        original = TreeWatcher._read
        monkeypatch.setattr(
            TreeWatcher, "_read",
            lambda self, full: reads.append(full) or original(self, full))
        delta = watcher.poll()
        assert not delta.material
        assert reads == []

    def test_content_change_is_changed(self, tree):
        watcher = TreeWatcher(tree)
        watcher.poll()
        write(tree, "clean.cpp", GOTO)
        delta = watcher.poll()
        assert delta.changed == ["clean.cpp"]
        assert delta.added == delta.removed == []
        assert watcher.sources["clean.cpp"] == GOTO

    def test_identical_rewrite_is_touched_not_changed(self, tree):
        watcher = TreeWatcher(tree)
        watcher.poll()
        # Rewrite identical bytes, force the stat to move: the watcher
        # must re-read, notice the digest matches, and not re-emit.
        write(tree, "clean.cpp", CLEAN)
        bump_mtime(os.path.join(tree, "clean.cpp"))
        delta = watcher.poll()
        assert delta.touched == ["clean.cpp"]
        assert not delta.material

    def test_touched_stat_is_remembered(self, tree):
        watcher = TreeWatcher(tree)
        watcher.poll()
        bump_mtime(os.path.join(tree, "clean.cpp"))
        watcher.poll()
        assert not watcher.poll().touched  # new stat was recorded

    def test_new_file_is_added(self, tree):
        watcher = TreeWatcher(tree)
        watcher.poll()
        write(tree, "sub/new.cu", CLEAN)
        delta = watcher.poll()
        assert delta.added == ["sub/new.cu"]
        assert "sub/new.cu" in watcher.sources

    def test_deleted_file_is_removed(self, tree):
        watcher = TreeWatcher(tree)
        watcher.poll()
        os.remove(os.path.join(tree, "dirty.cpp"))
        delta = watcher.poll()
        assert delta.removed == ["dirty.cpp"]
        assert "dirty.cpp" not in watcher.sources


class TestEdgeRaces:
    def test_deleted_mid_iteration_is_removed(self, tree, monkeypatch):
        """The walk saw the name, the read did not: still a removal."""
        watcher = TreeWatcher(tree)
        watcher.poll()
        write(tree, "dirty.cpp", GOTO * 2)

        def racing_read(self, full):
            if full.endswith("dirty.cpp"):
                os.remove(full)
                raise FileNotFoundError(2, "gone", full)
            return original(self, full)

        original = TreeWatcher._read
        monkeypatch.setattr(TreeWatcher, "_read", racing_read)
        delta = watcher.poll()
        assert delta.removed == ["dirty.cpp"]
        assert delta.changed == []
        assert "dirty.cpp" not in watcher.sources

    def test_unreadable_keeps_last_known_content(self, tree, monkeypatch):
        log = BufferLog()
        watcher = TreeWatcher(tree, log=log)
        watcher.poll()
        write(tree, "dirty.cpp", GOTO * 2)

        def denied_read(self, full):
            if full.endswith("dirty.cpp"):
                raise PermissionError(13, "denied", full)
            return original(self, full)

        original = TreeWatcher._read
        monkeypatch.setattr(TreeWatcher, "_read", denied_read)
        delta = watcher.poll()
        assert delta.skipped == ["dirty.cpp"]
        assert not delta.material
        assert watcher.sources["dirty.cpp"] == GOTO  # stale, not gone
        assert watcher.skipped_total == 1
        assert any(event["event"] == "parse.skipped_unreadable"
                   for event in log.events)

    def test_unreadable_new_file_is_not_tracked(self, tree, monkeypatch):
        watcher = TreeWatcher(tree)
        watcher.poll()
        write(tree, "new.cpp", CLEAN)

        def denied_read(self, full):
            if full.endswith("new.cpp"):
                raise PermissionError(13, "denied", full)
            return original(self, full)

        original = TreeWatcher._read
        monkeypatch.setattr(TreeWatcher, "_read", denied_read)
        delta = watcher.poll()
        assert delta.skipped == ["new.cpp"]
        assert "new.cpp" not in watcher.sources
        # the existing files must not be reported removed
        assert delta.removed == []


class TestSymlinks:
    def test_symlinked_directory_is_not_followed(self, tree):
        os.symlink(tree, os.path.join(tree, "loop"))
        watcher = TreeWatcher(tree)
        assert watcher.poll().added == ["clean.cpp", "dirty.cpp"]
        assert not watcher.poll().material

    def test_symlinked_file_is_watched(self, tree, tmp_path):
        target = write(tmp_path, "outside.cc", CLEAN)
        os.symlink(target, os.path.join(tree, "linked.cc"))
        watcher = TreeWatcher(tree)
        assert "linked.cc" in watcher.poll().added
        write(tmp_path, "outside.cc", GOTO)
        bump_mtime(target)
        assert watcher.poll().changed == ["linked.cc"]
        assert watcher.sources["linked.cc"] == GOTO

    def test_dangling_symlink_is_ignored(self, tree, tmp_path):
        os.symlink(str(tmp_path / "no-such-target"),
                   os.path.join(tree, "ghost.cc"))
        watcher = TreeWatcher(tree)
        delta = watcher.poll()
        assert delta.added == ["clean.cpp", "dirty.cpp"]
        assert delta.skipped == []
        assert "ghost.cc" not in watcher.sources

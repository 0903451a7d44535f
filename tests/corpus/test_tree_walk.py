"""``iter_tree_files``: prefix slicing equals ``os.path.relpath``."""

import os

import pytest

from repro.corpus.writer import iter_tree_files, read_tree


def relpath_walk(root):
    """The reference: every pair through ``os.path.relpath``."""
    pairs = []
    for directory, _, filenames in os.walk(root):
        for filename in filenames:
            if filename.lower().endswith((".cc", ".h", ".cpp", ".hh")):
                full = os.path.join(directory, filename)
                pairs.append((os.path.relpath(full, root).replace(
                    os.sep, "/"), full))
    return pairs


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "tree"
    for relative in ("top.cc", "a/one.cpp", "a/b/two.CPP", "a/b/c/three.HH",
                     "d/four.h", "d/notes.txt", "e/f/g/h/deep.cc"):
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("int x;\n")
    os.symlink(root / "a" / "one.cpp", root / "d" / "linked.cc")
    return root


@pytest.mark.parametrize("spelling", ["absolute", "absolute/", "relative",
                                      "relative/", ".", "./",
                                      "nested/..", "sub/../tree"])
def test_pairs_match_relpath_in_order(tree, monkeypatch, spelling):
    if spelling in (".", "./"):
        monkeypatch.chdir(tree)
        root = spelling
    elif spelling.startswith("relative"):
        monkeypatch.chdir(tree.parent)
        root = "tree" + spelling[len("relative"):]
    elif spelling == "nested/..":
        monkeypatch.chdir(tree)
        root = "a/.."
    elif spelling == "sub/../tree":
        monkeypatch.chdir(tree.parent)
        root = "tree/../tree"
    else:
        root = str(tree) + spelling[len("absolute"):]
    pairs = list(iter_tree_files(root, (".cc", ".h", ".cpp", ".hh")))
    assert pairs == relpath_walk(root)
    relatives = {relative for relative, _ in pairs}
    assert {"top.cc", "a/b/two.CPP", "a/b/c/three.HH", "d/linked.cc",
            "e/f/g/h/deep.cc"} <= relatives
    assert "d/notes.txt" not in relatives


def test_symlinked_directory_is_not_followed(tmp_path):
    """A directory link is not descended into, so a link back up the
    tree cannot make the walk loop."""
    root = tmp_path / "tree"
    (root / "src").mkdir(parents=True)
    (root / "src" / "real.cc").write_text("int x;\n")
    os.symlink(root, root / "src" / "loop")
    os.symlink(root / "src", root / "alias")
    pairs = list(iter_tree_files(str(root)))
    assert [relative for relative, _ in pairs] == ["src/real.cc"]


def test_symlinked_file_is_included(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (tmp_path / "outside.cc").write_text("int y;\n")
    os.symlink(tmp_path / "outside.cc", root / "linked.cc")
    assert read_tree(str(root)) == {"linked.cc": "int y;\n"}


def test_dangling_symlink_is_ignored(tmp_path):
    root = tmp_path / "tree"
    root.mkdir()
    (root / "good.cc").write_text("int x;\n")
    os.symlink(tmp_path / "no-such-target", root / "ghost.cc")
    assert read_tree(str(root)) == {"good.cc": "int x;\n"}

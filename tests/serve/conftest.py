"""Shared serve fixtures: tiny on-disk source trees."""

import json
import os

import pytest

CLEAN = "int add(int a, int b) { return a + b; }\n"
GOTO = "int f() { goto end; end: return 1; }\n"


def plain(reply):
    """What plain ``json.dumps`` writes for ``reply``: the bytes every
    served reply line must be."""
    return json.dumps(reply, sort_keys=True, separators=(",", ":")) + "\n"


def write(root, relative, text):
    full = os.path.join(str(root), relative)
    os.makedirs(os.path.dirname(full), exist_ok=True)
    with open(full, "w", encoding="utf-8") as handle:
        handle.write(text)
    return full


@pytest.fixture
def tree(tmp_path):
    """A two-file tree: one clean unit, one with violations."""
    root = tmp_path / "tree"
    root.mkdir()
    write(root, "clean.cpp", CLEAN)
    write(root, "dirty.cpp", GOTO)
    return str(root)

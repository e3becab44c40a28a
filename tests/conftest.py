"""Shared fixtures: small named trees, seeded random corpora, and the
deterministic Hypothesis profile."""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from steinerdh import Tree, path_tree, prufer_decode, random_tree, star_tree

# Property tests draw the same examples on every machine and keep no example
# database on disk; each test's own max_examples still applies.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    """Hypothesis also caches the constants it reads from source files while
    pytest collects; keep that cache in a temporary directory removed at exit,
    not in .hypothesis/."""
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


@pytest.fixture
def k2() -> Tree:
    return prufer_decode(2, [])


@pytest.fixture
def path3() -> Tree:
    return path_tree(3)


@pytest.fixture
def star4() -> Tree:
    return star_tree(4)


def tree_corpus(count: int, n_lo: int, n_hi: int, seed0: int = 0) -> list[Tree]:
    """Deterministic corpus: vertex counts cycle through [n_lo, n_hi]."""
    out = []
    span = n_hi - n_lo + 1
    for i in range(count):
        out.append(random_tree(n_lo + i % span, seed0 + i))
    return out

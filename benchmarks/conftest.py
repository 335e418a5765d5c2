"""Shared helpers for the per-figure benchmarks.

Each benchmark regenerates one paper table/figure via the corresponding
``repro.experiments`` module (small request counts for bounded runtime),
records the headline numbers in ``benchmark.extra_info``, and asserts
the paper's qualitative shape.  Run with::

    pytest benchmarks/ --benchmark-only

The perf benches compare this tree against a base revision through the
session-scoped ``base_tree`` fixture:

* the base is ``git merge-base HEAD origin/main``, or ``HEAD~1`` when
  that is HEAD itself (a run on main) or ``origin/main`` is unknown;
* it is checked out once per session with ``git worktree add --detach``
  into a temporary directory, removed again afterwards;
* :func:`run_leg` runs a snippet in a fresh subprocess with
  ``PYTHONPATH`` pointing at one tree's ``src``.

Those benches skip only outside a git work tree.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def base_revision():
    head = git("rev-parse", "HEAD")
    try:
        base = git("merge-base", "HEAD", "origin/main")
    except subprocess.CalledProcessError:
        base = head
    return git("rev-parse", "HEAD~1") if base == head else base


@pytest.fixture(scope="session")
def base_tree():
    """``(revision, checkout path)`` of the base revision."""
    try:
        git("rev-parse", "--is-inside-work-tree")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("the base revision needs a git work tree")
    revision = base_revision()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(tree), revision)
        try:
            yield revision, tree
        finally:
            git("worktree", "remove", "--force", str(tree))


def run_leg(tree, source):
    """Run ``source`` in a fresh interpreter on ``tree``'s package.

    ``source`` must print ``repro.__file__`` followed by its results on
    its last stdout line; returns those results as strings, after
    checking the package really came from ``tree``.
    """
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_CATALOG": "off",
    }
    module, *fields = subprocess.run(
        [sys.executable, "-c", source], cwd=tree, env=env, check=True,
        capture_output=True, text=True,
    ).stdout.splitlines()[-1].split()
    assert Path(module).resolve().is_relative_to((tree / "src").resolve()), module
    return fields

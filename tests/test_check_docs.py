"""The docs gate (``tools/check_docs.py``) catches names of modules,
files and constants that are not in the tree."""

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


@pytest.fixture
def tree(tmp_path):
    """A copy of the repo to plant stale names in (``results/`` linked)."""
    root = tmp_path / "repo"
    shutil.copytree(REPO_ROOT, root, ignore=shutil.ignore_patterns(
        ".*", "__pycache__", "results"))
    (root / "results").symlink_to(REPO_ROOT / "results")
    return root


def plant(path, line):
    path.write_text(path.read_text(encoding="utf-8") + f"\n{line}\n", encoding="utf-8")


def test_repo_docs_name_only_what_exists():
    assert check_docs.check_named_files(REPO_ROOT) == []


@pytest.mark.parametrize("line, error", [
    ("See `repro.core.graphs` for graphs.", "names missing module repro.core.graphs"),
    ("Call repro.apps.models.build_model_dag().",
     "names missing module repro.apps.models.build_model_dag"),
    ("Graphs live in `core/graphs.py`.", "names missing file core/graphs.py"),
    ("Run `python tools/no_such_tool.py`.", "names missing file tools/no_such_tool.py"),
    ("Above `MAX_ENUMERATED_CONFIGS` splits, search locally.",
     "names missing constant MAX_ENUMERATED_CONFIGS"),
    ("The cap is `_RATES_L3_SIZE = 65536`.", "names missing constant _RATES_L3_SIZE"),
])
def test_stale_name_fails(tree, line, error):
    assert check_docs.check_named_files(tree) == []
    plant(tree / "docs" / "api.md", line)
    assert check_docs.check_named_files(tree) == [f"docs/api.md: {error}"]
    assert f"docs/api.md: {error}" in check_docs.check(tree)
    assert check_docs.main(["check_docs.py", str(tree)]) == 1


@pytest.mark.parametrize("line", [
    "`repro.core.runtime.BlessRuntime.serve` and `repro.gpusim`",
    "`repro.apps.models.inference_app` in `apps/models.py`",
    "`CONFIG_CACHE_SIZE`, `_DECISIONS` and `KAPPA_RESTRICTED = 0.56`",
    "`REPRO_NO_SUCH_VAR`, `N = 18`, `KAPPA_*` and `PIP_NO_BUILD_ISOLATION=0 pip`",
])
def test_existing_names_pass(tree, line):
    plant(tree / "DESIGN.md", line)
    assert check_docs.check_named_files(tree) == []


def test_changes_history_exempt(tree):
    plant(tree / "CHANGES.md", "Deleted `core/graphs.py` and repro.core.graphs.")
    assert check_docs.check_named_files(tree) == []

"""docs/api.md names only parameters that exist.

Each table row lists ``Name(params)`` calls in its first column and the
module they import from in its second.  Every bare-identifier parameter
of a row's first call (``quota``, ``jobs=``) must be a parameter of the
resolved callable.  Literal placeholders (``"A"/"B"/"C"``), ``...``,
expressions (``engine.timeline``) and the calls chained after the
first (``.serve(bindings)``) are not checked.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

API_MD = Path(__file__).resolve().parents[1] / "docs" / "api.md"
CALL = re.compile(r"^([A-Za-z_][\w.]*)\(([^()]*)\)")
IDENTIFIER = re.compile(r"^[A-Za-z_]\w*$")


def documented_calls():
    calls = []
    for line in API_MD.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 2 or not cells[1].startswith("`repro"):
            continue
        module = cells[1].strip("`")
        for code in re.findall(r"`([^`]+)`", cells[0]):
            match = CALL.match(code)
            if match is None:
                continue
            params = [p.strip().rstrip("=") for p in match.group(2).split(",")]
            params = [p for p in params if IDENTIFIER.match(p)]
            calls.append(pytest.param(module, match.group(1), params, id=match.group(1)))
    return calls


CALLS = documented_calls()


def test_table_rows_found():
    names = {param.values[1] for param in CALLS}
    assert {"BlessRuntime", "SimEngine", "Application.with_quota"} <= names


@pytest.mark.parametrize("module, name, params", CALLS)
def test_documented_parameters_exist(module, name, params):
    target = importlib.import_module(module)
    for part in name.split("."):
        target = getattr(target, part)
    accepted = inspect.signature(target).parameters
    missing = [param for param in params if param not in accepted]
    assert not missing, f"{name} has no parameter(s) {missing}; it takes {list(accepted)}"

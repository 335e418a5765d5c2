"""One rep of one workload, in a fresh process (spawned by ``run.py``).

Usage: ``python rep.py WORKLOAD SEED MODE TMPDIR`` where MODE is
``pool`` (untraced, ``jobs=2``), ``serial`` (untraced, ``jobs=1``
in-process) or ``traced`` (``serial`` plus layer spans).  The caller
sets ``REPRO_CATALOG`` to a fresh sqlite file in TMPDIR.  The rep
writes ``TMPDIR/rep.json``: its ``perf_counter`` stamps (system-wide
monotonic on Linux, so the parent can subtract its spawn stamp), the
checked units, the simulation digest, the per-cell wall times read
back from the catalog and, when traced, the spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402


def sim_digest(units) -> str:
    """sha-256 over the canonical JSON of every unit's key and metrics."""
    payload = json.dumps(
        [[unit["key"], unit["metrics"]] for unit in units],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def main(argv) -> int:
    name, seed, mode, tmp = argv[0], int(argv[1]), argv[2], Path(argv[3])
    workload = WORKLOADS[name]
    recorder = None
    if mode == "traced":
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
    prepared = workload.prepare(seed, mode != "pool", tmp)
    first_span = len(recorder.spans) if recorder else 0
    timed_start = perf_counter()
    try:
        raw, error = prepared.run(), None
    except Exception as exc:  # the whole grid is lost; every unit fails
        raw, error = None, f"{type(exc).__name__}: {exc}"
    timed_end = perf_counter()
    last_span = len(recorder.spans) if recorder else 0

    if error is None:
        units, sim = prepared.collect(raw)
    else:
        units = [{"key": f"unit{i}", "metrics": None, "error": error}
                 for i in range(prepared.units)]
        sim = {}

    from repro.catalog.store import ResultsCatalog

    with ResultsCatalog(os.environ["REPRO_CATALOG"]) as catalog:
        runs = catalog.runs()
    out = {
        "timed_start": timed_start,
        "timed_end": timed_end,
        "setup_s": prepared.setup_s,
        "units": units,
        "sim": sim,
        "sim_digest": sim_digest(units),
        "cell_walls_s": [run.wall_time_s for run in runs if run.wall_time_s is not None],
        "catalog_rows": len(runs),
    }
    if recorder is not None:
        # Only spans of the timed section count; set-up and collection
        # also call wrapped functions.
        out["spans"] = [
            (name, start, end, parent - first_span if parent >= first_span else -1)
            for name, start, end, parent in recorder.spans[first_span:last_span]
        ]
        out["layer_of"] = recorder.layer_of
        out["squads"] = recorder.squads
        out["squad_kernels"] = recorder.squad_kernels
    (tmp / "rep.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

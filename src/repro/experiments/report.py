"""One-shot reproduction report: every headline number, one command.

``python -m repro report`` (or ``python -m repro.experiments.report``)
runs a reduced version of every evaluation artifact and prints a
paper-vs-measured digest — the live counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .common import format_table


def _tab01(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .tab01_applications import run

    table = run()
    worst = max(
        abs(s["duration_ms"] - s["paper_duration_ms"])
        for mode in table.values()
        for s in mode.values()
    )
    return f"max duration error {worst:.2f} ms; kernel counts exact", "exact"


def _fig01(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .fig01_bubbles import run

    data = run()
    return (
        f"marked request: BLESS {data['BLESS']['marked_request_ms']:.1f} ms "
        f"vs TEMPORAL {data['TEMPORAL']['marked_request_ms']:.1f} / "
        f"GSLICE {data['GSLICE']['marked_request_ms']:.1f}",
        "temporal 17.1 / spatial 11.5 / ideal 10.1 ms",
    )


def _fig09(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .fig09_interference import run

    data = run()
    return (
        f"kernel slowdown <= {data['max_kernel_slowdown']:.2f}x; "
        f"app-level {data['mean_app_slowdown']:.3f}x",
        "<= 2x; ~1.07x",
    )


def _fig10(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .fig10_predictors import run

    data = run(pairs=10)
    return (
        f"prediction error {data['mean_prediction_error']:.1%}; "
        f"optimum match {data['top1_match_rate']:.0%}",
        "~7%; 96.2%",
    )


def _fig13(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .fig13_overall import run_inference, run_saturation

    data = run_inference(requests=6, jobs=jobs)
    reductions = data["reductions"]
    sat = run_saturation(requests=6, jobs=jobs)
    text = ", ".join(
        f"{name} {value:+.1%}" for name, value in reductions.items()
    )
    return (
        f"BLESS reduction: {text}; saturated {sat['overhead']:+.1%} vs GSLICE",
        "TEMPORAL 37.3%, MIG 34.2%, GSLICE 21.1%, UNBOUND 16.5%, REEF+ 13.5%; < +3%",
    )


def _fig14(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .fig14_deviation import run_quick

    data = run_quick(requests=4, jobs=jobs)
    text = ", ".join(f"{k} {v / 1000:.2f}ms" for k, v in data.items())
    return text, "TEMPORAL 14.3, GSLICE 2.1, BLESS 0.6 ms"


def _fig15(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .fig15_multiapp import run

    data = run(requests=3, jobs=jobs)
    return (
        f"4 apps: BLESS {1 - data[4]['BLESS']['mean_ms'] / data[4]['GSLICE']['mean_ms']:.0%} "
        f"vs GSLICE; 8 apps: "
        f"{1 - data[8]['BLESS']['mean_ms'] / data[8]['GSLICE']['mean_ms']:.0%}",
        "18.3% and 35.5% vs GSLICE",
    )


def _fig16(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .fig16_biased import run

    data = run(requests=5)
    return (
        f"app1 {data['BLESS']['app1_vs_iso']:+.0%} vs ISO; app2 throughput "
        f"{data['_app2_speedup']['bless_over_gslice']:.1f}x GSLICE",
        "+9%; 2.2x",
    )


def _fig17(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .fig17_squads import run

    data = run(kernels_per_side=20)
    import numpy as np

    means = {
        key: float(np.mean([s[f"{key}_vs_SEQ"] for s in data.values()]))
        for key in ("NSP", "SP", "SemiSP")
    }
    return (
        f"vs SEQ: NSP {means['NSP']:.1%}, SP {means['SP']:.1%}, "
        f"Semi-SP {means['SemiSP']:.1%}",
        "6.5%, 12.9%, 17.6%",
    )


def _sec65(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .sec65_slo import run

    data = run(requests=6)
    worst = max(rates["BLESS"] for rates in data.values())
    return f"BLESS QoS violations <= {worst:.1%}", "0.6%"


def _sec69(jobs: Optional[int] = None) -> Tuple[str, str]:
    from .sec69_overhead import run

    data = run(requests=3)
    return (
        f"sync {data['squad_sync_us']:.0f}us, launch {data['kernel_launch_us']:.0f}us, "
        f"ctx-switch {data['context_switch_us']:.0f}us, "
        f"sched {data['sched_us_per_kernel']:.1f}us/kernel",
        "20us, 3us, 50us, 6.7us",
    )


REPORT_SECTIONS: List[Tuple[str, Callable[..., Tuple[str, str]]]] = [
    ("Table 1", _tab01),
    ("Fig. 1", _fig01),
    ("Fig. 9", _fig09),
    ("Fig. 10", _fig10),
    ("Fig. 13", _fig13),
    ("Fig. 14", _fig14),
    ("Fig. 15", _fig15),
    ("Fig. 16", _fig16),
    ("Fig. 17", _fig17),
    ("§6.5", _sec65),
    ("§6.9", _sec69),
]


def run(
    json_path: Optional[str] = None, jobs: Optional[int] = None
) -> Dict[str, Dict[str, str]]:
    """Run every section; optionally dump the digest as JSON."""
    digest: Dict[str, Dict[str, str]] = {}
    for name, section in REPORT_SECTIONS:
        started = time.time()
        # Sections may be externally supplied (tests monkeypatch this
        # list); only pass the worker count to those that accept it.
        if "jobs" in inspect.signature(section).parameters:
            measured, paper = section(jobs=jobs)
        else:
            measured, paper = section()
        digest[name] = {
            "measured": measured,
            "paper": paper,
            "seconds": f"{time.time() - started:.1f}",
        }
    if json_path:
        Path(json_path).write_text(json.dumps(digest, indent=2))
    return digest


def main(jobs: Optional[int] = None) -> None:
    digest = run(jobs=jobs)
    rows = [
        [name, entry["measured"], entry["paper"]]
        for name, entry in digest.items()
    ]
    print(format_table(["artifact", "measured", "paper"], rows,
                       title="BLESS reproduction digest"))


if __name__ == "__main__":
    main()

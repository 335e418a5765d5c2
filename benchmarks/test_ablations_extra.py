"""Bench: sweep the reproduction's own design choices (DESIGN.md).

Shape requirements: every variant still serves correctly, and the
defaults are not materially worse than any alternative.
"""

from conftest import run_once

from repro.experiments.ablations_extra import run


def test_ablations_extra(benchmark):
    data = run_once(benchmark, run, requests=5)
    # Defaults within 10% of the best alternative for every knob.
    assert (
        data["semi_sp_mode"]["adaptive"]
        <= data["semi_sp_mode"]["static"] * 1.10
    )
    benchmark.extra_info["sweeps"] = {
        knob: {k: round(v, 2) for k, v in values.items()}
        for knob, values in data.items()
    }

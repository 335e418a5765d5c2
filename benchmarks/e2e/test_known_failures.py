"""Program bugs the benchmark found, pinned as strict xfails until fixed.

Squad-boundary preemption livelock.  ``BlessRuntime._do_preempt``
re-arms its epoch hook while ``_current_execution.unconfirmed > 0``.
When nothing is running, ``SimEngine.request_preemption`` drains hooks
through a zero-delay event, so the hook fires again at the same instant,
ahead of the launch-confirmation event that would clear ``unconfirmed``:
the simulated clock stops and the run ends in
``simulation exceeded N events`` (50,000,000 by default, which also makes
``run_cells`` re-run the cell serially and pay it twice).  The fix
belongs in ``core/runtime.py``; when it lands these tests XPASS and fail,
and should then be turned into ordinary passing tests.

A 1M-event cap (this test only) keeps each case to a couple of seconds.
"""

import dataclasses

import pytest

from repro.core import BlessRuntime
from repro.gpusim.engine import SimEngine
from repro.gpusim.faults import FaultPlan
from repro.scenarios import load_zoo, scenario_cells
from repro.scenarios.components import bind_flash_crowd, slo_alternating
from repro.workloads.suite import multi_app_mix

EVENT_CAP = 1_000_000


@pytest.fixture
def capped_engine(monkeypatch):
    original = SimEngine.run

    def run(self, until=None, max_events=EVENT_CAP):
        return original(self, until, max_events)

    monkeypatch.setattr(SimEngine, "run", run)


def transient_failures_case():
    """The case found while sizing the ``slo_open_faults`` workload."""
    apps = multi_app_mix(4)
    system = BlessRuntime(
        slo=slo_alternating(apps, 3.0, preempt=True),
        fault_plan=FaultPlan(seed=1, kernel_failure_rate=0.01),
    )
    bindings = bind_flash_crowd(
        apps, mean_interval_factor=1.5, duration_intervals=36, spike_magnitude=4.0
    )
    return system, bindings, 146_842.58, 2


def zoo_flash_crowd_case():
    """No faults at all: the committed flash_crowd scenario re-seeded to 4."""
    spec = dataclasses.replace(load_zoo("flash_crowd"), seed=4)
    cell = next(
        cell for cell in scenario_cells(spec)
        if cell.key == ("arrivals.spike_magnitude=4", "BLESS")
    )
    system = cell.system_factory(**cell.system_kwargs)
    return system, cell.bindings_factory(), 206_284.65, 1


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="squad preemption re-arms a zero-delay hook forever")
@pytest.mark.parametrize("case", [transient_failures_case, zoo_flash_crowd_case],
                         ids=["transient_failures", "zoo_flash_crowd_seed4"])
def test_preemption_run_completes(capped_engine, case):
    system, bindings, stuck_at_us, unconfirmed = case()
    try:
        system.serve(bindings)
    except RuntimeError as exc:
        # The livelock's signature; anything else is a different bug.
        assert f"exceeded {EVENT_CAP} events" in str(exc)
        assert system.engine.now == pytest.approx(stuck_at_us, abs=0.01)
        assert system._current_execution.unconfirmed == unconfirmed
        assert system._preempt_armed
        assert not system.engine.has_running_kernels
        raise

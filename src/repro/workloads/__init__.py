"""Workload generators: arrival processes, traces, and the Table-2 suite."""

from .arrivals import (
    ArrivalProcess,
    ClosedLoop,
    OneShot,
    TraceReplay,
    drain_process,
)
from .suite import (
    LOAD_FACTORS,
    QUOTAS_2MODEL,
    QUOTAS_4MODEL,
    QUOTAS_8MODEL,
    WorkloadBinding,
    bind_biased,
    bind_closed_loop,
    bind_continuous,
    bind_load,
    bind_trace,
    estimated_solo_us,
    multi_app_mix,
    mutual_pairs,
    symmetric_pair,
    training_pair,
)
from .traces import azure_trace, mean_interarrival, twitter_trace

__all__ = [
    "ArrivalProcess",
    "azure_trace",
    "bind_biased",
    "bind_closed_loop",
    "bind_continuous",
    "bind_load",
    "bind_trace",
    "ClosedLoop",
    "drain_process",
    "estimated_solo_us",
    "LOAD_FACTORS",
    "mean_interarrival",
    "multi_app_mix",
    "mutual_pairs",
    "OneShot",
    "QUOTAS_2MODEL",
    "QUOTAS_4MODEL",
    "QUOTAS_8MODEL",
    "symmetric_pair",
    "TraceReplay",
    "training_pair",
    "twitter_trace",
    "WorkloadBinding",
]

"""Registered applications and their requests.

An :class:`Application` is what a client registers with the sharing
system: a deterministic kernel trace (one request's worth of kernels),
a device-memory requirement, and a provisioned GPU quota.  A
:class:`Request` is one invocation of the application at runtime.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..gpusim.kernel import KernelInstance, KernelSpec


class AppKind(enum.Enum):
    INFERENCE = "inference"
    TRAINING = "training"


@dataclass
class Application:
    """A stationary GPU application with a deterministic kernel trace.

    ``kernels`` is the full per-request launch sequence including memcpy
    kernels.  ``quota`` is the provisioned GPU fraction; it may be
    (re)assigned at deployment time.
    """

    name: str
    kind: AppKind
    kernels: List[KernelSpec]
    memory_mb: int
    quota: float = 1.0
    app_id: str = ""

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError(f"application {self.name!r} has no kernels")
        if not 0.0 < self.quota <= 1.0:
            raise ValueError(f"quota must be in (0, 1], got {self.quota}")
        if not self.app_id:
            self.app_id = self.name

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    @property
    def num_compute_kernels(self) -> int:
        return sum(1 for k in self.kernels if k.is_compute)

    @property
    def total_compute_us(self) -> float:
        """Sum of solo-run kernel durations (compute + memcpy)."""
        return sum(k.base_duration_us for k in self.kernels)

    @property
    def total_gap_us(self) -> float:
        """Sum of host dispatch gaps (the intra-request bubbles)."""
        return sum(k.dispatch_gap_us for k in self.kernels)

    @property
    def solo_span_us(self) -> float:
        """Analytic solo-run request latency: kernel time plus gaps."""
        return self.total_compute_us + self.total_gap_us

    def with_quota(self, quota: float, app_id: Optional[str] = None) -> "Application":
        """A copy of this application deployed under a different quota."""
        return Application(
            name=self.name,
            kind=self.kind,
            kernels=self.kernels,
            memory_mb=self.memory_mb,
            quota=quota,
            app_id=app_id or self.app_id,
        )

    def mean_kernel_duration(self) -> float:
        compute = [k.base_duration_us for k in self.kernels if k.is_compute]
        return sum(compute) / len(compute) if compute else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Application({self.name!r}, {self.kind.value}, "
            f"{self.num_kernels} kernels, quota={self.quota:.2f})"
        )


_request_counter = itertools.count()


def new_request_id() -> int:
    """The next id from the process-wide request counter."""
    return next(_request_counter)


@dataclass
class Request:
    """One runtime invocation of an application."""

    app: Application
    arrival_time: float
    request_id: int = field(default_factory=new_request_id)
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    # Index of the next kernel (in app.kernels) not yet scheduled.
    next_kernel: int = 0
    # Index of the last kernel known to have completed, exclusive.
    completed_kernels: int = 0

    def make_kernels(self, indices: Iterable[int]) -> List[KernelInstance]:
        """Instantiate this request's kernels at ``indices``, in order."""
        specs = self.app.kernels
        app_id = self.app.app_id
        request_id = self.request_id
        return [KernelInstance(specs[i], app_id, request_id, i) for i in indices]

    @property
    def total_kernels(self) -> int:
        return len(self.app.kernels)

    @property
    def all_scheduled(self) -> bool:
        return self.next_kernel >= self.total_kernels

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def latency(self) -> float:
        if self.finish_time is None:
            raise RuntimeError(f"request {self.request_id} not finished")
        return self.finish_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.done else f"{self.next_kernel}/{self.total_kernels}"
        return f"Request(#{self.request_id} {self.app.name} t={self.arrival_time:.0f} {state})"

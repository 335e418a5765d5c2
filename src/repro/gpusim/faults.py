"""Deterministic fault injection for the simulator and the harnesses.

Production GPU sharing is not a perfect world: kernels hit clock
throttling and ECC stalls, MPS contexts die with their server, and
offline profiles drift away from what the device actually delivers.
This module defines the *fault model* the repository uses to show that
BLESS degrades gracefully (see docs/robustness.md):

* **slowdown spikes** — a kernel attempt runs ``slowdown_factor`` times
  its profiled duration with probability ``slowdown_rate``;
* **transient kernel failures** — a kernel attempt fails at completion
  time with probability ``kernel_failure_rate`` and is retried in place
  with bounded exponential backoff; after ``max_retries`` failed
  retries the kernel fails permanently and the serving harness sheds
  its request;
* **context crashes** — at each time in ``context_crash_times`` one
  restricted (MPS) context is torn down, killing every kernel buffered
  in its queue; runtimes recover by re-registering the client and
  relaunching the killed work on a surviving context;
* **profile drift** — each (app, kernel) pair gains a persistent
  multiplicative error of up to ``profile_drift``, so offline profiles
  systematically mispredict and staleness detection has something real
  to detect;
* **request timeouts** — requests still unfinished ``request_timeout_us``
  after arrival are shed (per-request deadline policing).

Everything is a pure function of ``seed`` and the kernel's *stable
identity* — ``(app_id, seq, occurrence, attempt)``, where occurrence
counts how many instances of that (app, seq) slot the injector has seen.
Global uid/request counters are deliberately not used: they are not
stable across runs within one process, and same-seed replays must be
byte-identical.
"""

from __future__ import annotations

import dataclasses
import os
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .kernel import KernelInstance

_MASK64 = (1 << 64) - 1
# Domain separators so the three decision streams never correlate.
_DOMAIN_FAIL = 0x9E3779B97F4A7C15
_DOMAIN_SPIKE = 0xC2B2AE3D27D4EB4F
_DOMAIN_DRIFT = 0x165667B19E3779F9
_DOMAIN_CRASH = 0x27D4EB2F165667C5


def _mix(x: int) -> int:
    """splitmix64 finalizer: avalanche one 64-bit integer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


_HASH_START = 0x2545F4914F6CDD1D
_TWO_64 = float(1 << 64)


def _hash_u01(*parts: int) -> float:
    """Deterministic uniform in [0, 1) from a tuple of integers."""
    h = _HASH_START
    for part in parts:
        h = _mix(h ^ (part & _MASK64))
    return h / _TWO_64


def _app_token(app_id: str) -> int:
    # Stable across processes and PYTHONHASHSEED values (built-in hash
    # is neither).
    return zlib.crc32(app_id.encode("utf-8"))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable description of every fault to inject.

    An all-default plan is *inactive*: passing it around is equivalent
    to no fault injection at all.  Plans are frozen and picklable so
    experiment cells can ship them to worker processes.
    """

    seed: int = 0
    # Per-attempt probability that a kernel fails at completion time.
    kernel_failure_rate: float = 0.0
    # Per-attempt probability of a slowdown spike, and its magnitude.
    slowdown_rate: float = 0.0
    slowdown_factor: float = 3.0
    # Simulated times (us) at which one restricted context is torn down.
    context_crash_times: Tuple[float, ...] = ()
    # Persistent per-(app, kernel) profile error amplitude: each slot
    # runs a fixed factor in [1, 1 + profile_drift] vs its profile.
    profile_drift: float = 0.0
    # Transient-failure retry policy (bounded exponential backoff).
    max_retries: int = 3
    retry_backoff_us: float = 25.0
    retry_backoff_mult: float = 2.0
    # Requests unfinished this long after arrival are shed (None = off).
    request_timeout_us: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.kernel_failure_rate < 1.0:
            raise ValueError("kernel_failure_rate must be in [0, 1)")
        if not 0.0 <= self.slowdown_rate <= 1.0:
            raise ValueError("slowdown_rate must be in [0, 1]")
        if self.slowdown_factor < 1.0:
            raise ValueError("slowdown_factor must be >= 1")
        if self.profile_drift < 0.0:
            raise ValueError("profile_drift must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_us < 0.0:
            raise ValueError("retry_backoff_us must be >= 0")
        if self.retry_backoff_mult < 1.0:
            raise ValueError("retry_backoff_mult must be >= 1")
        if any(t < 0 for t in self.context_crash_times):
            raise ValueError("context_crash_times must be non-negative")
        if self.request_timeout_us is not None and self.request_timeout_us <= 0:
            raise ValueError("request_timeout_us must be positive")

    @property
    def active(self) -> bool:
        """Whether this plan injects anything at all."""
        return bool(
            self.kernel_failure_rate > 0.0
            or self.slowdown_rate > 0.0
            or self.profile_drift > 0.0
            or self.context_crash_times
            or self.request_timeout_us is not None
        )

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a CLI-style plan spec.

        Comma-separated ``key=value`` pairs, e.g.::

            failure=0.05,slowdown=0.1,crash=3000/9000,drift=0.3,
            timeout=5e6,retries=4,backoff=50,backoff_mult=2,seed=7

        ``crash`` takes slash-separated times in microseconds.
        """
        kwargs: Dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad fault-plan entry {item!r} (want key=value)")
            key, _, value = item.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key == "failure":
                kwargs["kernel_failure_rate"] = float(value)
            elif key == "slowdown":
                kwargs["slowdown_rate"] = float(value)
            elif key in ("slowdown_factor", "factor"):
                kwargs["slowdown_factor"] = float(value)
            elif key == "crash":
                kwargs["context_crash_times"] = tuple(
                    float(t) for t in value.split("/") if t
                )
            elif key == "drift":
                kwargs["profile_drift"] = float(value)
            elif key == "timeout":
                kwargs["request_timeout_us"] = float(value)
            elif key == "retries":
                kwargs["max_retries"] = int(value)
            elif key == "backoff":
                kwargs["retry_backoff_us"] = float(value)
            elif key == "backoff_mult":
                kwargs["retry_backoff_mult"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            else:
                raise ValueError(f"unknown fault-plan key {key!r}")
        return cls(**kwargs)

    def with_seed(self, seed: int) -> "FaultPlan":
        return dataclasses.replace(self, seed=seed)

    def describe(self) -> str:
        parts = []
        if self.kernel_failure_rate:
            parts.append(f"failure={self.kernel_failure_rate:g}")
        if self.slowdown_rate:
            parts.append(
                f"slowdown={self.slowdown_rate:g}x{self.slowdown_factor:g}"
            )
        if self.profile_drift:
            parts.append(f"drift={self.profile_drift:g}")
        if self.context_crash_times:
            times = "/".join(f"{t:g}" for t in self.context_crash_times)
            parts.append(f"crash@{times}us")
        if self.request_timeout_us is not None:
            parts.append(f"timeout={self.request_timeout_us:g}us")
        if not parts:
            return "inactive"
        parts.append(f"retries={self.max_retries}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


def resolve_fault_plan(
    spec: Optional[str] = None, seed: Optional[int] = None
) -> Optional[FaultPlan]:
    """Resolve a plan from an explicit spec and/or the environment.

    ``REPRO_FAULT_PLAN`` supplies a default spec for the whole process
    tree; ``REPRO_FAULT_SEED``
    overrides the plan's seed, which is how CI replays a fault run
    byte-identically.  Returns ``None`` when no spec is available.
    """
    if spec is None:
        spec = os.environ.get("REPRO_FAULT_PLAN", "").strip() or None
    if seed is None:
        env_seed = os.environ.get("REPRO_FAULT_SEED", "").strip()
        if env_seed:
            try:
                seed = int(env_seed)
            except ValueError:
                raise ValueError(
                    f"invalid REPRO_FAULT_SEED value {env_seed!r}; "
                    "expected an integer fault seed"
                ) from None
    if spec is None:
        return None
    plan = FaultPlan.from_spec(spec)
    if seed is not None:
        plan = plan.with_seed(seed)
    return plan


class FaultInjector:
    """Per-serve decision oracle for a :class:`FaultPlan`.

    One injector is created per ``serve()`` and handed to the engine.
    Every decision hashes the kernel's stable identity, so the injector
    has no mutable randomness: two runs with the same plan (and the
    same deterministic event order) make identical decisions.
    """

    def __init__(self, plan: FaultPlan, stats=None):
        self.plan = plan
        self.stats = stats
        self._seed = plan.seed & _MASK64
        # kernel uid -> (app_token, seq, occurrence); memoized so every
        # query about one instance sees the same identity.
        self._identity: Dict[int, Tuple[int, int, int]] = {}
        self._occurrences: Dict[Tuple[int, int], int] = {}
        self._drift_cache: Dict[Tuple[int, int], float] = {}
        self._app_tokens: Dict[str, int] = {}
        # (domain, app_token, seq) -> the splitmix state after hashing
        # (seed, domain, app_token, seq): a roll only mixes in the
        # occurrence and the attempt.
        self._slot_states: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    def _identity_of(self, kernel: KernelInstance) -> Tuple[int, int, int]:
        identity = self._identity.get(kernel.uid)
        if identity is None:
            app_id = kernel.app_id
            token = self._app_tokens.get(app_id)
            if token is None:
                token = self._app_tokens[app_id] = _app_token(app_id)
            slot = (token, kernel.seq)
            occurrence = self._occurrences.get(slot, 0)
            self._occurrences[slot] = occurrence + 1
            identity = (token, kernel.seq, occurrence)
            self._identity[kernel.uid] = identity
        return identity

    def _roll(
        self, domain: int, app: int, seq: int, occurrence: int, attempt: int
    ) -> float:
        """``_hash_u01(seed, domain, app, seq, occurrence, attempt)``,
        resuming from the memoised state of the ``(app, seq)`` slot."""
        key = (domain, app, seq)
        h = self._slot_states.get(key)
        if h is None:
            h = _HASH_START
            for part in (self._seed, domain, app, seq):
                h = _mix(h ^ (part & _MASK64))
            self._slot_states[key] = h
        h = _mix(h ^ (occurrence & _MASK64))
        return _mix(h ^ (attempt & _MASK64)) / _TWO_64

    # ------------------------------------------------------------------
    def work_multiplier(self, kernel: KernelInstance) -> float:
        """Duration multiplier for this attempt (drift x spike)."""
        plan = self.plan
        multiplier = 1.0
        app, seq, occurrence = self._identity_of(kernel)
        if plan.profile_drift > 0.0:
            slot = (app, seq)
            drift = self._drift_cache.get(slot)
            if drift is None:
                drift = 1.0 + plan.profile_drift * _hash_u01(
                    self._seed, _DOMAIN_DRIFT, app, seq
                )
                self._drift_cache[slot] = drift
            multiplier *= drift
        if plan.slowdown_rate > 0.0:
            roll = self._roll(_DOMAIN_SPIKE, app, seq, occurrence, kernel.attempts)
            if roll < plan.slowdown_rate:
                multiplier *= plan.slowdown_factor
                if self.stats is not None:
                    self.stats.slowdown_spikes += 1
        return multiplier

    def should_fail(self, kernel: KernelInstance) -> bool:
        """Whether this attempt of ``kernel`` fails at completion."""
        plan = self.plan
        if plan.kernel_failure_rate <= 0.0:
            return False
        app, seq, occurrence = self._identity_of(kernel)
        roll = self._roll(_DOMAIN_FAIL, app, seq, occurrence, kernel.attempts)
        return roll < plan.kernel_failure_rate

    @property
    def max_retries(self) -> int:
        return self.plan.max_retries

    def backoff_us(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        exponent = max(0, attempt - 1)
        return self.plan.retry_backoff_us * (
            self.plan.retry_backoff_mult**exponent
        )

    def pick_index(self, count: int, ordinal: int) -> int:
        """Deterministically pick a crash victim among ``count`` options."""
        if count <= 0:
            raise ValueError("pick_index needs at least one option")
        index = int(_hash_u01(self._seed, _DOMAIN_CRASH, ordinal) * count)
        return min(index, count - 1)

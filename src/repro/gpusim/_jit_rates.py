"""Numba-compiled rebalance kernel for ``engine_mode="jit"``.

The engine's rebalance miss path — max-min fair SM allocation, the
interference slowdown, and the SM-scaling rate — re-stated as loops
over flat numpy arrays so numba can compile them to native code.  The
arithmetic mirrors the engine's scalar rate kernel,
``SimEngine._compute_rates_vectorized`` (its inline water-fill, the
``HardwareScheduler.allocate_fair_indexed`` grouping it falls back to,
and its fused grant → slowdown → rate loop), **operation for
operation, in the same order**, so the compiled results are
bit-identical to the interpreted ones (the 5-way equivalence tests and
the rate-kernel property in ``tests/test_engine_fastpath.py`` enforce
this).

numba is an optional dependency (``pip install .[perf]``).  When it is
absent the decorator below degrades to an identity wrapper: the module
still imports, ``HAVE_NUMBA`` is False, and the engine silently falls
back to the interpreted batched path — but the *uncompiled* functions
remain callable, which is how the equivalence tests exercise this file
on numba-less environments.
"""

from __future__ import annotations

import numpy as np

from .hwsched import CAPACITY_EPS, SATISFIED_EPS

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the only path on bare installs
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        """Identity decorator standing in for ``numba.njit``."""
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


@njit(cache=True)
def _waterfill_arrays(demands, n, capacity, fill):
    """Max-min fair split of ``capacity`` over ``demands[:n]`` into
    ``fill[:n]`` — :func:`repro.gpusim.hwsched.waterfill` on arrays.

    The satisfied set of each round is decided against the fills as
    they stood at the round's start (updating ``fill[i]`` after its own
    check never feeds into a later index's check), and the capacity
    subtraction runs in ascending index order — both exactly as the
    list-based original, so every intermediate float matches.  The
    tolerances are ``hwsched``'s module constants, frozen into the
    compiled code at jit time.
    """
    active = np.ones(n, np.bool_)
    for i in range(n):
        fill[i] = 0.0
    count = n
    remaining = capacity
    while count > 0 and remaining > CAPACITY_EPS:
        share = remaining / count
        n_sat = 0
        for i in range(n):
            if active[i] and demands[i] - fill[i] <= share + SATISFIED_EPS:
                n_sat += 1
        if n_sat > 0:
            for i in range(n):
                if active[i] and demands[i] - fill[i] <= share + SATISFIED_EPS:
                    remaining -= demands[i] - fill[i]
                    fill[i] = demands[i]
                    active[i] = False
            count -= n_sat
        else:
            for i in range(n):
                if active[i]:
                    fill[i] += share
            remaining = 0.0
            count = 0


@njit(cache=True)
def rate_kernel(
    demand,
    mem,
    serial,
    base,
    limit,
    priority,
    cid,
    restricted,
    kappa_unrestricted,
    kappa_restricted,
    gamma,
    max_slowdown,
):
    """Allocation -> slowdown -> rate for one running set.

    Inputs are parallel arrays over the running compute kernels (spec
    fields, context limit/priority/id/restriction); the four trailing
    scalars are the :class:`InterferenceModel` parameters.  Returns
    ``(fractions, rates, busy)`` aligned with the input order.

    Stage order matches the interpreted pipeline: context grouping in
    first-appearance order, priority levels descending, the two-pass
    water-fill per level, then busy/intensity accumulation and the
    per-kernel slowdown + rate in allocation-pairs order.
    """
    n = demand.shape[0]
    fractions = np.zeros(n, np.float64)
    rates = np.zeros(n, np.float64)
    if n == 0:
        return fractions, rates, 0.0

    # Context slots in first-appearance order (the only identity the
    # allocation reads).
    ctx_of = np.empty(n, np.int64)
    ctx_cid = np.empty(n, np.int64)
    ctx_limit = np.empty(n, np.float64)
    ctx_priority = np.empty(n, np.int64)
    n_ctx = 0
    for i in range(n):
        slot = -1
        for j in range(n_ctx):
            if ctx_cid[j] == cid[i]:
                slot = j
                break
        if slot < 0:
            slot = n_ctx
            ctx_cid[slot] = cid[i]
            ctx_limit[slot] = limit[i]
            ctx_priority[slot] = priority[i]
            n_ctx += 1
        ctx_of[i] = slot

    # Distinct priority levels, descending (insertion sort: n_ctx is
    # a handful).
    levels = np.empty(n_ctx, np.int64)
    n_levels = 0
    for j in range(n_ctx):
        p = ctx_priority[j]
        seen = False
        for t in range(n_levels):
            if levels[t] == p:
                seen = True
                break
        if not seen:
            levels[n_levels] = p
            n_levels += 1
    for a in range(1, n_levels):
        v = levels[a]
        b = a - 1
        while b >= 0 and levels[b] < v:
            levels[b + 1] = levels[b]
            b -= 1
        levels[b + 1] = v

    order = np.empty(n, np.int64)  # allocation-pairs order -> kernel
    grants = np.empty(n, np.float64)
    per_kernel_want = np.zeros(n, np.float64)
    context_want = np.zeros(n_ctx, np.float64)
    scratch_demand = np.empty(n, np.float64)
    scratch_fill = np.empty(n, np.float64)
    scratch_member = np.empty(n, np.int64)

    capacity = 1.0
    n_pairs = 0
    for t in range(n_levels):
        level = levels[t]
        # Pass 1: split each context's limit among its kernels.
        for j in range(n_ctx):
            if ctx_priority[j] != level:
                continue
            n_members = 0
            for i in range(n):
                if ctx_of[i] == j:
                    scratch_member[n_members] = i
                    scratch_demand[n_members] = demand[i]
                    n_members += 1
            _waterfill_arrays(scratch_demand, n_members, ctx_limit[j], scratch_fill)
            total = 0.0
            for g in range(n_members):
                per_kernel_want[scratch_member[g]] = scratch_fill[g]
                total = total + scratch_fill[g]
            context_want[j] = total
        # Pass 2: water-fill this level's contexts over what's left.
        n_level_ctx = 0
        for j in range(n_ctx):
            if ctx_priority[j] == level:
                scratch_demand[n_level_ctx] = context_want[j]
                n_level_ctx += 1
        _waterfill_arrays(scratch_demand, n_level_ctx, capacity, scratch_fill)
        pos = 0
        for j in range(n_ctx):
            if ctx_priority[j] != level:
                continue
            ctx_fill = scratch_fill[pos]
            pos += 1
            want = context_want[j]
            scale = ctx_fill / want if want > 0 else 0.0
            for i in range(n):
                if ctx_of[i] == j:
                    grant = per_kernel_want[i] * scale
                    capacity -= grant
                    order[n_pairs] = i
                    grants[n_pairs] = grant
                    n_pairs += 1
        if capacity < 0.0:
            capacity = 0.0

    # Active subset (grant > 0), compacted in place in pairs order:
    # busy, total intensity, and the unrestricted count accumulate in
    # exactly the interpreted reduction order.
    busy = 0.0
    total_intensity = 0.0
    num_unrestricted = 0
    n_active = 0
    for p in range(n_pairs):
        grant = grants[p]
        if grant > 0.0:
            i = order[p]
            busy += grant
            total_intensity = total_intensity + mem[i]
            if not restricted[i]:
                num_unrestricted += 1
            order[n_active] = i
            grants[n_active] = grant
            n_active += 1

    for p in range(n_active):
        i = order[p]
        grant = grants[p]
        m = mem[i]
        pressure = total_intensity - m
        if pressure < 0.0:
            pressure = 0.0
        if pressure > 1.0:
            pressure = 1.0
        if (not restricted[i]) and num_unrestricted >= 2:
            kappa = kappa_unrestricted
        else:
            kappa = kappa_restricted
        m_clamped = m if m < 1.0 else 1.0
        slowdown = 1.0 + kappa * pressure**gamma * m_clamped
        if slowdown > max_slowdown:
            slowdown = max_slowdown
        d = demand[i]
        usable = grant if grant < d else d
        duration = base[i] * (serial[i] + (1.0 - serial[i]) * (d / usable))
        fractions[i] = grant
        rates[i] = base[i] / duration / slowdown
    if busy > 1.0:
        busy = 1.0
    return fractions, rates, busy

"""The exhaustive batch placement, kept as ``solve_placement``'s oracle.

:func:`exhaustive_placement` tries every assignment of a batch to the
slots (``slots ** apps`` of them), keeps the feasible ones — each app
checked against the group built so far, in batch order, as the solver
checks it — and returns the cheapest under the cost model.  It is only
tractable within ``MAX_SLOTS`` / ``MAX_APPS``; tests compare the
production solver's cost to it on batches that size.
"""

import itertools

from repro.cluster.interference import COST_EPS

MAX_SLOTS = 4
MAX_APPS = 8


def exhaustive_placement(apps, num_slots, cost_model, feasible):
    """``(cost, groups)`` of the cheapest feasible assignment, or ``None``.

    The first assignment in ``itertools.product`` order wins ties.
    """
    if num_slots > MAX_SLOTS or len(apps) > MAX_APPS:
        raise ValueError(
            f"{len(apps)} apps on {num_slots} slots is too large to enumerate"
        )
    best = None
    for choice in itertools.product(range(num_slots), repeat=len(apps)):
        groups = [[] for _ in range(num_slots)]
        for app, slot in zip(apps, choice):
            if not feasible(groups[slot], app):
                break
            groups[slot].append(app)
        else:
            cost = cost_model.assignment_cost(groups)
            if best is None or cost < best[0] - COST_EPS:
                best = (cost, groups)
    return best

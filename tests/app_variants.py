"""A same-named copy of an application with another kernel trace.

Profiles, squad signatures and the cluster's interference memo must key
on an app's trace, not its name.  :func:`other_trace` gives the copy
that checks it: the same name, kernels and quota, with fewer host
dispatch gaps.
"""

from dataclasses import replace

from repro.apps.application import Application


def other_trace(app: Application, stride: int = 10) -> Application:
    """``app`` with the dispatch gap of every kernel whose index is not
    a multiple of ``stride`` set to zero (``stride=1`` keeps them all)."""
    kernels = [
        kernel if index % stride == 0 else replace(kernel, dispatch_gap_us=0.0)
        for index, kernel in enumerate(app.kernels)
    ]
    return Application(
        name=app.name,
        kind=app.kind,
        kernels=kernels,
        memory_mb=app.memory_mb,
        quota=app.quota,
        app_id=app.app_id,
    )

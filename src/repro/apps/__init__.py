"""Application substrate: model traces, applications, requests."""

from .application import Application, AppKind, Request
from .models import (
    MODEL_NAMES,
    inference_app,
    microbenchmark_kernel,
    table1_expectation,
    training_app,
)

__all__ = [
    "Application",
    "AppKind",
    "inference_app",
    "microbenchmark_kernel",
    "MODEL_NAMES",
    "Request",
    "table1_expectation",
    "training_app",
]

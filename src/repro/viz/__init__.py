"""Terminal visualisation: execution timelines and figure-style charts."""

from .charts import bar_chart, reduction_table, scatter
from .timeline import TimelineView, bucketise, render_timeline

__all__ = [
    "bar_chart",
    "bucketise",
    "reduction_table",
    "render_timeline",
    "scatter",
    "TimelineView",
]

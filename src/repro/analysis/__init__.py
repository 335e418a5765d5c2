"""Offline analysis: the bubble taxonomy of a recorded run."""

from .bubbles import BubbleTaxonomy, analyze_run, compare_taxonomies

__all__ = [
    "analyze_run",
    "BubbleTaxonomy",
    "compare_taxonomies",
]

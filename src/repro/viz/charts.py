"""ASCII chart rendering for experiment outputs.

Terminal-friendly renderers for the figure data the experiment modules
produce: horizontal bar charts (Fig. 13/14/17-style comparisons), the
Fig. 12 latency scatter, and line sweeps (Fig. 19).  No plotting
dependency — everything prints.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple


def bar_chart(
    values: Mapping[str, float],
    title: str = "",
    width: int = 50,
    unit: str = "ms",
    highlight: Optional[str] = None,
) -> str:
    """Horizontal bar chart; the longest bar spans ``width`` chars."""
    if not values:
        raise ValueError("no values to chart")
    peak = max(values.values())
    if peak <= 0:
        raise ValueError("values must contain a positive maximum")
    label_width = max(len(k) for k in values)
    lines = [title] if title else []
    for name, value in values.items():
        bar = "█" * max(1, round(width * value / peak))
        marker = " ◄" if name == highlight else ""
        lines.append(f"{name.rjust(label_width)} {bar} {value:.2f}{unit}{marker}")
    return "\n".join(lines)


def scatter(
    points: Sequence[Tuple[float, float, str]],
    width: int = 56,
    height: int = 18,
    x_label: str = "app1 latency (ms)",
    y_label: str = "app2 latency (ms)",
    title: str = "",
) -> str:
    """A Fig. 12-style scatter: ``(x, y, glyph)`` points on a grid."""
    if not points:
        raise ValueError("no points to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_max = max(xs) * 1.1
    y_max = max(ys) * 1.1
    grid = [[" "] * width for _ in range(height)]
    for x, y, glyph in points:
        col = min(width - 1, int(x / x_max * (width - 1)))
        row = min(height - 1, int(y / y_max * (height - 1)))
        grid[height - 1 - row][col] = glyph[0]
    lines = [title] if title else []
    lines.append(f"{y_max:8.1f} ┤")
    for row in grid:
        lines.append("         │" + "".join(row))
    lines.append("       0 └" + "─" * width)
    lines.append(f"          0{x_label.rjust(width - 1)} (max {x_max:.1f})")
    lines.append(f"          y: {y_label}")
    return "\n".join(lines)


def reduction_table(
    baseline_ms: Mapping[str, float],
    target: str = "BLESS",
) -> str:
    """Latency reductions of ``target`` vs every other system."""
    if target not in baseline_ms:
        raise KeyError(f"{target!r} missing from results")
    target_value = baseline_ms[target]
    lines = [f"{target} latency reduction:"]
    for name, value in baseline_ms.items():
        if name == target:
            continue
        reduction = 1.0 - target_value / value if value > 0 else float("nan")
        lines.append(f"  vs {name:10s} {reduction:+7.1%}")
    return "\n".join(lines)

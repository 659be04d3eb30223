"""Result aggregation and paper-style table formatting."""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.vtime import cycles_to_seconds


@dataclass
class SlowdownReport:
    """Relative run time of one MVEE configuration vs. native."""

    benchmark: str
    agent: str
    variants: int
    native_cycles: float
    mvee_cycles: float

    @property
    def slowdown(self) -> float:
        """MVEE time over native time (1.0 = no overhead)."""
        if self.native_cycles <= 0:
            return float("inf")
        return self.mvee_cycles / self.native_cycles

    @property
    def native_seconds(self) -> float:
        return cycles_to_seconds(self.native_cycles)


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (the conventional aggregate for slowdown ratios).

    Raises :class:`ValueError` on non-positive inputs: a zero or negative
    slowdown is always an upstream bug (a broken native baseline, an
    uninitialized cycle count), and silently folding it into the product
    would produce a bogus — possibly complex-valued — aggregate.
    """
    if not values:
        return float("nan")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError(
                f"geometric mean requires positive values; got {value!r}")
        product *= value
    return product ** (1.0 / len(values))


def arithmetic_mean(values: list[float]) -> float:
    if not values:
        return float("nan")
    return sum(values) / len(values)


def format_table(headers: list[str], rows: list[list[str]],
                 title: str | None = None) -> str:
    """Render a simple aligned text table (paper-style output)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_bars(series: dict[str, float], width: int = 50,
                unit: str = "x", ceiling: float | None = None) -> str:
    """Render a horizontal ASCII bar chart (the Figure 5 look).

    ``series`` maps labels to values; bars are scaled to the maximum (or
    ``ceiling``).  Values beyond the ceiling are clipped and marked.
    """
    if not series:
        return "(no data)"
    top = ceiling if ceiling is not None else max(series.values())
    top = max(top, 1e-9)
    label_width = max(len(label) for label in series)
    lines = []
    for label, value in series.items():
        filled = int(round(min(value, top) / top * width))
        bar = "#" * filled
        clipped = "+" if value > top else ""
        lines.append(f"{label.ljust(label_width)} |{bar.ljust(width)}"
                     f"{clipped} {value:.2f}{unit}")
    return "\n".join(lines)


def aggregate_slowdowns(reports: list[SlowdownReport],
                        mean: str = "arithmetic") -> dict[tuple, float]:
    """Aggregate slowdowns per (agent, variants) like the paper's Table 1.

    The paper reports "aggregated average slowdowns"; we default to the
    arithmetic mean to match, and expose the geometric mean for the
    methodology-minded (EXPERIMENTS.md reports both).
    """
    mean_fn = arithmetic_mean if mean == "arithmetic" else geometric_mean
    grouped: dict[tuple, list[float]] = {}
    for report in reports:
        grouped.setdefault((report.agent, report.variants),
                           []).append(report.slowdown)
    return {key: mean_fn(values) for key, values in grouped.items()}

"""Experiment harness: metrics, replication sweeps, CSV results, SVG plots.

A sweep varies one scenario knob (sample size n, optimal-assortment mass p,
or feature dimension d), runs both solvers on freshly generated instances
for each replication, and records regret against the known truth together
with the fraction of optimal items recovered.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .datagen import Instance, InstanceConfig, SamplingDesign, generate_dataset, generate_instance
from .lp import cardinality_constraints
from .model import as_assortment, expected_revenue
from .rng import derive_rng, derive_seed
from .solver import PastaOptions, baseline_solve, pasta_solve

__all__ = [
    "SweepConfig",
    "ResultRow",
    "regret",
    "assortment_accuracy",
    "run_sweep",
    "write_results_csv",
    "read_results_csv",
    "write_metric_svg",
    "summarize",
]

log = logging.getLogger(__name__)

RESULT_HEADER = ["sweep_var", "sweep_value", "rep", "method", "regret", "accuracy", "wall_time_ms"]


def regret(instance: Instance, s_hat: Iterable[int]) -> float:
    """True-value gap of s_hat against the instance optimum, floored at 0.

    Negative raw gaps beyond float noise mean the stored optimum is not
    optimal, which is an instance bug rather than a measurement.
    """
    raw = instance.v_star - expected_revenue(instance.catalog, s_hat, instance.theta_star)
    if raw < -1e-9:
        raise ValueError(f"negative regret {raw}; instance ground truth is inconsistent")
    return max(raw, 0.0)


def assortment_accuracy(s_hat: Iterable[int], s_star: Iterable[int]) -> float:
    """Fraction of the optimal assortment's items recovered by s_hat."""
    s_hat, s_star = as_assortment(s_hat), as_assortment(s_star)
    if not s_star:
        raise ValueError("s_star must be nonempty")
    return len(set(s_hat) & set(s_star)) / len(s_star)


@dataclass(frozen=True)
class ResultRow:
    sweep_var: str
    sweep_value: float
    rep: int
    method: str
    regret: float
    accuracy: float
    wall_time_ms: float


@dataclass(frozen=True)
class SweepConfig:
    """One sweep study: a base scenario plus the variable, its values, and
    the replication count. Instances take InstanceConfig's default utility
    threshold tau and revenue range. Failure of a replication produces NaN
    marker rows instead of aborting the sweep."""

    sweep_variable: str
    values: tuple
    master_seed: int
    n_items: int = 40
    k: int = 8
    dim: int = 16
    n: int = 150
    p: float = 0.9
    theta_star_mode: str = "unit-sphere"
    replications: int = 50
    pasta: PastaOptions = field(default_factory=PastaOptions)

    def __post_init__(self):
        if self.sweep_variable not in ("n", "p", "d"):
            raise ValueError(f"unknown sweep variable {self.sweep_variable!r}")
        if not self.values:
            raise ValueError("values must be nonempty")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        object.__setattr__(self, "values", tuple(self.values))
        for v in self.values:
            if self.sweep_variable == "p" and not 0 < v < 1:
                raise ValueError(f"p value {v} outside (0, 1)")
            if self.sweep_variable in ("n", "d") and (v != int(v) or v < 1):
                raise ValueError(f"{self.sweep_variable} value {v} must be a positive integer")

    def scenario(self, value) -> tuple[InstanceConfig, float, int]:
        """Instance config template, design mass, and sample size at a sweep value."""
        n, p, dim = self.n, self.p, self.dim
        if self.sweep_variable == "n":
            n = int(value)
        elif self.sweep_variable == "p":
            p = float(value)
        else:
            dim = int(value)
        cfg = InstanceConfig(
            n_items=self.n_items,
            k=self.k,
            dim=dim,
            seed=0,
            theta_star_mode=self.theta_star_mode,
        )
        return cfg, p, n


def _run_replication(cfg: SweepConfig, vi: int, value, rep: int) -> list[ResultRow]:
    template, p, n = cfg.scenario(value)
    inst_cfg = replace(template, seed=derive_seed(cfg.master_seed, rep, f"instance-v{vi}"))
    instance = generate_instance(inst_cfg)
    design = SamplingDesign(p=p, n_items=cfg.n_items, k=cfg.k)
    dataset = generate_dataset(
        instance, design, n, derive_rng(cfg.master_seed, rep, f"dataset-v{vi}")
    )
    cons = cardinality_constraints(cfg.n_items, cfg.k)
    catalog = instance.catalog
    solvers = (
        ("pasta", lambda: pasta_solve(dataset, catalog, cons, cfg.pasta)[0]),
        ("baseline", lambda: baseline_solve(dataset, catalog, cons, space=cfg.pasta.space)),
    )
    rows = []
    for method, solve in solvers:
        t0 = time.perf_counter()
        s_hat = solve()
        ms = (time.perf_counter() - t0) * 1e3
        rows.append(
            ResultRow(
                cfg.sweep_variable,
                float(value),
                rep,
                method,
                regret(instance, s_hat),
                assortment_accuracy(s_hat, instance.s_star),
                ms,
            )
        )
    return rows


def run_sweep(cfg: SweepConfig) -> list[ResultRow]:
    """Run every (sweep value, replication) cell and return the result rows.

    Rows come back ordered by (value position, replication, method name);
    a replication that raises is kept as a NaN marker row pair.
    """
    rows: list[ResultRow] = []
    for vi, value in enumerate(cfg.values):
        for rep in range(cfg.replications):
            try:
                pair = _run_replication(cfg, vi, value, rep)
            except Exception:
                log.exception("replication failed: value=%s rep=%d", value, rep)
                pair = [
                    ResultRow(cfg.sweep_variable, float(value), rep, m, math.nan, math.nan, math.nan)
                    for m in ("pasta", "baseline")
                ]
            rows.extend(sorted(pair, key=lambda r: r.method))
    return rows


def write_results_csv(rows: Sequence[ResultRow], path: str | Path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(RESULT_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.sweep_var,
                    f"{r.sweep_value:.17g}",
                    r.rep,
                    r.method,
                    f"{r.regret:.17g}",
                    f"{r.accuracy:.17g}",
                    f"{r.wall_time_ms:.17g}",
                ]
            )


def read_results_csv(path: str | Path) -> list[ResultRow]:
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, [])  # a zero-byte file has no header row
        if header != RESULT_HEADER:
            found = ",".join(header) or "an empty file"
            raise ValueError(f"{path}: expected the header {','.join(RESULT_HEADER)}, got {found}")
        for rec in reader:
            if len(rec) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(rec)} fields, expected {len(header)}"
                )
            try:
                row = ResultRow(
                    sweep_var=rec[0],
                    sweep_value=float(rec[1]),
                    rep=int(rec[2]),
                    method=rec[3],
                    regret=float(rec[4]),
                    accuracy=float(rec[5]),
                    wall_time_ms=float(rec[6]),
                )
            except ValueError as exc:
                where = f"{path}: line {reader.line_num}"
                raise ValueError(f"{where} has an unparsable field: {exc}") from None
            rows.append(row)
    return rows


def summarize(rows: Sequence[ResultRow], metric: str) -> dict[str, list[tuple[float, float, float]]]:
    """Per method: sorted (sweep value, mean, standard error) triples.

    NaN marker rows are excluded from the aggregates.
    """
    if metric not in ("regret", "accuracy"):
        raise ValueError(f"unknown metric {metric!r}")
    out: dict[str, list[tuple[float, float, float]]] = {}
    methods = sorted({r.method for r in rows})
    values = sorted({r.sweep_value for r in rows})
    for method in methods:
        series = []
        for value in values:
            xs = [
                getattr(r, metric)
                for r in rows
                if r.method == method and r.sweep_value == value and not math.isnan(getattr(r, metric))
            ]
            if not xs:
                continue
            mean = float(np.mean(xs))
            se = float(np.std(xs, ddof=1) / math.sqrt(len(xs))) if len(xs) > 1 else 0.0
            series.append((value, mean, se))
        out[method] = series
    return out


_SVG_COLORS = {"pasta": "#1f6fb4", "baseline": "#d95f02"}
_SVG_W, _SVG_H = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 30, 55


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def write_metric_svg(rows: Sequence[ResultRow], metric: str, path: str | Path) -> None:
    """Render mean +/- one standard error per method as a static SVG chart.

    Output bytes are a pure function of the rows and metric: coordinates are
    formatted with fixed precision and no timestamps or ids are embedded.
    """
    series = summarize(rows, metric)
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        raise ValueError("no finite data points to plot")
    xs = [p[0] for p in points]
    los = [p[1] - p[2] for p in points]
    his = [p[1] + p[2] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(los)), max(his)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_hi += 0.05 * (y_hi - y_lo)
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    sweep_var = rows[0].sweep_var if rows else "value"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" x2="{_MARGIN_L + plot_w}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{_MARGIN_T + plot_h}" x2="{px(t):.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{_MARGIN_T + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py(t):.2f}" x2="{_MARGIN_L}" '
            f'y2="{py(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py(t):.2f}" font-size="12" '
            f'text-anchor="end" dominant-baseline="middle">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_SVG_H - 12}" font-size="14" '
        f'text-anchor="middle">{sweep_var}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.2f})">{metric}</text>'
    )
    for mi, (method, pts) in enumerate(sorted(series.items())):
        color = _SVG_COLORS.get(method, "#444444")
        coords = " ".join(f"{px(v):.2f},{py(mean):.2f}" for v, mean, _ in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for v, mean, se in pts:
            x = px(v)
            parts.append(
                f'<line x1="{x:.2f}" y1="{py(mean - se):.2f}" x2="{x:.2f}" '
                f'y2="{py(mean + se):.2f}" stroke="{color}"/>'
            )
            for y in (mean - se, mean + se):
                parts.append(
                    f'<line x1="{x - 4:.2f}" y1="{py(y):.2f}" x2="{x + 4:.2f}" '
                    f'y2="{py(y):.2f}" stroke="{color}"/>'
                )
            parts.append(f'<circle cx="{x:.2f}" cy="{py(mean):.2f}" r="3" fill="{color}"/>')
        ly = _MARGIN_T + 16 + 18 * mi
        lx = _MARGIN_L + plot_w - 130
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-size="13">{method}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")

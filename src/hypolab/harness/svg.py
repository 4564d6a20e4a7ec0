"""Self-contained SVG polyline charts; no external plotting dependency."""
from __future__ import annotations

import math
import sys

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    if math.isinf(span):  # ends of both signs near the largest double
        return [lo, hi]
    step = 10 ** math.floor(math.log10(span / max(n, 1)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= min(hi + 1e-12 * span, sys.float_info.max):
        out.append(round(v, 12))
        v += step
    return out or [lo]


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """A one-point axis [lo, lo] widened by 1.0, or by |lo| where 1.0 would
    round away, downwards where upwards would pass the largest double."""
    if hi != lo:
        return lo, hi
    step = max(1.0, abs(lo))
    return (lo, lo + step) if lo + step <= sys.float_info.max else (lo - step, lo)


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def line_chart(
    path: str,
    x_values,
    series,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> None:
    """Write a polyline chart: series is a list of (label, y-array)."""
    xs = [float(v) for v in x_values]
    data = []
    for label, ys in series:
        data.append((label, [float(v) for v in ys]))

    def tx(v):
        return math.log10(v) if log_x else v

    def ty(v):
        return math.log10(v) if log_y else v

    xt = [tx(v) for v in xs]
    yt = [ty(v) for label, ys in data for v in ys if math.isfinite(ty(v))] or [0.0]
    x_lo, x_hi = _widen(min(xt), max(xt))
    y_lo, y_hi = _widen(min(yt), max(yt))
    pad = 0.1 * (y_hi / 2 - y_lo / 2)  # 5% of the span, which may pass the largest double
    y_lo, y_hi = max(y_lo - pad, -sys.float_info.max), min(y_hi + pad, sys.float_info.max)

    # halves, whose differences cannot overflow: a power of two rounds alike
    def px(v):
        return _ML + (v / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v / 2 - y_lo / 2) / (y_hi / 2 - y_lo / 2) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2}" y="22" text-anchor="middle" font-size="14">{_escape(title)}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        label = _fmt(10**t) if log_x else _fmt(t)
        parts.append(f'<line x1="{x}" y1="{_H-_MB}" x2="{x}" y2="{_H-_MB+5}" stroke="black"/>')
        parts.append(f'<text x="{x}" y="{_H-_MB+18}" text-anchor="middle">{label}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        label = _fmt(10**t) if log_y else _fmt(t)
        parts.append(f'<line x1="{_ML-5}" y1="{y}" x2="{_ML}" y2="{y}" stroke="black"/>')
        parts.append(f'<text x="{_ML-8}" y="{y+4}" text-anchor="end">{label}</text>')
    parts.append(
        f'<text x="{(_ML+_W-_MR)/2}" y="{_H-12}" text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT+_H-_MB)/2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT+_H-_MB)/2})">{_escape(y_label)}</text>'
    )
    for i, (label, ys) in enumerate(data):
        color = _PALETTE[i % len(_PALETTE)]
        pts = []
        for xv, yv in zip(xt, ys):
            yv = ty(yv)
            if math.isfinite(yv):
                pts.append(f"{px(xv):.2f},{py(yv):.2f}")
        if pts:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(pts)}"/>'
            )
        if label:
            y_legend = _MT + 14 * (i + 1)
            parts.append(
                f'<line x1="{_W-_MR-110}" y1="{y_legend-4}" x2="{_W-_MR-90}" '
                f'y2="{y_legend-4}" stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(f'<text x="{_W-_MR-85}" y="{y_legend}">{_escape(label)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )

"""Hand-rolled SVG export: trajectory overlays and attention heat-grids."""

from __future__ import annotations

import numpy as np

from .data import Scene, atomic_write


def _polyline(points, color):
    pts = " ".join(f"{x:.4f},{y:.4f}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="0.15" />'


def render_scene_svg(scene: Scene, predictions: np.ndarray, t_obs: int) -> str:
    """Observed tracks (solid black), ground-truth futures (green), predicted
    samples (red), and one goal marker per predicted endpoint, for the
    (N, k, T_fut, 2) ``predictions`` in track order."""
    positions = scene.positions()
    pad = 2.0
    lo = min(positions[..., 0].min(), predictions[..., 0].min()) - pad
    hi = max(positions[..., 0].max(), predictions[..., 0].max()) + pad
    lo_y = min(positions[..., 1].min(), predictions[..., 1].min()) - pad
    hi_y = max(positions[..., 1].max(), predictions[..., 1].max()) + pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{lo:.2f} {lo_y:.2f} '
        f'{hi - lo:.2f} {hi_y - lo_y:.2f}" width="640" height="640">'
    ]
    for track, samples in zip(scene.tracks, predictions):
        obs = track.positions[:t_obs]
        fut = track.positions[t_obs - 1 :]
        parts.append(_polyline(obs, "black"))
        parts.append(_polyline(fut, "green"))
        for sample in samples:
            parts.append(_polyline(np.concatenate([fut[:1], sample]), "red"))
        for sample in samples:
            gx, gy = sample[-1]
            parts.append(
                f'<circle cx="{gx:.4f}" cy="{gy:.4f}" r="0.35" fill="none" '
                f'stroke="red" stroke-width="0.1" />'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def render_trace_svg(matrix: np.ndarray, agent_ids, step: int) -> str:
    """N x N grid, one cell per (attender row, attended column), linear
    grayscale with brightness proportional to the weight; rows follow
    ascending agent_id."""
    order = np.argsort(np.asarray(agent_ids))
    m = np.asarray(matrix)[order][:, order]
    ids = [agent_ids[i] for i in order]
    n = len(ids)
    cell = 40
    margin = 30
    size = margin + n * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 18}">',
        f'<text x="{margin}" y="12" font-size="12">social attention, step {step}</text>',
    ]
    for r in range(n):
        for c in range(n):
            level = int(np.rint(255 * float(m[r, c])))
            level = min(max(level, 0), 255)
            x = margin + c * cell
            y = 18 + margin + r * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({level},{level},{level})" stroke="gray" stroke-width="1" '
                f'data-weight="{float(m[r, c])!r}" />'
            )
    for r, aid in enumerate(ids):
        parts.append(
            f'<text x="{margin - 18}" y="{18 + margin + r * cell + cell // 2}" '
            f'font-size="11">{aid}</text>'
        )
        parts.append(
            f'<text x="{margin + r * cell + cell // 2}" y="{18 + margin - 8}" '
            f'font-size="11">{aid}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path, text: str):
    atomic_write(path, text + "\n")

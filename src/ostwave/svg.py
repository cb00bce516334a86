"""Minimal static SVG rendering of stability diagrams.

Deliberately framework-free: the file is assembled from rect/polyline/
text elements so tests can parse the geometry back out of the XML rather
than comparing bytes.  Cells are filled by label, the two zero-locus
curves are drawn as chained polylines, and the axes carry plain numeric
ticks.
"""

from __future__ import annotations

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 20, 50

FILL = {"S": "#9ecae1", "U": "#fc9272", "degenerate": "#bdbdbd"}
CURVE_COLOR = {"f1": "#54278f", "f2": "#006d2c"}


def _chains(points, max_dk, max_dt):
    """Split curve samples into polyline chains of nearby points."""
    pts = sorted(points, key=lambda p: (p[1], p[0]))
    chains = []
    for k, t in pts:
        placed = False
        for chain in chains:
            pk, pt_ = chain[-1]
            if abs(t - pt_) <= max_dt and abs(k - pk) <= max_dk:
                chain.append((k, t))
                placed = True
                break
        if not placed:
            chains.append([(k, t)])
    return chains


def render_diagram(diag) -> str:
    """Serialize a StabilityDiagram to an SVG document string."""
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(k):
        return MARGIN_L + (k / diag.k_max) * plot_w

    def py(t):
        return MARGIN_T + (1.0 - t / diag.t_max) * plot_h

    cell_w = plot_w / diag.nk
    cell_h = plot_h / diag.nt

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        '<g id="cells">',
    ]
    # x depends on the column alone, y on the row and the size on neither: each is formatted once
    xs = [f"{MARGIN_L + i * cell_w:.2f}" for i in range(diag.nk)]
    size = f'width="{cell_w:.2f}" height="{cell_h:.2f}"'
    for j in range(diag.nt):
        y = f"{MARGIN_T + (diag.nt - 1 - j) * cell_h:.2f}"
        for x, label in zip(xs, diag.labels[j].tolist()):
            parts.append(f'<rect x="{x}" y="{y}" {size} fill="{FILL[label]}"/>')
    parts.append("</g>")

    parts.append('<g id="curves" fill="none" stroke-width="2">')
    dk = 3.0 * diag.k_max / diag.nk
    dt = 1.5 * diag.t_max / diag.nt
    for name, pts in (("f1", diag.f1_curve), ("f2", diag.f2_curve)):
        for chain in _chains(pts, dk, dt):
            if len(chain) < 2:
                continue
            coords = " ".join(f"{px(k):.2f},{py(t):.2f}" for k, t in chain)
            parts.append(
                f'<polyline class="{name}" stroke="{CURVE_COLOR[name]}" points="{coords}"/>'
            )
    parts.append("</g>")

    parts.append('<g id="axes" stroke="#000000" stroke-width="1">')
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{MARGIN_T}"/>')
    parts.append("</g>")
    parts.append('<g id="ticks" font-size="12" fill="#000000">')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        kv = frac * diag.k_max
        tv = frac * diag.t_max
        parts.append(
            f'<text x="{px(kv):.2f}" y="{y0 + 18:.2f}" text-anchor="middle">{kv:g}</text>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{py(tv) + 4:.2f}" text-anchor="end">{tv:g}</text>'
        )
    # XML text escape, "&" first; xml.sax.saxutils would import urllib and http
    title = f"{diag.family}, alpha={diag.alpha:g}"
    title = title.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{y0 + 38:.2f}" text-anchor="middle">k</text>'
    )
    parts.append(
        f'<text x="{x0 - 45:.2f}" y="{MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 {x0 - 45:.2f} {MARGIN_T + plot_h / 2:.2f})">T</text>'
    )
    parts.append(f'<text x="{x0 + plot_w / 2:.2f}" y="{MARGIN_T - 6:.2f}" '
                 f'text-anchor="middle">{title}</text>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(diag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_diagram(diag))

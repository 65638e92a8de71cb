"""The per-cell SVG writer that ``cli._raster_svg`` replaced, kept as an
oracle, and a parser that reads which fill an SVG paints at each cell.

``cli._raster_svg`` draws one rect per run of equal classes up a column, so
its bytes differ from the per-cell writer's; the two must paint the same:
the centre of every per-cell rect lies in exactly one rect of the run-length
SVG in the same column, and that rect has the same fill.  The parser reads
the printed decimals as exact ``Fraction``s, so no float rounding enters
the comparison.
"""

import re
from fractions import Fraction
from itertools import groupby

import charp as ch

RECT = re.compile(r'<rect x="([\d.-]+)" y="([\d.-]+)" width="([\d.-]+)" '
                  r'height="([\d.-]+)" fill="#([0-9a-f]{6})"/>$')


def per_cell_svg(ras, overlay=False, size=600):
    """The SVG writer that ``cli._raster_svg`` replaced, kept as its oracle:
    one f-string per cell, zipping the product of the x and y attributes with
    ``cells``, and the whole document joined as one string."""
    from itertools import product as iproduct
    side = ras.side
    step = size / (side + 1)
    xs = [f'<rect x="{i * step:.2f}" y="' for i in range(side + 1)]
    ys = [f'{size - (j + 1) * step:.2f}" width="{step:.2f}" '
          f'height="{step:.2f}" fill="#' for j in range(side + 1)]
    ends = {h: f'{h[:6]}"/>' for h in ras.ideals}
    body = [f'{x}{y}{ends[h]}'
            for (x, y), h in zip(iproduct(xs, ys), ras.cells)]
    if overlay:
        scale = size / float(ras.T)
        pts = " ".join(f"{float(a) * scale:.2f},{size - float(b) * scale:.2f}"
                       for a, b in ch.three_lines_staircase(ras.p, ras.k))
        body.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                    f'stroke-width="2"/>')
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def rects(text):
    """The rects of an SVG in document order, each (x, y, width, height,
    fill) with the numbers as exact Fractions of their printed decimals, and
    the list of its other lines."""
    number = {}  # printed decimal -> Fraction; a raster repeats few of them

    def exact(s):
        if s not in number:
            number[s] = Fraction(s)
        return number[s]

    found, other = [], []
    for line in text.splitlines():
        m = RECT.match(line)
        if m:
            found.append((*map(exact, m.groups()[:4]), m.group(5)))
        else:
            other.append(line)
    return found, other


def cell_fills(text, reference):
    """The fill that the SVG ``text`` paints at each cell, in the order of
    the rects of ``reference``, a per-cell SVG: a cell is painted by the
    one rect of ``text`` in its column (the same x and width) whose inside
    holds the centre of the cell's reference rect.  A cell inside no rect,
    or inside two, is an AssertionError."""
    columns = {}
    for x, y, w, h, fill in rects(text)[0]:
        columns.setdefault((x, w), []).append((y, y + h, fill))
    fills = []
    for x, y, w, h, _ in rects(reference)[0]:
        cy = y + h / 2
        hits = [fill for lo, hi, fill in columns.get((x, w), ())
                if lo < cy < hi]
        assert len(hits) == 1, (x, y, hits)
        fills.append(hits[0])
    return fills


def column_runs(ras):
    """The number of maximal runs of equal classes up the columns of a
    two-parameter raster."""
    w = ras.side + 1
    return sum(1 for i in range(w)
               for _ in groupby(ras.cells[i * w:(i + 1) * w]))

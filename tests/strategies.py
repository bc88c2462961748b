"""Composable hypothesis strategies for classification worlds.

A *world* is the input of IA/NIB classification: ``(mbrs, radii,
cand_xy)`` arrays as :meth:`ObjectTable.mbr_radius_arrays` returns
them, plus candidate coordinates.  Fleets and candidate sets are drawn
by separate strategies and combined, so a test can ask for exactly the
corner it needs (``worlds(fleet=giant_fleets)``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

EXTENT = 100.0

coords = st.floats(0.0, EXTENT, allow_nan=False, allow_infinity=False)
"""A coordinate inside the world's extent."""

widths = st.one_of(st.just(0.0), st.floats(0.0, 20.0))
"""An MBR side: zero (point MBRs) or up to a fifth of the extent."""

radii = st.one_of(st.just(0.0), st.floats(0.0, 15.0))
"""A ``minMaxRadius``: zero or a typical value."""

giant_radii = st.floats(1e3, 1e7)
"""Radii whose boxes cover every cell and go on the overflow list."""


@st.composite
def fleets(draw, max_objects: int = 30, radius=radii, anchor=coords):
    """``(mbrs, radii)`` of 0..``max_objects`` objects."""
    n = draw(st.integers(0, max_objects))
    rows = []
    for _ in range(n):
        x, y = draw(anchor), draw(anchor)
        rows.append((x, y, x + draw(widths), y + draw(widths)))
    mbrs = np.array(rows, dtype=np.float64).reshape(n, 4)
    rad = np.array([draw(radius) for _ in range(n)], dtype=np.float64)
    return mbrs, rad


clustered_fleets = fleets(anchor=st.floats(40.0, 42.0))
"""Every object anchored in one small cluster."""

giant_fleets = fleets(radius=st.one_of(radii, giant_radii))
"""Ordinary objects mixed with overflow-list giants."""

any_fleet = st.one_of(fleets(), clustered_fleets, giant_fleets)
"""A fleet of any kind, the empty fleet included."""


@st.composite
def candidate_sets(draw, mbrs, rad, max_candidates: int = 30):
    """``(m, 2)`` candidates: uniform, clustered, coincident, or placed
    exactly on objects' dilated edges (``min_x − r``, ``max_x + r``,
    and the same in y)."""
    m = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, max_candidates)))
    kind = draw(st.sampled_from(["uniform", "cluster", "same", "edges"]))
    if kind == "cluster":
        pts = [(draw(st.floats(40.0, 41.0)), draw(st.floats(40.0, 41.0)))
               for _ in range(m)]
    elif kind == "same":
        pt = (draw(coords), draw(coords))
        pts = [pt] * m
    else:
        pts = [(draw(coords), draw(coords)) for _ in range(m)]
    if kind == "edges" and mbrs.shape[0]:
        for j in range(m):
            i = draw(st.integers(0, mbrs.shape[0] - 1))
            min_x, min_y, max_x, max_y = mbrs[i]
            r = rad[i]
            side = draw(st.sampled_from(["lo_x", "hi_x", "lo_y", "hi_y"]))
            if side == "lo_x":
                pts[j] = (min_x - r, min_y)
            elif side == "hi_x":
                pts[j] = (max_x + r, max_y)
            elif side == "lo_y":
                pts[j] = (max_x, min_y - r)
            else:
                pts[j] = (min_x, max_y + r)
    return np.array(pts, dtype=np.float64).reshape(m, 2)


@st.composite
def worlds(draw, fleet=any_fleet):
    """``(mbrs, radii, cand_xy)`` for one classification call."""
    mbrs, rad = draw(fleet)
    return mbrs, rad, draw(candidate_sets(mbrs, rad))


grids = st.tuples(st.integers(1, 12), st.integers(1, 12))
"""A forced ``(gx, gy)`` join grid."""

fine_grids = st.tuples(st.integers(4, 12), st.integers(4, 12))
"""A forced grid fine enough that ordinary boxes stay off the
overflow list."""

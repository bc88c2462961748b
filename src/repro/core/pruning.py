"""Applying the IA and NIB pruning rules to a candidate set.

For one object entry, candidates split into three groups:

* ``certain`` — inside the IA region: influence counted immediately,
* ``maybe``   — inside the NIB region but not the IA region: must be
  validated exactly,
* everything else — outside the NIB region: certainly not influencing.

Every pair lies outside the NIB region unless the candidate sits in
the object's NIB bounding box (its MBR dilated by ``minMaxRadius``),
so the whole table is classified with one **cell-block spatial join**
(:func:`classify_span`), the batched counterpart of the paper's
per-object range queries (Algorithm 2 lines 6/9):

1. the candidates are bucketed on a uniform grid,
2. each object's dilated MBR is handed to the cells it touches,
3. the exact ``maxDist``/``minDist`` tests (:func:`_classify_tile`) run
   over the cell blocks (objects touching a cell) × (candidates in
   it) only; every other pair is NIB-pruned without being tested.

The grid is sized from the input by a small cost model
(:func:`choose_grid`).  When no grid pays for itself it is 1×1 and the
join degenerates into the plain tiled broadcast over every pair.
Objects whose dilated box would touch too many cells go on an
*overflow list*: one extra cell that holds every candidate.  Callers
that validate the band as they go take the join in parts of
consecutive entries (:func:`classify_parts`), which bounds their
memory by one part's pairs.

The per-entry R-tree path (:func:`classify_candidates`) is the paper's
own formulation and produces the same split.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.object_table import ObjectEntry
from repro.index.rtree import RTree


@dataclass(frozen=True, slots=True)
class PruningOutcome:
    """Candidate indexes resolved by the rules for one object."""

    certain: np.ndarray   # influenced for sure (IA)
    maybe: np.ndarray     # needs validation (inside NIB, outside IA)
    pruned_nib: int       # count resolved as non-influencing


# ----------------------------------------------------------------------
# Verification sets
# ----------------------------------------------------------------------
#: dtype of entry indexes in verification sets and join output (tables
#: with 2**32 or more live entries are rejected by the join)
ROW_DTYPE = np.uint32


class VerificationSets:
    """Per-candidate verification sets as one CSR.

    ``rows`` holds every set's entry indexes (``uint32``) back to back,
    candidate by candidate, each set in ascending entry order;
    ``offsets`` is the ``(m + 1,)`` int64 prefix, so candidate ``j``
    verifies ``rows[offsets[j]:offsets[j + 1]]``.  Two flat arrays
    pickle and cache far smaller than ``m`` separate index arrays.
    """

    __slots__ = ("rows", "offsets")

    def __init__(self, rows: np.ndarray, offsets: np.ndarray):
        self.rows = rows
        self.offsets = offsets

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, j: int) -> np.ndarray:
        return self.rows[self.offsets[j] : self.offsets[j + 1]]

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def sizes(self) -> np.ndarray:
        """``|VS(c)|`` for every candidate, as int64."""
        return np.diff(self.offsets)

    @property
    def nbytes(self) -> int:
        return int(self.rows.nbytes + self.offsets.nbytes)

    @classmethod
    def from_pairs(
        cls, obj: np.ndarray, cand: np.ndarray, m: int
    ) -> "VerificationSets":
        """Group ``(entry, candidate)`` pairs listed in ascending entry
        order into per-candidate sets (a stable sort keeps each set
        ascending)."""
        # A 16-bit key takes numpy's radix sort.
        key = cand.astype(np.uint16) if m <= 1 << 16 else cand
        order = np.argsort(key, kind="stable")
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(cand, minlength=m), out=offsets[1:])
        return cls(obj[order], offsets)

    @classmethod
    def everything(cls, count: int, m: int) -> "VerificationSets":
        """Every candidate verifies every one of ``count`` entries."""
        return _AllEntries(count, m)

    def packed(self) -> "VerificationSets":
        """The same sets at 2 bytes a row, for caching.

        Each set is stored as its first row plus the uint16 steps
        between consecutive rows (decoded per set on access); returns
        ``self`` when some step does not fit 16 bits.
        """
        if type(self) is not VerificationSets or self.rows.size == 0:
            return self
        heads = self.offsets[:-1][self.sizes() > 0]
        steps = np.diff(self.rows.astype(np.int64), prepend=0)
        steps[heads] = 0
        if steps.max() > 0xFFFF:
            return self
        firsts = np.zeros(len(self), dtype=ROW_DTYPE)
        firsts[self.sizes() > 0] = self.rows[heads]
        return _StepCoded(steps.astype(np.uint16), self.offsets, firsts)

    @staticmethod
    def concat(parts: "list[VerificationSets]") -> "VerificationSets":
        """Join the sets of consecutive candidate spans into one."""
        if parts and all(isinstance(p, _AllEntries) for p in parts):
            return _AllEntries(parts[0].rows.size, sum(map(len, parts)))
        sizes = np.concatenate([p.sizes() for p in parts])
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        rows = np.concatenate([p.rows for p in parts])
        return VerificationSets(rows.astype(ROW_DTYPE, copy=False), offsets)


class _StepCoded(VerificationSets):
    """:meth:`VerificationSets.packed` output: ``rows`` holds uint16
    steps, each set's first row is in ``firsts``."""

    __slots__ = ("firsts",)

    def __init__(self, steps, offsets, firsts):
        super().__init__(steps, offsets)
        self.firsts = firsts

    def __getitem__(self, j: int) -> np.ndarray:
        steps = self.rows[self.offsets[j] : self.offsets[j + 1]]
        return np.cumsum(steps, dtype=ROW_DTYPE) + self.firsts[j]

    @property
    def nbytes(self) -> int:
        return super().nbytes + int(self.firsts.nbytes)


class _AllEntries(VerificationSets):
    """PIN-VO*'s sets: one shared row array stands for every set."""

    __slots__ = ("m",)

    def __init__(self, count: int, m: int):
        super().__init__(
            np.arange(count, dtype=ROW_DTYPE), np.zeros(1, dtype=np.int64)
        )
        self.m = m

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, j: int) -> np.ndarray:
        return self.rows

    def sizes(self) -> np.ndarray:
        return np.full(self.m, self.rows.size, dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return int(self.rows.nbytes)

    def __reduce__(self):
        return (_AllEntries, (int(self.rows.size), self.m))


# ----------------------------------------------------------------------
# Join output
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Classification:
    """The IA / band / NIB split of the pairs of entries
    ``[start, stop)`` × every candidate.

    Band pairs (and IA pairs, when asked for) are listed as parallel
    ``uint32`` arrays of table-wide entry indexes and candidate indexes,
    in ascending entry order; within one entry the candidate order is
    unspecified.  Pairs never listed are NIB-pruned.
    """

    start: int
    stop: int
    ia_counts: np.ndarray          # (m,) int64 IA entries per candidate
    band_obj: np.ndarray
    band_cand: np.ndarray
    ia_obj: np.ndarray | None
    ia_cand: np.ndarray | None
    #: pairs the exact tests ran on (the rest never left their cells)
    pairs_tested: int
    #: the ``(gx, gy)`` grid the join used
    grid: tuple[int, int]

    @property
    def objects(self) -> int:
        return self.stop - self.start

    @property
    def m(self) -> int:
        return int(self.ia_counts.shape[0])

    @property
    def ia_pairs(self) -> int:
        return int(self.ia_counts.sum())

    @property
    def band_pairs(self) -> int:
        return int(self.band_obj.shape[0])

    @property
    def nib_pairs(self) -> int:
        return self.objects * self.m - self.ia_pairs - self.band_pairs

    def count_into(self, counters) -> None:
        """Add the IA/NIB pair counts to an ``Instrumentation``."""
        counters.pairs_pruned_ia += self.ia_pairs
        counters.pairs_pruned_nib += self.nib_pairs

    def verification_sets(self) -> VerificationSets:
        """The band grouped by candidate: ``VS(c)`` in entry order."""
        return VerificationSets.from_pairs(
            self.band_obj, self.band_cand, self.m
        )

    def band_by_object(self):
        """Yield ``(entry, candidate indexes)`` for each banded entry,
        in ascending entry order."""
        # intp, so the callers' fancy indexing with each slice casts nothing
        obj, cand = self.band_obj, self.band_cand.astype(np.intp)
        if obj.size == 0:
            return
        starts = np.flatnonzero(np.diff(obj, prepend=obj[0] ^ 1))
        ends = np.append(starts[1:], obj.size)
        for s, e in zip(starts.tolist(), ends.tolist()):
            yield int(obj[s]), cand[s:e]


# ----------------------------------------------------------------------
# The exact per-pair tests
# ----------------------------------------------------------------------
def _classify_tile(min_x, min_y, max_x, max_y, radius, cand_xy):
    x = cand_xy[:, 0][None, :]
    y = cand_xy[:, 1][None, :]
    dx = np.maximum(np.maximum(min_x - x, 0.0), x - max_x)
    dy = np.maximum(np.maximum(min_y - y, 0.0), y - max_y)
    min_d2 = dx * dx + dy * dy
    dx = np.maximum(np.abs(x - min_x), np.abs(x - max_x))
    dy = np.maximum(np.abs(y - min_y), np.abs(y - max_y))
    max_d2 = dx * dx + dy * dy
    r2 = radius * radius
    ia = max_d2 <= r2
    band = ~ia & (min_d2 <= r2)
    return ia, band


# ----------------------------------------------------------------------
# Grid sizing
# ----------------------------------------------------------------------
#: pairs per evaluated block: bounds every float64 temporary of one
#: :func:`_classify_tile` call to 256 KB (L2-resident; measured fastest
#: from 10³×10² up to 10⁶×10³)
BLOCK_PAIRS = 32_768

#: cost-model constants, in nanoseconds, fitted on a 2-vCPU Xeon VM
#: (numpy 2.4): one pair of the dense broadcast, one pair tested
#: through the join (gathers + tests + emission), one (object, cell)
#: incidence expanded, one grid cell's bookkeeping, and the join's
#: fixed set-up.  Only their ratios matter.
_NS_DENSE_PAIR = 33.0
_NS_JOIN_PAIR = 60.0
_NS_INCIDENCE = 80.0
_NS_CELL = 10.0
_NS_JOIN_FIXED = 200_000.0

#: most booleans in the ``(rows, m)`` result matrices of a dense block
#: (256 KB, so the block's ``np.nonzero`` output stays at a few MB)
DENSE_BLOCK_ELEMS = 1 << 18

#: entries per part that :func:`classify_parts` hands to callers which
#: validate as they go, so their transients are bounded by
#: ``PART_ENTRIES · m`` pairs rather than by the table's band
PART_ENTRIES = 1024

#: objects sampled to estimate a grid's work (strided, deterministic)
_COST_SAMPLE = 4096

#: an object whose dilated box touches more than this share of the
#: grid's cells goes on the overflow list
OVERFLOW_SHARE = 0.25


def _dilated(mbrs: np.ndarray, radii: np.ndarray, axis: int):
    """One axis of the objects' NIB boxes, widened so float rounding
    can only grow them: every pair :func:`_classify_tile` keeps lies
    inside."""
    lo = mbrs[:, axis] - radii
    hi = mbrs[:, axis + 2] + radii
    # ~1e4 ulps of the operands' magnitude, plus an absolute floor for
    # squares that underflow to zero
    slack = np.abs(mbrs[:, axis])
    slack += np.abs(mbrs[:, axis + 2])
    slack += radii
    slack *= 1e-12
    slack += 1e-150
    lo -= slack
    hi += slack
    return lo, hi


def choose_grid(
    mbrs: np.ndarray, radii: np.ndarray, cand_xy: np.ndarray
) -> tuple[int, int]:
    """The ``(gx, gy)`` candidate grid the join should use.

    Square cells over the candidates' bounding box; 4, 8, 16, … up to
    4m cells are priced with a fixed-constant cost model — estimated
    tested pairs (uniform candidate density over the box; a box bound
    for the overflow list counts all ``m``) plus (object, cell)
    incidences plus grid bookkeeping — against the
    dense broadcast over all ``n · m`` pairs.  Returns ``(1, 1)`` when
    no grid pays for itself.
    """
    r = int(radii.shape[0])
    m = int(cand_xy.shape[0])
    if r == 0 or m < 2:
        return (1, 1)
    x0, y0 = cand_xy.min(axis=0)
    x1, y1 = cand_xy.max(axis=0)
    with np.errstate(over="ignore"):
        width, height = float(x1 - x0), float(y1 - y0)
    if not (width > 0.0 or height > 0.0) or not (
        math.isfinite(width) and math.isfinite(height)
    ):
        return (1, 1)
    dense_ns = _NS_DENSE_PAIR * r * m
    if dense_ns <= _NS_JOIN_FIXED:
        return (1, 1)
    step = max(1, r // _COST_SAMPLE)
    sample_m = mbrs[::step]
    sample_r = radii[::step]
    scale = r / sample_r.shape[0]
    box_w = np.minimum(sample_m[:, 2] - sample_m[:, 0] + 2 * sample_r, width)
    box_h = np.minimum(sample_m[:, 3] - sample_m[:, 1] + 2 * sample_r, height)
    best, best_ns = (1, 1), dense_ns
    cells = 4
    while cells <= 4 * m:
        if width > 0.0 and height > 0.0:
            side = math.sqrt(width / cells) * math.sqrt(height)
            if not side > 0.0:
                break
            gx = min(cells, max(1, math.ceil(width / side)))
            gy = min(cells, max(1, math.ceil(height / side)))
        elif width > 0.0:
            gx, gy = cells, 1
        else:
            gx, gy = 1, cells
        cw = width / gx if width > 0.0 else 1.0
        ch = height / gy if height > 0.0 else 1.0
        # a box of width w touches about w/cw + 1 cells and sees the
        # candidates of that strip
        tx = np.minimum(box_w / cw + 1.0, gx)
        ty = np.minimum(box_h / ch + 1.0, gy)
        touched = tx * ty
        # an overflowing box is one incidence tested against all m
        spill = touched > OVERFLOW_SHARE * gx * gy
        touched[spill] = gx * gy
        pairs = float(np.sum(touched / (gx * gy))) * m * scale
        touched[spill] = 1.0
        incidences = float(touched.sum()) * scale
        est = (
            _NS_JOIN_FIXED
            + _NS_JOIN_PAIR * pairs
            + _NS_INCIDENCE * incidences
            + _NS_CELL * gx * gy
        )
        if est < best_ns:
            best, best_ns = (gx, gy), est
        cells *= 2
    return best


# ----------------------------------------------------------------------
# The join
# ----------------------------------------------------------------------
class _Sink:
    """Accumulates the output blocks of one part, in entry order."""

    def __init__(self, m: int, with_ia: bool):
        self.ia_counts = np.zeros(m, dtype=np.int64)
        self.with_ia = with_ia
        self.band: tuple[list, list] = ([], [])
        self.ia: tuple[list, list] = ([], [])
        self.tested = 0

    @staticmethod
    def _emit(lists, obj, cand) -> None:
        lists[0].append(obj.astype(ROW_DTYPE))
        lists[1].append(cand.astype(ROW_DTYPE))

    def pairs(self, obj, cand, ia, band) -> None:
        """One flat block of tested pairs, listed in entry order."""
        self.tested += int(obj.shape[0])
        m = self.ia_counts.shape[0]
        self.ia_counts += np.bincount(cand[ia], minlength=m)
        self._emit(self.band, obj[band], cand[band])
        if self.with_ia:
            self._emit(self.ia, obj[ia], cand[ia])

    def dense(self, start: int, ia, band) -> None:
        """One ``(rows, m)`` block of the entries from ``start`` on;
        ``np.nonzero`` lists it row-major, so in entry order."""
        self.tested += int(ia.size)
        self.ia_counts += ia.sum(axis=0)
        masks = [(self.band, band)]
        if self.with_ia:
            masks.append((self.ia, ia))
        for lists, mask in masks:
            rows, cols = np.nonzero(mask)
            rows += start
            self._emit(lists, rows, cols)

    def finish(self, start: int, stop: int, grid) -> Classification:
        def flat(parts):
            # one list at a time, each dropped once joined
            if len(parts) < 2:
                out = parts[0] if parts else np.empty(0, dtype=ROW_DTYPE)
            else:
                out = np.concatenate(parts)
            parts.clear()
            return out

        ia_obj = ia_cand = None
        if self.with_ia:
            ia_obj, ia_cand = map(flat, self.ia)
        return Classification(
            start=start,
            stop=stop,
            ia_counts=self.ia_counts,
            band_obj=flat(self.band[0]),
            band_cand=flat(self.band[1]),
            ia_obj=ia_obj,
            ia_cand=ia_cand,
            pairs_tested=self.tested,
            grid=grid,
        )


def _check_block_pairs(block_pairs: int) -> None:
    # a zero or negative block would loop forever or classify nothing
    # (an all-NIB table downstream) — fail loudly instead
    if block_pairs < 1:
        raise ValueError(f"block_pairs must be >= 1, got {block_pairs}")


def _dense_blocks(
    sink, start, stop, mbrs, radii, cand_xy, block_pairs
) -> None:
    """Test entries ``[start, stop)`` against every candidate: the
    tiled broadcast.

    Each block is ``height`` rows × all ``m`` candidates, one
    row-major ``(height, m)`` matrix pair read in entry order.  Its
    broadcast runs over candidate tiles ``block_pairs // height`` wide,
    which bounds the float64 temporaries; a tall block (few candidates)
    gets one-candidate tiles, so the objects run along numpy's inner
    loop.
    """
    m = cand_xy.shape[0]
    height = max(1, min(stop - start, DENSE_BLOCK_ELEMS // m, block_pairs))
    tile = max(1, block_pairs // height)
    for s in range(start, stop, height):
        e = min(stop, s + height)
        cols = mbrs[s:e].T.copy()
        args = (
            cols[0][:, None], cols[1][:, None], cols[2][:, None],
            cols[3][:, None], radii[s:e][:, None],
        )
        if tile >= m:
            ia, band = _classify_tile(*args, cand_xy)
        else:
            ia = np.empty((e - s, m), dtype=bool)
            band = np.empty((e - s, m), dtype=bool)
            for lo in range(0, m, tile):
                ia[:, lo : lo + tile], band[:, lo : lo + tile] = (
                    _classify_tile(*args, cand_xy[lo : lo + tile])
                )
        sink.dense(s, ia, band)


def _excl_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class _Cells:
    """A grid join's plan: the bucketed candidates, each live object's
    cell rectangle, and the object chunks to test."""

    gx: int
    bx0: np.ndarray      # per object: first cell column it touches
    by0: np.ndarray      # … first cell row
    nx: np.ndarray       # … cell columns it touches
    ny: np.ndarray       # … cell rows it touches
    count: np.ndarray    # candidates per cell (+ the overflow cell)
    first: np.ndarray    # each cell's start in ``order``
    order: np.ndarray    # candidate indexes, sorted by cell
    live: np.ndarray     # objects with a candidate in reach, ascending
    bounds: list         # chunk boundaries into ``live``


def _plan_cells(mbrs, radii, cand_xy, grid, step, block_pairs):
    """Bucket the candidates and route each object's dilated box to
    cells; ``None`` when the grid degenerates to 1×1."""
    gx, gy = grid
    m = cand_xy.shape[0]
    x0, y0 = cand_xy.min(axis=0)
    x1, y1 = cand_xy.max(axis=0)
    with np.errstate(over="ignore"):
        cw, ch = (x1 - x0) / gx, (y1 - y0) / gy
    if gx * gy == 1 or not (np.isfinite(cw) and np.isfinite(ch)):
        return None

    # 1. bucket the candidates; a zero (or underflowing) extent puts
    # every candidate in the first cell along that axis
    cw = cw if cw > 0.0 else 1.0
    ch = ch if ch > 0.0 else 1.0

    def cell_index(v, origin, size, g):
        # monotone in v, so lo <= x <= hi keeps x's cell in [lo's, hi's];
        # a quotient that overflows to ±inf is clipped like any other
        with np.errstate(over="ignore"):
            t = (v - origin) / size
        return np.floor(np.clip(t, 0.0, float(g - 1))).astype(np.int32)

    cand_cell = cell_index(cand_xy[:, 1], y0, ch, gy).astype(np.int64) * gx
    cand_cell += cell_index(cand_xy[:, 0], x0, cw, gx)
    order = np.argsort(cand_cell, kind="stable")
    count = np.bincount(cand_cell, minlength=gx * gy)

    # 2. the cell range [b0, b0 + n) each dilated box covers per axis;
    # a box clear of the candidates' bounding box covers none
    def cell_range(axis, origin, top, size, g):
        lo, hi = _dilated(mbrs, radii, axis)
        b0 = cell_index(lo, origin, size, g)
        n = cell_index(hi, origin, size, g) - b0 + 1
        n[(lo > top) | (hi < origin)] = 0
        return b0, n

    bx0, nx = cell_range(0, x0, x1, cw, gx)
    by0, ny = cell_range(1, y0, y1, ch, gy)
    touched = nx.astype(np.int64) * ny

    # exact pairs per object from a summed-area table of cell counts
    sat = np.zeros((gy + 1, gx + 1), dtype=np.int64)
    np.cumsum(
        np.cumsum(count.reshape(gy, gx), axis=0), axis=1, out=sat[1:, 1:]
    )
    hit = np.flatnonzero(touched)
    xl, yl = bx0[hit], by0[hit]
    xh, yh = xl + nx[hit], yl + ny[hit]
    pairs = np.zeros(radii.shape[0], dtype=np.int64)
    pairs[hit] = sat[yh, xh] - sat[yl, xh] - sat[yh, xl] + sat[yl, xl]
    del hit, xl, yl, xh, yh

    # the overflow list: a box touching too many cells is routed to one
    # extra cell, gx·gy, that holds every candidate
    overflow = np.flatnonzero(touched > OVERFLOW_SHARE * gx * gy)
    bx0[overflow], by0[overflow] = 0, gy
    nx[overflow], ny[overflow] = 1, 1
    touched[overflow], pairs[overflow] = 1, m
    count = np.append(count, m)
    first = np.append(_excl_cumsum(count[:-1]), 0)

    # 3. chunks of about block_pairs tested pairs (or cell incidences)
    # each, within one part, in entry order; an object whose cells hold
    # no candidate is NIB for every pair and is never tested
    live = np.flatnonzero(pairs)
    weight = pairs[live] + touched[live]
    cum = np.cumsum(weight)
    breaks = np.diff((cum - weight) // block_pairs) != 0
    breaks |= np.diff(live // step) != 0
    bounds = [0]
    if live.size:
        bounds += (np.flatnonzero(breaks) + 1).tolist() + [live.size]
    return _Cells(gx, bx0, by0, nx, ny, count, first, order, live, bounds)


def _cell_block(sink, objs, cells: _Cells, mbrs, radii, cand_xy) -> None:
    """Test ``objs`` against the candidates of the cells they touch.

    Expands each object into its (object, cell) incidences and flattens
    the cell blocks (object × the cell's candidates) into one pair
    stream, in entry order, for :func:`_classify_tile`; empty cells
    emit nothing.
    """
    obj_nx = cells.nx[objs]
    k = obj_nx * cells.ny[objs]
    rep = np.repeat(np.arange(objs.shape[0]), k)
    local = np.arange(rep.shape[0]) - np.repeat(_excl_cumsum(k), k)
    width = obj_nx[rep]
    cell = (cells.by0[objs][rep] + local // width) * cells.gx + (
        cells.bx0[objs][rep] + local % width
    )
    cnt = cells.count[cell]
    obj_p = np.repeat(objs[rep], cnt)
    pos = np.arange(obj_p.shape[0]) + np.repeat(
        cells.first[cell] - _excl_cumsum(cnt), cnt
    )
    cand_p = cells.order[pos]
    cols = mbrs[obj_p]
    ia, band = _classify_tile(
        cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3], radii[obj_p],
        cand_xy[cand_p],
    )
    sink.pairs(obj_p, cand_p, ia[0], band[0])


def join_parts(
    mbrs: np.ndarray,
    radii: np.ndarray,
    cand_xy: np.ndarray,
    grid: tuple[int, int],
    *,
    with_ia: bool = False,
    part_entries: int | None = None,
    block_pairs: int = BLOCK_PAIRS,
) -> Iterator[Classification]:
    """Classify every (entry, candidate) pair through a ``grid`` join.

    ``mbrs`` is ``(r, 4)`` rows ``(min_x, min_y, max_x, max_y)`` and
    ``radii`` is ``(r,)`` — the arrays
    :meth:`repro.core.object_table.ObjectTable.mbr_radius_arrays`
    caches per table.  The exact tests are :func:`_classify_tile`'s
    expressions over the same float64 values, so the split is
    bit-identical to the dense broadcast for any ``grid``; ``grid``
    only decides which pairs are tested at all.

    Yields one :class:`Classification` per run of ``part_entries``
    consecutive entries (one for the whole table when ``None``), in
    entry order; a caller that consumes each part before asking for
    the next holds one part's pairs at a time.  Within a part, work
    runs in blocks of about ``block_pairs`` tested pairs, which bounds
    the transients.
    """
    _check_block_pairs(block_pairs)
    if part_entries is not None and part_entries < 1:
        raise ValueError(f"part_entries must be >= 1, got {part_entries}")
    r = int(radii.shape[0])
    m = int(cand_xy.shape[0])
    if r >= 1 << 32:
        raise ValueError(f"{r} entries exceed the uint32 row index")
    step = max(r, 1) if part_entries is None else part_entries
    cells = None
    if r and m:
        cells = _plan_cells(mbrs, radii, cand_xy, grid, step, block_pairs)

    def gen():
        chunk = 0
        for start in range(0, max(r, 1), step):
            stop = min(r, start + step)
            sink = _Sink(m, with_ia)
            if cells is None:
                if m:
                    _dense_blocks(
                        sink, start, stop, mbrs, radii, cand_xy, block_pairs
                    )
            else:
                bounds, live = cells.bounds, cells.live
                while chunk + 1 < len(bounds) and live[bounds[chunk]] < stop:
                    objs = live[bounds[chunk] : bounds[chunk + 1]]
                    _cell_block(sink, objs, cells, mbrs, radii, cand_xy)
                    chunk += 1
            yield sink.finish(start, stop, grid)

    return gen()


def join_cells(
    mbrs: np.ndarray,
    radii: np.ndarray,
    cand_xy: np.ndarray,
    grid: tuple[int, int],
    *,
    with_ia: bool = False,
    block_pairs: int = BLOCK_PAIRS,
) -> Classification:
    """:func:`join_parts` over the whole table, as one part."""
    (split,) = join_parts(
        mbrs, radii, cand_xy, grid, with_ia=with_ia, block_pairs=block_pairs
    )
    return split


def classify_span(
    mbrs: np.ndarray,
    radii: np.ndarray,
    cand_xy: np.ndarray,
    *,
    with_ia: bool = False,
    block_pairs: int = BLOCK_PAIRS,
) -> Classification:
    """IA/NIB classification of a table (or any MBR/radius arrays).

    Sizes the candidate grid with :func:`choose_grid` and runs
    :func:`join_cells`.  ``with_ia`` also lists the IA pairs (callers
    that need who-influences-whom, not just counts).
    """
    grid = choose_grid(mbrs, radii, cand_xy)
    return join_cells(
        mbrs, radii, cand_xy, grid, with_ia=with_ia, block_pairs=block_pairs
    )


def classify_parts(
    mbrs: np.ndarray,
    radii: np.ndarray,
    cand_xy: np.ndarray,
    *,
    with_ia: bool = False,
    part_entries: int = PART_ENTRIES,
) -> Iterator[Classification]:
    """:func:`classify_span` handed out part by part (see
    :func:`join_parts`), for callers that validate each part's band
    before classifying the next."""
    grid = choose_grid(mbrs, radii, cand_xy)
    return join_parts(
        mbrs, radii, cand_xy, grid, with_ia=with_ia,
        part_entries=part_entries,
    )


def classify_candidates(
    entry: ObjectEntry,
    cand_xy: np.ndarray,
    rtree: RTree | None,
) -> PruningOutcome:
    """Split the candidate set for one object entry.

    ``cand_xy`` is the full ``(m, 2)`` candidate coordinate array whose
    row index is the candidate id.  When ``rtree`` is ``None`` the NIB
    box filter falls back to a vectorised scan (used by ablations).
    """
    m = cand_xy.shape[0]
    bbox = entry.nib_bbox
    if rtree is not None:
        ids = np.asarray(rtree.query_rect(bbox), dtype=int)
    else:
        inside = (
            (cand_xy[:, 0] >= bbox.min_x)
            & (cand_xy[:, 0] <= bbox.max_x)
            & (cand_xy[:, 1] >= bbox.min_y)
            & (cand_xy[:, 1] <= bbox.max_y)
        )
        ids = np.nonzero(inside)[0]
    if ids.size == 0:
        return PruningOutcome(
            certain=np.empty(0, dtype=int),
            maybe=np.empty(0, dtype=int),
            pruned_nib=m,
        )
    sub = cand_xy[ids]
    radius = entry.radius
    max_d = entry.mbr.max_dist_many(sub)
    min_d = entry.mbr.min_dist_many(sub)
    ia_mask = max_d <= radius
    out_mask = min_d > radius
    maybe_mask = ~(ia_mask | out_mask)
    pruned_nib = (m - ids.size) + int(out_mask.sum())
    return PruningOutcome(
        certain=ids[ia_mask],
        maybe=ids[maybe_mask],
        pruned_nib=pruned_nib,
    )

"""Reference kernels the production code is checked against.

:func:`dense_pruning` is the full candidate×object broadcast that
IA/NIB classification ran before the cell-block join: every pair goes
through the same :func:`repro.core.pruning._classify_tile` expressions
(in chunks of object rows, to bound memory), so the join must
reproduce its split exactly, whatever grid it picks.
"""

from __future__ import annotations

import numpy as np

from repro.core.pruning import VerificationSets, _classify_tile

#: object rows per dense chunk
CHUNK_ROWS = 1024


def dense_classify(mbrs: np.ndarray, radii: np.ndarray, cand_xy: np.ndarray):
    """Yield ``(start, stop, ia, band)`` boolean ``(rows, m)`` matrices
    over consecutive chunks of object rows."""
    m = int(cand_xy.shape[0])
    for start in range(0, int(radii.shape[0]), CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, int(radii.shape[0]))
        rows = slice(start, stop)
        ia, band = _classify_tile(
            np.ascontiguousarray(mbrs[rows, 0])[:, None],
            np.ascontiguousarray(mbrs[rows, 1])[:, None],
            np.ascontiguousarray(mbrs[rows, 2])[:, None],
            np.ascontiguousarray(mbrs[rows, 3])[:, None],
            np.asarray(radii[rows])[:, None],
            cand_xy,
        )
        yield start, stop, ia.reshape(stop - start, m), band.reshape(
            stop - start, m
        )


def dense_pruning(
    mbrs: np.ndarray, radii: np.ndarray, cand_xy: np.ndarray
) -> dict:
    """What PIN-VO's pruning phase derives from the dense split.

    ``min_inf`` (IA count per candidate), ``vs``/``ia_sets`` (each
    candidate's band / IA entries in ascending entry order) and the
    IA/NIB pair counts.
    """
    r, m = int(radii.shape[0]), int(cand_xy.shape[0])
    min_inf = np.zeros(m, dtype=np.int64)
    pairs = {"band": ([], []), "ia": ([], [])}
    for start, _stop, ia, band in dense_classify(mbrs, radii, cand_xy):
        min_inf += ia.sum(axis=0)
        for name, mask in (("band", band), ("ia", ia)):
            rows, cols = np.nonzero(mask)
            pairs[name][0].append(rows + start)
            pairs[name][1].append(cols)

    def by_candidate(rows, cols):
        rows = np.concatenate(rows) if rows else np.empty(0, np.int64)
        cols = np.concatenate(cols) if cols else np.empty(0, np.int64)
        order = np.argsort(cols, kind="stable")
        bounds = np.searchsorted(cols[order], np.arange(m + 1))
        rows = rows[order]
        return [rows[bounds[j] : bounds[j + 1]] for j in range(m)]

    vs = by_candidate(*pairs["band"])
    ia_by_cand = by_candidate(*pairs["ia"])
    ia_pairs = int(min_inf.sum())
    band_pairs = sum(v.size for v in vs)
    return {
        "min_inf": min_inf,
        "vs": vs,
        "ia_sets": ia_by_cand,
        "ia_pairs": ia_pairs,
        "nib_pairs": r * m - ia_pairs - band_pairs,
    }


def ia_sets(split) -> VerificationSets:
    """A join output's IA pairs (``with_ia=True``) grouped by candidate."""
    return VerificationSets.from_pairs(split.ia_obj, split.ia_cand, split.m)

"""Batched trial kernels: all three estimators over many batches at once.

The Monte Carlo harness evaluates hundreds of thousands of independent
batches per grid point; doing that one estimator call at a time is the
hot path. The kernels have two front ends. ``cell_estimates`` returns
per-trial IS/US/WIS values, in-C counts, and WIS definedness from
per-cell sample counts when every sample in a cell shares its weight,
evaluation and membership. ``segment_estimates`` returns the same from
the centered terms w (h - t) and weights that
``EstimationProblem.batch_terms`` forms, held in segments of one flat
array, and each trial's in-C count. The sample path passes the samples
a trial drew in the cells where f > 0, one segment per cell: a sample
where f = 0 has w = 0 and adds nothing to any sum, so it need not be
drawn. :func:`unequal_support.estimators.estimate_all` passes its one
batch as a single segment, so a trial summed as one segment gets its
bits.

Their inputs have passed :func:`unequal_support.densities.check_coverage`,
so the centered term w (h - t) is 0 outside C and the US sum over C is
the IS sum. Both reduce their batches to three sums and hand them to
one place, ``_estimates_from_sums``, which holds the estimator formulas
and the zero conventions (US is 0 when k = 0, WIS is 0 when every
weight vanishes).

``out_array`` checks the NumPy-style ``out=`` buffers that the
sample-path layers accept, so that a caller can run every chunk in one
reused workspace.
"""

import math

import numpy as np

__all__ = ["cell_estimates", "segment_estimates", "out_array"]


def out_array(shape, out=None) -> np.ndarray:
    """``out`` if it is a float64 array of ``shape``; a fresh one if
    ``out`` is None. Any other ``out`` raises ValueError."""
    if out is None:
        return np.empty(shape)
    shape = tuple(shape)
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}")
    return out


def _estimates_from_sums(row_sum, sum_w, k, n, c, t):
    """Per-trial estimates from the centered row sums, the weight sums
    and the in-C counts; US is 0 when k = 0 and WIS is 0 when every
    weight vanishes. Raises ValueError if any estimate is not finite,
    so the outcome table checks every outcome it enumerates, drawn or not."""
    is_v = t + row_sum / n
    us_v = np.where(k > 0, t + c * row_sum / np.maximum(k, 1), 0.0)
    wis_def = sum_w > 0.0
    wis_v = np.where(wis_def, t + row_sum / np.where(wis_def, sum_w, 1.0), 0.0)
    # A float sum is finite only if every term is, so a finite total
    # clears all three estimates without a copy; one that overflows is
    # checked term by term.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(is_v) + np.add.reduce(us_v) + np.add.reduce(wis_v)
    if not math.isfinite(total) and not all(np.isfinite(v).all() for v in (is_v, us_v, wis_v)):
        raise ValueError("the estimates overflow the double range")
    return is_v, us_v, wis_v, k, wis_def


def cell_estimates(counts, n: int, w, hv, in_c, c: float, t: float = 0.0):
    """Per-trial (IS, US, WIS, k, WIS-defined) from (trials, cells) counts.

    ``w``, ``hv`` and ``in_c`` hold each cell's weight, evaluation and
    pruning-set membership; every row of ``counts`` sums to the batch
    size ``n``. Each batch sum is one count-weighted sum over the cells.
    """
    # Finite terms can sum past the double range, and a term can
    # overflow; _estimates_from_sums, not NumPy, reports that.
    with np.errstate(over="ignore", invalid="ignore"):
        cols = np.stack([w * (hv - t), w, in_c], axis=1)
        row_sum, sum_w, k = (np.asarray(counts, dtype=np.float64) @ cols).T
    return _estimates_from_sums(row_sum, sum_w, k.astype(np.int64), n, float(c), float(t))


def segment_estimates(wh, w, sizes, k, n: int, c: float, t: float = 0.0):
    """Per-trial (IS, US, WIS, k, WIS-defined) from samples in segments.

    ``sizes`` is a (segments, trials) count array, and the 1-D ``wh``
    and ``w`` hold the centered terms w (h - t) and the weights of its
    segments one after another in C order: segment 0 of every trial
    first. Each trial's batch of n samples may hold more than its
    segments, but every other sample must have w = 0. ``k`` holds each
    trial's in-C count, of all n samples. A trial's sums add its segment
    sums in segment order, where an empty segment sums to 0 and
    ``np.add.reduceat`` sums any other as its first term plus the
    pairwise sum of the rest.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    flat = sizes.ravel()
    if w.ndim != 1 or w.shape != wh.shape or w.size != flat.sum():
        raise ValueError("wh and w must hold one value per counted sample")
    sums = np.zeros((2, flat.size))
    filled = flat > 0
    starts = (np.cumsum(flat) - flat)[filled]
    # As in cell_estimates, an overflowing sum is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        if starts.size:
            sums[0, filled] = np.add.reduceat(wh, starts)
            sums[1, filled] = np.add.reduceat(w, starts)
        row_sum, sum_w = sums.reshape(2, *sizes.shape).sum(axis=1)
    return _estimates_from_sums(
        row_sum, sum_w, np.asarray(k, dtype=np.int64), n, float(c), float(t)
    )

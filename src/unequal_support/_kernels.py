"""Batched trial kernels: all three estimators over a matrix of batches.

The Monte Carlo harness evaluates hundreds of thousands of independent
batches per grid point; doing that one estimator call at a time is the
hot path. ``batch_estimates`` takes precomputed per-sample weights,
evaluations, and in-C masks shaped (trials, n) and returns per-trial
IS/US/WIS values, in-C counts, and WIS definedness in one pass.
``cell_estimates`` returns the same from per-cell sample counts when
every sample in a cell shares its weight, evaluation and membership.

Two interchangeable implementations exist: a JIT-compiled row loop and
a vectorized pure-NumPy fallback. The JIT path is used when available
unless the environment variable ``UNEQUAL_SUPPORT_NO_NUMBA`` is set to
a nonempty value. Both paths agree to floating-point roundoff (they sum
in different orders); tests pin them against the scalar estimators.
"""

import os

import numpy as np

__all__ = ["batch_estimates", "cell_estimates", "USING_NUMBA"]


def _estimates_from_sums(row_sum, sum_c, sum_w, k, n, c, t):
    """Per-trial estimates from the centered sums over all n samples and
    over C, the weight sums and the in-C counts; US is 0 when k = 0 and
    WIS is 0 when every weight vanishes."""
    is_v = t + row_sum / n
    us_v = np.where(k > 0, t + c * sum_c / np.maximum(k, 1), 0.0)
    wis_def = sum_w > 0.0
    wis_v = np.where(wis_def, t + row_sum / np.where(wis_def, sum_w, 1.0), 0.0)
    return is_v, us_v, wis_v, k, wis_def


def _batch_estimates_numpy(w, hv, in_c, c, t):
    """Vectorized fallback; one temporary of the batch matrix shape."""
    n = w.shape[1]
    wh = w * (hv - t)
    return _estimates_from_sums(
        wh.sum(axis=1),
        np.where(in_c, wh, 0.0).sum(axis=1),
        w.sum(axis=1),
        in_c.sum(axis=1).astype(np.int64),
        n, c, t,
    )


def _batch_estimates_rows(w, hv, in_c, c, t):
    """Row-loop form, compiled by the JIT when available."""
    trials, n = w.shape
    is_v = np.empty(trials)
    us_v = np.empty(trials)
    wis_v = np.empty(trials)
    k_out = np.empty(trials, dtype=np.int64)
    wis_def = np.empty(trials, dtype=np.bool_)
    for i in range(trials):
        sum_all = 0.0
        sum_c = 0.0
        sum_w = 0.0
        k = 0
        for j in range(n):
            wij = w[i, j]
            term = wij * (hv[i, j] - t)
            sum_all += term
            sum_w += wij
            if in_c[i, j]:
                sum_c += term
                k += 1
        is_v[i] = t + sum_all / n
        us_v[i] = t + c * sum_c / k if k > 0 else 0.0
        k_out[i] = k
        if sum_w > 0.0:
            wis_v[i] = t + sum_all / sum_w
            wis_def[i] = True
        else:
            wis_v[i] = 0.0
            wis_def[i] = False
    return is_v, us_v, wis_v, k_out, wis_def


USING_NUMBA = False
_impl = _batch_estimates_numpy
if not os.environ.get("UNEQUAL_SUPPORT_NO_NUMBA"):
    try:
        from numba import njit

        _batch_estimates_numba = njit(cache=True)(_batch_estimates_rows)
        _impl = _batch_estimates_numba
        USING_NUMBA = True
    except ImportError:  # numba missing: keep the NumPy path
        pass


def batch_estimates(w, hv, in_c, c: float, t: float = 0.0):
    """Per-trial (IS, US, WIS, k, WIS-defined) over a (trials, n) batch matrix.

    ``w`` and ``hv`` are the importance weights and evaluations of each
    sample; ``in_c`` marks pruning-set membership. ``t`` is the constant
    control variate; undefined US and WIS rows take the value 0.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    hv = np.ascontiguousarray(hv, dtype=np.float64)
    in_c = np.ascontiguousarray(in_c, dtype=np.bool_)
    if w.ndim != 2 or w.shape != hv.shape or w.shape != in_c.shape:
        raise ValueError("w, hv, in_c must share one (trials, n) shape")
    return _impl(w, hv, in_c, float(c), float(t))


def cell_estimates(counts, n: int, w, hv, in_c, c: float, t: float = 0.0):
    """Per-trial (IS, US, WIS, k, WIS-defined) from (trials, cells) counts.

    ``w``, ``hv`` and ``in_c`` hold each cell's weight, evaluation and
    pruning-set membership; every row of ``counts`` sums to the batch
    size ``n``. Each batch sum is one count-weighted sum over the cells.
    """
    wh = w * (hv - t)
    cols = np.stack([wh, np.where(in_c, wh, 0.0), w, in_c], axis=1)
    row_sum, sum_c, sum_w, k = (np.asarray(counts, dtype=np.float64) @ cols).T
    return _estimates_from_sums(
        row_sum, sum_c, sum_w, k.astype(np.int64), n, float(c), float(t)
    )

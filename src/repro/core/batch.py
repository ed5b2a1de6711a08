"""Structure-of-arrays batch core for the Sec. V / Sec. VI hot path.

The per-clip signal chain (filter -> peaks -> z1..z4) does tiny NumPy
calls per clip, so dispatch overhead — not arithmetic — dominates the
experiment runners (``results/engine_scaling.txt``).  This module holds
the batched kernels that process N clips per NumPy call:

* :class:`ClipBatch` — padded ``(clips, max_len)`` float64 matrix plus a
  per-clip length vector; the SoA container every ``*_batch`` kernel
  consumes.
* ``reflect_convolve_batch`` / ``moving_variance_batch`` /
  ``threshold_filter_batch`` / ``moving_rms_batch`` — the filter stages
  of Sec. V over a dense group of equal-length rows.
* :func:`dtw_distance_batch` — feature ``z4``'s dynamic program, run
  as an anti-diagonal wavefront so each Python step covers a whole
  diagonal of every pair in a shape group.
* :func:`find_peaks_batch` — the peak finder mapped over rows.

Every kernel is **row-independent**: the result of row ``i`` never
depends on any other row, so running a clip in a batch of one is
bit-identical to running it in a batch of N.  The per-clip functions in
:mod:`~repro.core.preprocessing` are thin batch-of-1 views over these
kernels, and ``tests/property/test_prop_batch.py`` pins the identity
across ragged batches.  Rows of *different* lengths are handled by
grouping (:func:`group_by_length`) before the dense kernels run, so
padding never leaks into results.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from .peaks import Peak, find_peaks

__all__ = [
    "ClipBatch",
    "group_by_length",
    "reflect_convolve_batch",
    "moving_variance_batch",
    "threshold_filter_batch",
    "moving_rms_batch",
    "find_peaks_batch",
    "dtw_distance_batch",
]


def _as_row(signal: np.ndarray) -> np.ndarray:
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be 1-D")
    return x


def _as_rows(rows: np.ndarray) -> np.ndarray:
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("batch kernels take 2-D (clips, samples) arrays")
    return x


@dataclasses.dataclass(frozen=True)
class ClipBatch:
    """N ragged clips packed as one padded float64 matrix.

    ``data`` has shape ``(clips, max_len)``; row ``i`` holds clip ``i``
    in ``data[i, :lengths[i]]`` and zero padding after it.  The padding
    is inert — kernels group rows by length and slice the padding off
    before computing, so it never contaminates a result.
    """

    data: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.dtype != np.float64:
            raise ValueError("data must be a 2-D float64 array")
        if self.lengths.ndim != 1 or self.lengths.shape[0] != self.data.shape[0]:
            raise ValueError("lengths must be 1-D with one entry per row")
        if self.lengths.size and (
            self.lengths.min() < 0 or self.lengths.max() > self.data.shape[1]
        ):
            raise ValueError("lengths must lie in [0, data.shape[1]]")

    @classmethod
    def from_signals(cls, signals: Sequence[np.ndarray]) -> "ClipBatch":
        """Pack a ragged list of 1-D signals into one padded batch."""
        arrays = [_as_row(s) for s in signals]
        lengths = np.array([a.size for a in arrays], dtype=np.int64)
        max_len = int(lengths.max()) if arrays else 0
        data = np.zeros((len(arrays), max_len), dtype=np.float64)
        for i, a in enumerate(arrays):
            data[i, : a.size] = a
        return cls(data=data, lengths=lengths)

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def max_length(self) -> int:
        return self.data.shape[1]

    def row(self, i: int) -> np.ndarray:
        """Clip ``i`` without its padding (a view into ``data``)."""
        return self.data[i, : self.lengths[i]]

    def rows(self) -> list[np.ndarray]:
        """All clips without padding, in batch order."""
        return [self.row(i) for i in range(len(self))]


def group_by_length(lengths: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Deterministic grouping of batch rows by clip length.

    Returns ``(length, row_indices)`` pairs sorted by ascending length,
    indices ascending within each group — the iteration order every
    batch consumer uses, so scatter/gather is reproducible.
    """
    arr = np.asarray(lengths, dtype=np.int64)
    return [(int(val), np.nonzero(arr == val)[0]) for val in np.unique(arr)]


def reflect_convolve_batch(rows: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-length convolution with reflected edges, one row per clip.

    Matches the padding semantics of the historical per-clip
    ``_reflect_convolve`` (reflect capped at ``len - 1``, edge values
    beyond that), evaluated as a tap-accumulation sum so each output row
    depends only on its own input row.
    """
    rows = _as_rows(rows)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 1 or kernel.size == 0:
        raise ValueError("kernel must be a non-empty 1-D array")
    half = kernel.size // 2
    count, length = rows.shape
    if length == 0 or count == 0 or half == 0:
        if half == 0 and length > 0 and count > 0:
            return kernel[0] * rows
        return rows.copy()
    reflect_pad = min(half, length - 1)
    if reflect_pad > 0:
        padded = np.pad(rows, ((0, 0), (reflect_pad, reflect_pad)), mode="reflect")
    else:
        padded = rows
    extra = half - reflect_pad
    if extra > 0:
        padded = np.pad(padded, ((0, 0), (extra, extra)), mode="edge")
    # out[:, m] = sum_k kernel[k] * padded[:, m + shift - k]; with the
    # symmetric padding above the kernel always has full support, so no
    # boundary cases remain (shift reproduces np.convolve's "same"
    # alignment for odd and even kernel sizes alike).
    shift = half + (kernel.size - 1) // 2
    out = np.zeros_like(rows)
    for k in range(kernel.size):
        start = shift - k
        out += kernel[k] * padded[:, start : start + length]
    return out


def moving_variance_batch(rows: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window variance (window *ending* at each sample) per row."""
    rows = _as_rows(rows)
    if window < 1:
        raise ValueError("window must be >= 1")
    count, length = rows.shape
    if length == 0 or count == 0:
        return rows.copy()
    zeros = np.zeros((count, 1), dtype=np.float64)
    csum = np.concatenate([zeros, np.cumsum(rows, axis=1)], axis=1)
    csum2 = np.concatenate([zeros, np.cumsum(rows * rows, axis=1)], axis=1)
    idx = np.arange(length)
    lo = np.maximum(idx - window + 1, 0)
    n = idx - lo + 1
    mean = (csum[:, idx + 1] - csum[:, lo]) / n
    mean2 = (csum2[:, idx + 1] - csum2[:, lo]) / n
    return np.maximum(mean2 - mean * mean, 0.0)


def threshold_filter_batch(rows: np.ndarray, cutoff: float) -> np.ndarray:
    """Zero out samples below the cut-off, elementwise per row."""
    rows = _as_rows(rows)
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    return np.where(rows >= cutoff, rows, 0.0)


def moving_rms_batch(rows: np.ndarray, window: int) -> np.ndarray:
    """Sliding root-mean-square over a centered window, per row."""
    rows = _as_rows(rows)
    if window < 1:
        raise ValueError("window must be >= 1")
    count, length = rows.shape
    if length == 0 or count == 0:
        return rows.copy()
    zeros = np.zeros((count, 1), dtype=np.float64)
    csum2 = np.concatenate([zeros, np.cumsum(rows * rows, axis=1)], axis=1)
    half = window // 2
    idx = np.arange(length)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + window - half, length)
    return np.sqrt((csum2[:, hi] - csum2[:, lo]) / (hi - lo))


def find_peaks_batch(
    rows: Sequence[np.ndarray] | np.ndarray,
    min_prominence: float,
) -> list[list[Peak]]:
    """Peak finding mapped over a batch of rows.

    The finder itself is a per-row scan (plateau handling makes it
    control-flow heavy); batching here is for interface symmetry with
    the dense kernels, not vectorization.
    """
    return [find_peaks(np.asarray(row), min_prominence) for row in rows]


def dtw_distance_batch(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
) -> np.ndarray:
    """Exact DTW distances for many ``(x, y)`` pairs in one pass.

    Pairs are grouped by ``(len(x), len(y))`` and each group runs one
    anti-diagonal (wavefront) dynamic program: every cell ``(i, j)`` with
    ``i + j = d`` depends only on diagonals ``d - 1`` and ``d - 2``, so
    diagonal ``d`` is one vector step over ``(group, cells on d)``.  An
    ``n x m`` group takes ``n + m - 1`` Python steps instead of ``n * m``.
    ``abs``/``min``/``add`` are exact in IEEE-754 and each cell takes the
    minimum in the scalar oracle's order, so each pair's distance is
    bit-identical to :func:`~repro.core.dtw.dtw_distance`.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same number of sequences")
    a_list = [_as_row(x) for x in xs]
    b_list = [_as_row(y) for y in ys]
    for a, b in zip(a_list, b_list):
        if a.size == 0 or b.size == 0:
            raise ValueError("dtw inputs must be non-empty")
    out = np.empty(len(a_list), dtype=np.float64)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(zip(a_list, b_list)):
        groups.setdefault((a.size, b.size), []).append(i)
    for (n, m), indices in sorted(groups.items()):
        A = np.stack([a_list[i] for i in indices])
        B_rev = np.stack([b_list[i][::-1] for i in indices])
        out[np.array(indices)] = _dtw_wavefront(A, B_rev)
    return out


def _dtw_wavefront(A: np.ndarray, B_rev: np.ndarray) -> np.ndarray:
    """DTW of each row of ``A`` (``(g, n)``) against ``B_rev``'s reversed rows.

    The buffer of diagonal ``d`` holds, at column ``i`` (``0..n``), cell
    ``(i, d - i)`` of the DP matrix, whose row 0 and column 0 are the
    ``inf`` boundary except ``(0, 0) = 0``.  The cells of diagonal ``d``
    are ``i`` in ``[max(1, d - m), min(n, d - 1)]``, and ``y[d - i - 1]``
    over that range is a contiguous slice of the reversed ``y``.  Three
    buffers rotate; a reused buffer's stale columns are never read,
    except ``(0, 0)``, which is cleared once diagonal 2 has used it.
    """
    count, n = A.shape
    m = B_rev.shape[1]
    older = np.full((count, n + 1), np.inf)  # diagonal d - 2
    older[:, 0] = 0.0
    old = np.full((count, n + 1), np.inf)  # diagonal d - 1
    new = np.full((count, n + 1), np.inf)  # diagonal d
    cost_buf = np.empty((count, min(n, m)))
    best_buf = np.empty((count, min(n, m)))
    for d in range(2, n + m + 1):
        lo = max(1, d - m)
        hi = min(n, d - 1)
        cost = cost_buf[:, : hi - lo + 1]
        best = best_buf[:, : hi - lo + 1]
        np.subtract(A[:, lo - 1 : hi], B_rev[:, m - d + lo : m - d + hi + 1], out=cost)
        np.abs(cost, out=cost)
        # (i-1, j-1), then (i-1, j), then (i, j-1): the scalar oracle's order.
        np.minimum(older[:, lo - 1 : hi], old[:, lo - 1 : hi], out=best)
        np.minimum(best, old[:, lo : hi + 1], out=best)
        np.add(cost, best, out=new[:, lo : hi + 1])
        if d == 2:
            older[:, 0] = np.inf
        older, old, new = old, new, older
    return old[:, n]

"""Property: every ``*_batch`` kernel is bit-identical to a Python loop
of the per-clip functions, across ragged batches (length 0 and 1
included).  This is the contract that lets the engine split a batch into
arbitrary chunks and still produce serial-identical results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    ClipBatch,
    dtw_distance_batch,
    find_peaks_batch,
    group_by_length,
    moving_rms_batch,
    moving_variance_batch,
    reflect_convolve_batch,
    threshold_filter_batch,
)
from repro.core.config import DetectorConfig
from repro.core.dtw import dtw_distance
from repro.core.features import extract_features_batch
from repro.core.peaks import find_peaks
from repro.core.preprocessing import (
    lowpass_filter,
    moving_average,
    moving_rms,
    moving_variance,
    preprocess,
    preprocess_batch,
    savgol_filter,
    threshold_filter,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)

ragged_signals = st.lists(
    st.lists(finite, min_size=0, max_size=40).map(np.array),
    min_size=1,
    max_size=6,
)

nonempty_signals = st.lists(
    st.lists(finite, min_size=1, max_size=30).map(np.array),
    min_size=1,
    max_size=6,
)


def _pad(signals):
    return ClipBatch.from_signals(signals)


class TestClipBatchContainer:
    @given(ragged_signals)
    @settings(max_examples=40, deadline=None)
    def test_rows_round_trip(self, signals):
        batch = ClipBatch.from_signals(signals)
        assert len(batch) == len(signals)
        assert batch.max_length == max((s.size for s in signals), default=0)
        for original, row in zip(signals, batch.rows()):
            assert np.array_equal(np.asarray(original, dtype=np.float64), row)

    @given(ragged_signals)
    @settings(max_examples=40, deadline=None)
    def test_group_by_length_partitions(self, signals):
        batch = ClipBatch.from_signals(signals)
        seen = []
        previous = -1
        for length, indices in group_by_length(batch.lengths):
            assert length > previous  # ascending, no duplicate groups
            previous = length
            for i in indices:
                assert batch.lengths[i] == length
                seen.append(int(i))
        assert sorted(seen) == list(range(len(signals)))


class TestKernelsMatchPerClipLoop:
    @given(ragged_signals, st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_moving_variance(self, signals, window):
        batch = _pad(signals)
        for length, indices in group_by_length(batch.lengths):
            rows = batch.data[indices][:, :length]
            out = moving_variance_batch(rows, window)
            for g, i in enumerate(indices):
                assert np.array_equal(out[g], moving_variance(batch.row(i), window))

    @given(ragged_signals, st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_moving_rms(self, signals, window):
        batch = _pad(signals)
        for length, indices in group_by_length(batch.lengths):
            rows = batch.data[indices][:, :length]
            out = moving_rms_batch(rows, window)
            for g, i in enumerate(indices):
                assert np.array_equal(out[g], moving_rms(batch.row(i), window))

    @given(ragged_signals, st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_threshold(self, signals, cutoff):
        batch = _pad(signals)
        for length, indices in group_by_length(batch.lengths):
            rows = batch.data[indices][:, :length]
            out = threshold_filter_batch(rows, cutoff)
            for g, i in enumerate(indices):
                assert np.array_equal(out[g], threshold_filter(batch.row(i), cutoff))

    @given(ragged_signals, st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_convolution_stages(self, signals, window):
        batch = _pad(signals)
        for length, indices in group_by_length(batch.lengths):
            rows = batch.data[indices][:, :length]
            for g, i in enumerate(indices):
                row = batch.row(i)
                assert np.array_equal(
                    moving_average(row, window),
                    reflect_convolve_batch(
                        rows, np.full(window, 1.0 / window)
                    )[g],
                )
                assert np.array_equal(
                    lowpass_filter(row, 10.0), lowpass_filter(row, 10.0)
                )

    @given(ragged_signals, st.floats(min_value=0.01, max_value=5.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_find_peaks_batch(self, signals, prominence):
        batch = _pad(signals)
        batched = find_peaks_batch(batch.rows(), prominence)
        for row, peaks in zip(batch.rows(), batched):
            assert peaks == find_peaks(row, prominence)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _scalar_dtw(xs, ys):
    return np.array([dtw_distance(x, y) for x, y in zip(xs, ys)])


dtw_pairs = st.lists(
    st.tuples(
        st.lists(finite, min_size=1, max_size=30).map(np.array),
        st.lists(finite, min_size=1, max_size=30).map(np.array),
    ),
    min_size=1,
    max_size=8,
)


class TestDtwBatch:
    @given(nonempty_signals, st.data())
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_scalar(self, xs, data):
        ys = [
            np.array(
                data.draw(
                    st.lists(finite, min_size=1, max_size=30), label=f"y[{i}]"
                )
            )
            for i in range(len(xs))
        ]
        batched = dtw_distance_batch(xs, ys)
        assert np.array_equal(_bits(batched), _bits(_scalar_dtw(xs, ys)))

    @given(dtw_pairs)
    @settings(max_examples=40, deadline=None)
    def test_mixed_shapes_bitwise_and_row_independent(self, pairs):
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        batched = dtw_distance_batch(xs, ys)
        assert np.array_equal(_bits(batched), _bits(_scalar_dtw(xs, ys)))
        singles = [dtw_distance_batch([x], [y])[0] for x, y in pairs]
        assert np.array_equal(_bits(batched), _bits(singles))

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (2, 7), (7, 2), (75, 75), (120, 40), (31, 118)]
    )
    def test_edge_and_long_shapes_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        n, m = shape
        xs = [rng.normal(0.0, 50.0, n) for _ in range(3)]
        ys = [rng.normal(0.0, 50.0, m) for _ in range(3)]
        # Repeated samples exercise ties in the three-way minimum.
        xs.append(np.round(xs[0] / 40.0))
        ys.append(np.round(ys[0] / 40.0))
        batched = dtw_distance_batch(xs, ys)
        assert np.array_equal(_bits(batched), _bits(_scalar_dtw(xs, ys)))

    def test_ragged_call_equals_batches_of_one(self):
        rng = np.random.default_rng(14)
        lengths = [(75, 75), (1, 1), (120, 118), (75, 75), (3, 60), (60, 3), (75, 74)]
        xs = [rng.uniform(0.0, 1.0, n) for n, _ in lengths]
        ys = [rng.uniform(0.0, 1.0, m) for _, m in lengths]
        batched = dtw_distance_batch(xs, ys)
        singles = [dtw_distance_batch([x], [y])[0] for x, y in zip(xs, ys)]
        assert np.array_equal(_bits(batched), _bits(singles))
        assert np.array_equal(_bits(batched), _bits(_scalar_dtw(xs, ys)))

    def test_rejects_empty_sequences(self):
        with pytest.raises(ValueError):
            dtw_distance_batch([np.array([1.0])], [np.array([])])
        with pytest.raises(ValueError):
            dtw_distance_batch([np.array([1.0]), np.array([2.0])], [np.array([1.0])])


class TestPreprocessBatch:
    @given(ragged_signals)
    @settings(max_examples=20, deadline=None)
    def test_bitwise_equal_to_per_clip_loop(self, signals):
        config = DetectorConfig()
        batched = preprocess_batch(signals, config, config.peak_prominence_face)
        assert len(batched) == len(signals)
        for signal, got in zip(signals, batched):
            want = preprocess(signal, config, config.peak_prominence_face)
            for field in (
                "raw",
                "lowpassed",
                "variance",
                "thresholded",
                "rms",
                "savgol",
                "smoothed",
            ):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            assert got.peaks == want.peaks

    def test_savgol_stage_is_row_independent(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.0, 4.0, size=(6, 64))
        full = np.stack([savgol_filter(row) for row in rows])
        assert np.array_equal(
            full, np.stack([savgol_filter(rows[i]) for i in range(6)])
        )


class TestExtractFeaturesBatchIdentity:
    def test_ragged_batch_equals_singletons(self):
        rng = np.random.default_rng(11)
        pairs = []
        for length in (150, 1, 120, 150, 40):
            t_lum = rng.uniform(80.0, 140.0, length)
            r_lum = rng.uniform(0.2, 0.9, length)
            pairs.append((t_lum, r_lum))
        config = DetectorConfig()
        batched = extract_features_batch(pairs, config)
        for pair, got in zip(pairs, batched):
            want = extract_features_batch([pair], config)[0]
            assert got.features == want.features
            assert got.delay_s == want.delay_s
            assert got.matches == want.matches

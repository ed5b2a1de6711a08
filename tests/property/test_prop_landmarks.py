"""Property: the landmark detector's order-statistic fit is bit-identical
to the ``nonzero`` + ``np.percentile`` fit it replaces.

``_count_percentiles`` is checked against ``np.percentile`` over the
mask's pixel coordinates, and ``LandmarkDetector.detect`` against a
reference copy of the percentile-based algorithm, run as a sequence on
one detector so the jitter RNG stream is compared too."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camera.sensor import ImageSensor
from repro.vision.expression import PoseState
from repro.vision.face_model import LANDMARK_LAYOUT, make_face
from repro.vision.landmarks import LandmarkDetector, _count_percentiles
from repro.vision.renderer import FaceRenderer

PERCENTS = (2.0, 98.0, 99.0)


@st.composite
def masks(draw):
    height = draw(st.integers(1, 120))
    width = draw(st.integers(1, 160))
    layout = draw(st.sampled_from(["random", "sparse", "row", "column", "single", "full"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = np.zeros((height, width), dtype=bool)
    if layout == "full":
        mask[:] = True
    elif layout == "single":
        mask[rng.integers(height), rng.integers(width)] = True
    elif layout == "sparse":
        pixels = draw(st.integers(2, 60))
        mask[rng.integers(height, size=pixels), rng.integers(width, size=pixels)] = True
    elif layout == "row":
        mask[rng.integers(height)] = rng.random(width) < draw(st.floats(0.05, 1.0))
    elif layout == "column":
        mask[:, rng.integers(width)] = rng.random(height) < draw(st.floats(0.05, 1.0))
    else:
        mask = rng.random((height, width)) < draw(st.floats(0.001, 1.0))
    if not mask.any():
        mask[rng.integers(height), rng.integers(width)] = True
    return mask


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestCountPercentiles:
    @given(masks())
    @settings(max_examples=150, deadline=None)
    def test_equals_percentile_of_mask_coordinates(self, mask):
        ys, xs = np.nonzero(mask)
        for axis, coords in ((0, xs), (1, ys)):
            counts = mask.sum(axis=axis)
            for q in PERCENTS:
                got = _count_percentiles(counts, (q,))
                assert np.array_equal(_bits(got), _bits([np.percentile(coords, q)]))
            pair = _count_percentiles(counts, (2.0, 98.0))
            assert np.array_equal(_bits(pair), _bits(np.percentile(coords, [2.0, 98.0])))

    # Two-valued samples where interpolating up from the lower neighbour
    # and down from the upper one round differently, so only numpy's own
    # branch choice (``gamma >= 0.5``) reproduces its bits.
    @pytest.mark.parametrize(
        "placed, q",
        [
            ({6: 1, 9: 1}, 99.0),
            ({1: 3, 18: 1}, 98.0),
            ({0: 1, 7: 34}, 2.0),
            ({2: 1, 5: 44}, 2.0),
        ],
    )
    def test_upper_neighbour_branch(self, placed, q):
        counts = np.zeros(20, dtype=np.int64)
        for index, count in placed.items():
            counts[index] = count
        coords = np.repeat(np.arange(counts.size), counts)
        got = _count_percentiles(counts, (q,))
        assert np.array_equal(_bits(got), _bits([np.percentile(coords, q)]))


def _reference_detect(detector, pixels):
    """The percentile-based detector the order-statistic fit replaced."""
    pixels = np.asarray(pixels, dtype=np.float64)
    total = pixels.sum(axis=2)
    bright = total > 45.0
    safe_total = np.where(total > 1e-9, total, 1.0)
    mask = bright & (pixels[:, :, 0] / safe_total > 0.355) & (pixels[:, :, 2] / safe_total < 0.32)
    height, width = mask.shape
    if int(mask.sum()) < detector.min_face_fraction * height * width:
        return None
    ys, xs = np.nonzero(mask)
    x_lo, x_hi = np.percentile(xs, [2.0, 98.0])
    half_width = max((x_hi - x_lo) / 2.0, 2.0)
    center_x = (x_lo + x_hi) / 2.0
    center_y = float(np.percentile(ys, 99.0)) - half_width * detector.assumed_aspect
    half_height = half_width * detector.assumed_aspect
    sigma = detector.jitter_fraction * half_width
    points = []
    for name in ("nasal_bridge", "nasal_tip", "left_eye", "right_eye", "mouth"):
        for u, v in LANDMARK_LAYOUT[name]:
            jx = float(detector._rng.normal(0.0, sigma))
            jy = float(detector._rng.normal(0.0, sigma))
            points.append((center_x + u * half_width + jx, center_y + v * half_height + jy))
    return points


def _points(landmarks):
    if landmarks is None:
        return None
    every = (
        landmarks.nasal_bridge
        + landmarks.nasal_tip
        + (landmarks.left_eye, landmarks.right_eye, landmarks.mouth)
    )
    return [(p.x, p.y) for p in every]


def _frames():
    rng = np.random.default_rng(14)
    renderer = FaceRenderer(make_face("prop", tone="medium"), 61, 83, seed=2)
    sensor = ImageSensor(rng=np.random.default_rng(1))
    frames = []
    for k in range(12):
        pose = PoseState(
            center_x=float(rng.uniform(0.2, 0.8)),
            center_y=float(rng.uniform(0.3, 0.7)),
            scale=float(rng.uniform(0.1, 0.4)),
            roll=float(rng.uniform(-0.3, 0.3)),
            blink=0.0,
            mouth_open=0.0,
        )
        radiance = renderer.render(pose, 120.0, ambient_lux=120.0).radiance
        pixels = sensor.expose(radiance, exposure=1.0 / 250.0)
        frames.append(pixels)
        frames.append(np.clip(pixels + rng.normal(0.0, 12.0, pixels.shape), 0, 255))
        frames.append(np.round(pixels).clip(0, 255).astype(np.uint8))
        if k % 4 == 0:
            frames.append(pixels[: 1 + k, : 7 + 3 * k])
    frames.append(rng.uniform(0.0, 255.0, (37, 53, 3)))
    frames.append(np.zeros((16, 16, 3)))
    return frames


class TestDetectMatchesReference:
    @pytest.mark.parametrize("jitter", [0.0, 0.02])
    def test_sequence_is_bit_identical(self, jitter):
        fast = LandmarkDetector(jitter_fraction=jitter, min_face_fraction=0.002, seed=9)
        slow = LandmarkDetector(jitter_fraction=jitter, min_face_fraction=0.002, seed=9)
        hits = 0
        for pixels in _frames():
            got = _points(fast.detect(pixels))
            want = _reference_detect(slow, pixels)
            assert (got is None) == (want is None)
            if got is not None:
                hits += 1
                assert np.array_equal(_bits(got), _bits(want))
            assert np.array_equal(fast.skin_mask(pixels), slow.skin_mask(pixels))
        assert hits >= 30

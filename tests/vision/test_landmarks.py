"""Landmark detector: accuracy against rendered ground truth."""

import warnings

import numpy as np
import pytest

from repro.camera.sensor import ImageSensor
from repro.vision.expression import PoseState
from repro.vision.face_model import make_face
from repro.vision.landmarks import FaceLandmarks, LandmarkDetector, mean_landmark_error
from repro.vision.geometry import Point
from repro.vision.renderer import FaceRenderer


def _frame_pixels(renderer, pose, illum=120.0):
    result = renderer.render(pose, illum, ambient_lux=illum)
    sensor = ImageSensor(rng=None)  # noiseless for exactness
    pixels = sensor.expose(result.radiance, exposure=1.0 / 250.0)
    return pixels, result


def _pose(**kwargs):
    defaults = dict(center_x=0.5, center_y=0.48, scale=0.3, roll=0.0, blink=0.0, mouth_open=0.0)
    defaults.update(kwargs)
    return PoseState(**defaults)


class TestDetection:
    @pytest.mark.parametrize("tone", ["light", "medium", "dark"])
    def test_detects_every_skin_tone(self, tone):
        face = make_face(tone, tone=tone)
        renderer = FaceRenderer(face, 96, 96, seed=2)
        pixels, _ = _frame_pixels(renderer, _pose())
        detector = LandmarkDetector(jitter_fraction=0.0)
        assert detector.detect(pixels) is not None

    def test_accuracy_within_tolerance(self, renderer, neutral_pose):
        pixels, result = _frame_pixels(renderer, neutral_pose)
        detector = LandmarkDetector(jitter_fraction=0.0)
        landmarks = detector.detect(pixels)
        assert landmarks is not None
        error = mean_landmark_error(landmarks, result.landmarks)
        # Within ~15% of the face half-width.
        assert error < 0.15 * neutral_pose.scale * 72 * 1.5

    def test_tracks_face_translation(self, renderer):
        detector = LandmarkDetector(jitter_fraction=0.0)
        pixels_l, _ = _frame_pixels(renderer, _pose(center_x=0.42))
        pixels_r, _ = _frame_pixels(renderer, _pose(center_x=0.58))
        left = detector.detect(pixels_l)
        right = detector.detect(pixels_r)
        assert right.lower_bridge.x - left.lower_bridge.x > 0.1 * 72

    def test_no_face_returns_none(self):
        rng = np.random.default_rng(0)
        gray = np.full((64, 64, 3), 90.0) + rng.normal(0, 2, (64, 64, 3))
        assert LandmarkDetector().detect(gray) is None

    def test_dark_frame_returns_none(self):
        assert LandmarkDetector().detect(np.zeros((64, 64, 3))) is None

    @pytest.mark.parametrize("shape", [(0, 0, 3), (0, 12, 3), (12, 0, 3)])
    def test_zero_size_frame_returns_none(self, shape):
        assert LandmarkDetector().detect(np.zeros(shape)) is None

    def test_non_finite_pixels_raise_no_warning(self, renderer, neutral_pose):
        pixels, _ = _frame_pixels(renderer, neutral_pose)
        poisoned = [pixels.copy() for _ in range(4)]
        poisoned[0][:10] = np.inf
        poisoned[1][:10] = -np.inf
        poisoned[2][:10] = np.nan
        poisoned[3][:10, :, 0] = np.inf
        poisoned[3][:10, :, 2] = -np.inf
        detector = LandmarkDetector(jitter_fraction=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for frame in poisoned:
                mask = detector.skin_mask(frame)
                assert not mask[:10].any()
                assert detector.detect(frame) is not None
            assert detector.detect(np.full((8, 8, 3), np.inf)) is None

    def test_face_out_of_frame_returns_none(self, renderer):
        pixels, _ = _frame_pixels(renderer, _pose(center_x=-0.6, center_y=-0.6))
        assert LandmarkDetector().detect(pixels) is None


class TestJitterModel:
    def test_jitter_varies_between_calls(self, renderer, neutral_pose):
        pixels, _ = _frame_pixels(renderer, neutral_pose)
        detector = LandmarkDetector(jitter_fraction=0.05, seed=1)
        a = detector.detect(pixels)
        b = detector.detect(pixels)
        assert a.lower_bridge != b.lower_bridge

    def test_zero_jitter_is_deterministic(self, renderer, neutral_pose):
        pixels, _ = _frame_pixels(renderer, neutral_pose)
        detector = LandmarkDetector(jitter_fraction=0.0)
        a = detector.detect(pixels)
        b = detector.detect(pixels)
        assert a.lower_bridge == b.lower_bridge


class TestFaceLandmarksType:
    def test_shape_validation(self):
        p = Point(0, 0)
        with pytest.raises(ValueError):
            FaceLandmarks(nasal_bridge=(p,), nasal_tip=(p,) * 5, left_eye=p, right_eye=p, mouth=p)
        with pytest.raises(ValueError):
            FaceLandmarks(nasal_bridge=(p,) * 4, nasal_tip=(p,) * 3, left_eye=p, right_eye=p, mouth=p)

    def test_nose_tip_center_is_mean(self):
        tips = tuple(Point(float(x), 10.0) for x in range(5))
        lm = FaceLandmarks(
            nasal_bridge=(Point(2, 5),) * 4,
            nasal_tip=tips,
            left_eye=Point(0, 0),
            right_eye=Point(4, 0),
            mouth=Point(2, 15),
        )
        assert lm.nose_tip_center.x == pytest.approx(2.0)
        assert lm.nose_tip_center.y == pytest.approx(10.0)

    def test_mean_error_requires_overlap(self):
        p = Point(0, 0)
        lm = FaceLandmarks(
            nasal_bridge=(p,) * 4, nasal_tip=(p,) * 5, left_eye=p, right_eye=p, mouth=p
        )
        with pytest.raises(ValueError):
            mean_landmark_error(lm, {"unknown_group": [p]})


class TestSkinMask:
    def test_mask_concentrated_on_face(self, renderer, neutral_pose):
        pixels, result = _frame_pixels(renderer, neutral_pose)
        detector = LandmarkDetector()
        mask = detector.skin_mask(pixels)
        nose = result.landmarks["nasal_bridge"][-1]
        assert mask[int(nose.y), int(nose.x)]
        assert not mask[2, 2]  # background corner

    def test_mask_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            LandmarkDetector().skin_mask(np.zeros((5, 5)))

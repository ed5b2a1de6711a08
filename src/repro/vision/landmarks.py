"""Facial landmark detection over rendered frames.

Stand-in for the facial-recognition API the paper uses (its ref. [19],
dlib under the hood): given a display-referred RGB frame, report the four
nasal-bridge points and five nasal-tip points of Fig. 5 (plus eyes and
mouth), or ``None`` when no face is found.

The detector is a genuine pixel-level algorithm, not a metadata lookup:

1. **Skin segmentation** — skin chromaticity (red-dominant, blue-poor) is
   illumination-invariant under the Von Kries model, so thresholding the
   r/b chromaticities finds skin regardless of screen/ambient level.
2. **Ellipse fit** — face width from robust x-percentiles of the skin
   mask, vertical anchor on the chin (the hairline is unreliable), a
   population-prior aspect ratio for face height.  The percentiles are
   order statistics read off the mask's column and row counts
   (``cumsum`` + ``searchsorted``), equal bit for bit to
   ``np.percentile`` over the mask pixels' coordinates but without
   materializing them.
3. **Landmark regression** — the canonical layout mapped through the
   fitted ellipse, with a small seeded jitter modelling the residual
   error real landmark detectors exhibit frame to frame.

Failure modes mirror the real API: too-dark frames, heavy occlusion or
the face leaving the frame produce ``None`` (the luminance extractor
must cope, Sec. IV).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .face_model import LANDMARK_LAYOUT
from .geometry import Point

__all__ = ["FaceLandmarks", "LandmarkDetector", "mean_landmark_error"]


@dataclasses.dataclass(frozen=True)
class FaceLandmarks:
    """The landmark set the paper's pipeline consumes (Fig. 5)."""

    nasal_bridge: tuple[Point, ...]
    nasal_tip: tuple[Point, ...]
    left_eye: Point
    right_eye: Point
    mouth: Point

    def __post_init__(self) -> None:
        if len(self.nasal_bridge) != 4:
            raise ValueError("nasal_bridge must contain 4 points")
        if len(self.nasal_tip) != 5:
            raise ValueError("nasal_tip must contain 5 points")

    @property
    def lower_bridge(self) -> Point:
        """The lowest nasal-bridge point — the ROI anchor ``(a1, b1)``."""
        return self.nasal_bridge[-1]

    @property
    def nose_tip_center(self) -> Point:
        """Center of the nasal-tip arc — the ROI sizing point ``(a2, b2)``."""
        xs = [p.x for p in self.nasal_tip]
        ys = [p.y for p in self.nasal_tip]
        return Point(sum(xs) / len(xs), sum(ys) / len(ys))

    def as_dict(self) -> dict[str, list[Point]]:
        """Same structure as the renderer's ground-truth dictionary."""
        return {
            "nasal_bridge": list(self.nasal_bridge),
            "nasal_tip": list(self.nasal_tip),
            "left_eye": [self.left_eye],
            "right_eye": [self.right_eye],
            "mouth": [self.mouth],
        }


class LandmarkDetector:
    """Skin-segmentation landmark detector.

    Parameters
    ----------
    jitter_fraction:
        Standard deviation of per-landmark jitter as a fraction of the
        estimated face half-width (residual model error).
    min_face_fraction:
        Minimum fraction of frame pixels that must be skin for a
        detection to be reported.
    assumed_aspect:
        Population-prior face height/width ratio used by the regression.
    seed:
        Seed of the jitter generator (detections are deterministic for a
        fixed frame sequence).
    """

    def __init__(
        self,
        jitter_fraction: float = 0.02,
        min_face_fraction: float = 0.015,
        assumed_aspect: float = 1.32,
        seed: int = 0,
    ) -> None:
        if jitter_fraction < 0:
            raise ValueError("jitter_fraction must be non-negative")
        if not 0 < min_face_fraction < 1:
            raise ValueError("min_face_fraction must lie in (0, 1)")
        if assumed_aspect <= 0:
            raise ValueError("assumed_aspect must be positive")
        self.jitter_fraction = jitter_fraction
        self.min_face_fraction = min_face_fraction
        self.assumed_aspect = assumed_aspect
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """Rewind the jitter generator to its initial seeded state.

        The generator advances with every detection, so a detector that
        served one call is *not* bit-identical to a fresh one.  Session
        recycling (``StreamingVerifier.reset``) calls this so a reused
        detector replays exactly the jitter sequence a new instance
        would produce.
        """
        self._rng = np.random.default_rng(self.seed)

    def skin_mask(self, pixels: np.ndarray) -> np.ndarray:
        """Boolean skin mask from illumination-invariant chromaticity."""
        pixels = np.asarray(pixels, dtype=np.float64)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValueError("pixels must have shape (h, w, 3)")
        red, blue = pixels[:, :, 0], pixels[:, :, 2]
        # Non-finite or non-positive totals give inf/NaN ratios, but
        # ``total > 45`` is False at every such pixel (NaN compares False).
        with np.errstate(divide="ignore", invalid="ignore"):
            total = red + pixels[:, :, 1] + blue
            r = red / total
            b = blue / total
        return (total > 45.0) & (r > 0.355) & (b < 0.32)

    def detect(self, pixels: np.ndarray) -> FaceLandmarks | None:
        """Detect landmarks in one frame; ``None`` when no face is found."""
        mask = self.skin_mask(pixels)
        height, width = mask.shape
        column_counts = mask.sum(axis=0)
        count = int(column_counts.sum())
        if count == 0 or count < self.min_face_fraction * height * width:
            return None

        x_lo, x_hi = _count_percentiles(column_counts, (2.0, 98.0))
        half_width = max((x_hi - x_lo) / 2.0, 2.0)
        center_x = (x_lo + x_hi) / 2.0
        (chin_y,) = _count_percentiles(mask.sum(axis=1), (99.0,))
        half_height = half_width * self.assumed_aspect
        center_y = chin_y - half_height

        jitter_sigma = self.jitter_fraction * half_width

        def _map(u: float, v: float) -> Point:
            jx = float(self._rng.normal(0.0, jitter_sigma))
            jy = float(self._rng.normal(0.0, jitter_sigma))
            return Point(center_x + u * half_width + jx, center_y + v * half_height + jy)

        bridge = tuple(_map(u, v) for u, v in LANDMARK_LAYOUT["nasal_bridge"])
        tip = tuple(_map(u, v) for u, v in LANDMARK_LAYOUT["nasal_tip"])
        return FaceLandmarks(
            nasal_bridge=bridge,
            nasal_tip=tip,
            left_eye=_map(*LANDMARK_LAYOUT["left_eye"][0]),
            right_eye=_map(*LANDMARK_LAYOUT["right_eye"][0]),
            mouth=_map(*LANDMARK_LAYOUT["mouth"][0]),
        )


def _count_percentiles(counts: np.ndarray, percents: tuple[float, ...]) -> list[float]:
    """Linear-method percentiles of index ``k`` repeated ``counts[k]`` times.

    Equal bit for bit to ``np.percentile(np.nonzero(mask)[axis], percents)``
    when ``counts`` is the mask summed over the other axis: the ``r``-th
    smallest coordinate is the first index whose running count exceeds
    ``r``.  The arithmetic is numpy's ``linear`` method step for step —
    virtual index ``(n - 1) * q``, its floor, the clamp to the maximum
    when the index reaches ``n - 1``, and ``_lerp``'s switch to
    interpolating down from the upper neighbour when the fraction is at
    least one half.  ``counts`` must sum to at least one.
    """
    running = np.cumsum(counts)
    last = int(running[-1]) - 1
    virtuals = [last * (p / 100.0) for p in percents]
    # Both neighbours are the maximum once the virtual index reaches n - 1.
    ranks = [(last, last) if v >= last else (math.floor(v), math.floor(v) + 1) for v in virtuals]
    values = np.searchsorted(running, [r for pair in ranks for r in pair], side="right")
    out = []
    for virtual, (rank, _), below, above in zip(
        virtuals, ranks, values[0::2].tolist(), values[1::2].tolist()
    ):
        gamma = virtual - rank
        diff = float(above - below)
        out.append(above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma)
    return out


def mean_landmark_error(detected: FaceLandmarks, truth: dict[str, list[Point]]) -> float:
    """Mean Euclidean error (pixels) between a detection and ground truth.

    Test/benchmark helper: quantifies the jitter the ROI extraction must
    absorb, one of the noise sources the paper's preprocessing targets.
    """
    errors: list[float] = []
    detected_dict = detected.as_dict()
    for name, truth_points in truth.items():
        if name not in detected_dict:
            continue
        for det_point, truth_point in zip(detected_dict[name], truth_points):
            errors.append(det_point.distance_to(truth_point))
    if not errors:
        raise ValueError("no comparable landmarks between detection and truth")
    return float(np.mean(errors))

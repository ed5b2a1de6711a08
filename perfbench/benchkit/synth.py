"""Seeded input synthesis: luminance clips, call plans and frames.

Everything here is a pure function of the generator it is handed, so a
workload's inputs are a pure function of ``--seed``.  The program only
ever sees the generated arrays and frames.

A genuine clip carries two screen-light challenges (a drop and a rise
of 50 units) and a received nasal-bridge signal that echoes them
0.2-0.5 s later, attenuated, plus sensor noise; an attack clip carries
the same challenges but a received signal that never echoes them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.video.frame import Frame

__all__ = ["CallPlan", "FramePainter", "clip_pair", "dropout_mask"]

#: Skin-tone unit color: red-dominant and blue-poor, so the landmark
#: detector's chromaticity gate accepts it at any brightness.
SKIN_COLOR = np.array([0.55, 0.45, 0.25])
_BT709 = np.array([0.2126, 0.7152, 0.0722])
SKIN_LUMA = float(_BT709 @ SKIN_COLOR)


def clip_pair(
    rng: np.random.Generator, length: int, attack: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One ``(transmitted, received)`` luminance pair of ``length`` samples."""
    t = np.full(length, 180.0)
    i1 = int(rng.integers(length // 6, length // 3))
    i2 = int(rng.integers(int(length * 0.55), int(length * 0.8)))
    t[i1:] -= 50.0
    t[i2:] += 50.0
    if attack:
        return t, 120.0 + rng.normal(0.0, 2.0, length)
    delay = int(rng.integers(2, 6))
    delayed = np.concatenate([np.full(delay, t[0]), t[:-delay]])
    return t, 120.0 + 0.3 * delayed + rng.normal(0.0, 0.4, length)


def dropout_mask(rng: np.random.Generator, ticks: int) -> np.ndarray:
    """Landmark-dropout ticks of a chaotic call: bursts start with
    probability 0.02 per tick and last about a second (10 ticks)."""
    mask = np.zeros(ticks, dtype=bool)
    k = 0
    while k < ticks:
        if rng.random() < 0.02:
            span = 1 + int(rng.geometric(0.1))
            mask[k : k + span] = True
            k += span
        else:
            k += 1
    return mask


@dataclasses.dataclass(frozen=True)
class CallPlan:
    """One live call of the streaming workload, as arrays."""

    role: str  # "genuine" | "attack"
    start_tick: int  # global tick of the call's first frame
    transmitted: np.ndarray  # luminance per tick
    received: np.ndarray  # ROI luminance per tick
    dropout: np.ndarray  # bool per tick: the face is missing

    @property
    def ticks(self) -> int:
        return int(self.transmitted.size)


class FramePainter:
    """Lifts signal values to pixels, one frame at a time.

    The transmitted frame is a flat gray raster whose mean luminance is
    the signal value.  The received frame is a dark raster holding a
    skin-colored ellipse whose brightness makes the nasal-bridge ROI
    read the intended luminance; a dropout frame has no face at all.
    """

    def __init__(self, height: int, width: int) -> None:
        self.height = height
        self.width = width
        yy, xx = np.mgrid[0:height, 0:width]
        cy, cx = height * 0.5, width * 0.5
        ry, rx = height * 0.42, width * 0.3
        face = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        # Unit-luminance face raster: scaling it sets the ROI luminance.
        self._unit_face = face[:, :, None] * (SKIN_COLOR / SKIN_LUMA)

    def transmitted(self, value: float, t: float) -> Frame:
        pixels = np.full((self.height, self.width, 3), float(value))
        return Frame(pixels=pixels, timestamp=t)

    def received(self, luminance: float, t: float, face: bool = True) -> Frame:
        if face:
            pixels = self._unit_face * max(luminance, 1.0)
        else:
            pixels = np.zeros((self.height, self.width, 3))
        return Frame(pixels=pixels, timestamp=t)

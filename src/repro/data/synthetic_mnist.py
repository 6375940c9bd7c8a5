"""Synthetic MNIST: a procedural handwritten-digit dataset.

The real MNIST files are not available offline, so we generate a stand-in
with the properties the paper's MNIST experiments rely on:

* 10 balanced classes of 28x28 grayscale images;
* within-class variation (translation, rotation, stroke thickness, elastic
  jitter, pixel noise) so that deeper MLPs achieve measurably higher
  accuracy than shallower ones;
* classes that are visually confusable in a structured way (shared glyph
  segments), so predictive entropy is informative.

Digits are rendered from 7x5 bitmap glyphs, upscaled, then randomly
perturbed per sample.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset

__all__ = ["synthetic_mnist", "render_digit", "DIGIT_GLYPHS"]

# 7 rows x 5 cols seed glyphs for digits 0-9 ('#' = ink).
_GLYPH_STRINGS = {
    0: [" ### ", "#   #", "#   #", "#   #", "#   #", "#   #", " ### "],
    1: ["  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "],
    2: [" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"],
    3: [" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "],
    4: ["   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "],
    5: ["#####", "#    ", "#    ", "#### ", "    #", "#   #", " ### "],
    6: [" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "],
    7: ["#####", "    #", "   # ", "  #  ", "  #  ", " #   ", " #   "],
    8: [" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "],
    9: [" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "],
}


def _glyph_bitmap(digit: int) -> np.ndarray:
    rows = _GLYPH_STRINGS[digit]
    return np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows])


DIGIT_GLYPHS = {d: _glyph_bitmap(d) for d in range(10)}


def render_digit(digit: int, rng: np.random.Generator,
                 image_size: int = 28) -> np.ndarray:
    """Render one randomly-perturbed digit image in [0, 1].

    Pipeline: upscale the 7x5 glyph, random stroke thickness (grey dilation),
    random rotation / shear-like elastic jitter, random translation, blur and
    additive noise — a cheap approximation of handwriting variability.
    """
    from scipy import ndimage  # data generation only; serving never loads it
    if digit not in DIGIT_GLYPHS:
        raise ValueError(f"digit must be 0-9, got {digit}")
    glyph = DIGIT_GLYPHS[digit]
    # Upscale the glyph into roughly the central 20x20 region (as in MNIST).
    scale_y = rng.uniform(2.3, 2.9)
    scale_x = rng.uniform(2.8, 3.6)
    big = ndimage.zoom(glyph, (scale_y, scale_x), order=1)
    big = np.clip(big, 0.0, 1.0)
    # Random stroke thickness.
    if rng.random() < 0.5:
        big = ndimage.grey_dilation(big, size=(2, 2))
    # Rotation.
    angle = rng.uniform(-12.0, 12.0)
    big = ndimage.rotate(big, angle, reshape=False, order=1, mode="constant")
    # Elastic jitter: displace rows/cols by a smooth random field.
    jitter = rng.uniform(0.5, 1.5)
    dy = ndimage.gaussian_filter(rng.standard_normal(big.shape), 3) * jitter
    dx = ndimage.gaussian_filter(rng.standard_normal(big.shape), 3) * jitter
    yy, xx = np.meshgrid(np.arange(big.shape[0]), np.arange(big.shape[1]),
                         indexing="ij")
    big = ndimage.map_coordinates(big, [yy + dy, xx + dx], order=1,
                                  mode="constant")
    # Paste into the 28x28 canvas with a random offset.
    canvas = np.zeros((image_size, image_size))
    max_y = image_size - big.shape[0]
    max_x = image_size - big.shape[1]
    off_y = rng.integers(max(1, max_y // 2 - 3), max(2, max_y // 2 + 4))
    off_x = rng.integers(max(1, max_x // 2 - 3), max(2, max_x // 2 + 4))
    off_y = int(np.clip(off_y, 0, max(0, max_y)))
    off_x = int(np.clip(off_x, 0, max(0, max_x)))
    h = min(big.shape[0], image_size - off_y)
    w = min(big.shape[1], image_size - off_x)
    canvas[off_y:off_y + h, off_x:off_x + w] = big[:h, :w]
    # Ink intensity variation, blur, noise.
    canvas *= rng.uniform(0.75, 1.0)
    canvas = ndimage.gaussian_filter(canvas, rng.uniform(0.4, 0.8))
    canvas += rng.normal(0.0, 0.03, canvas.shape)
    return np.clip(canvas, 0.0, 1.0)


def synthetic_mnist(num_samples: int = 2000, seed: int = 0,
                    image_size: int = 28,
                    rng: np.random.Generator | None = None) -> Dataset:
    """Generate a balanced synthetic-MNIST dataset of ``num_samples`` images.

    Samples are generated class-round-robin so every prefix of the dataset is
    (nearly) balanced, satisfying the paper's balanced-data assumption.

    All randomness flows through one ``Generator``: pass ``rng`` to
    compose with a caller-owned stream, or ``seed`` to own a fresh one
    (``rng`` wins when both are given).
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    images = np.empty((num_samples, 1, image_size, image_size))
    labels = np.empty(num_samples, dtype=np.int64)
    for i in range(num_samples):
        digit = i % 10
        images[i, 0] = render_digit(digit, rng, image_size)
        labels[i] = digit
    perm = rng.permutation(num_samples)
    return Dataset(images[perm], labels[perm],
                   class_names=tuple(str(d) for d in range(10)),
                   name="synthetic-mnist")

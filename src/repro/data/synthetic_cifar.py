"""Synthetic CIFAR-10: a procedural 10-class colour-image dataset.

The real CIFAR-10 archive is not available offline.  This stand-in keeps the
two properties the paper's CIFAR experiments depend on:

* 10 balanced classes grouped into the two superclasses the specialization
  experiment (Figure 9) observes: **machines** (airplane, automobile, ship,
  truck) share rectilinear silhouettes, smooth surfaces and sky/road
  backgrounds, while **animals** (bird, cat, deer, dog, frog, horse) share
  organic blob silhouettes, high-frequency "fur" texture and natural
  backgrounds;
* enough intra-class variation that deeper Shake-Shake CNNs outperform
  shallower ones.

Every class has a dedicated generator that draws a parameterized object on
a superclass-specific background.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset

__all__ = ["synthetic_cifar", "CIFAR_CLASSES", "MACHINE_CLASSES",
           "ANIMAL_CLASSES", "render_cifar_image"]

CIFAR_CLASSES = ("airplane", "automobile", "bird", "cat", "deer",
                 "dog", "frog", "horse", "ship", "truck")
MACHINE_CLASSES = ("airplane", "automobile", "ship", "truck")
ANIMAL_CLASSES = ("bird", "cat", "deer", "dog", "frog", "horse")

_SIZE = 32


def _gaussian_filter(image: np.ndarray, sigma) -> np.ndarray:
    # scipy is imported here, not at module scope, so that importing
    # ``repro.data`` (as the serving path does) never loads it.
    from scipy import ndimage
    return ndimage.gaussian_filter(image, sigma)


def _coords():
    yy, xx = np.meshgrid(np.arange(_SIZE), np.arange(_SIZE), indexing="ij")
    return yy, xx


def _vertical_gradient(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    t = np.linspace(0.0, 1.0, _SIZE)[:, None, None]
    column = (1 - t) * top[None, None, :] + t * bottom[None, None, :]
    return np.broadcast_to(column, (_SIZE, _SIZE, 3)).copy()


def _sky_background(rng) -> np.ndarray:
    top = np.array([0.35, 0.55, 0.85]) + rng.normal(0, 0.05, 3)
    bottom = np.array([0.7, 0.8, 0.95]) + rng.normal(0, 0.05, 3)
    return _vertical_gradient(np.clip(top, 0, 1), np.clip(bottom, 0, 1))


def _nature_background(rng) -> np.ndarray:
    top = np.array([0.45, 0.6, 0.45]) + rng.normal(0, 0.06, 3)
    bottom = np.array([0.3, 0.45, 0.2]) + rng.normal(0, 0.06, 3)
    img = _vertical_gradient(np.clip(top, 0, 1), np.clip(bottom, 0, 1))
    # Leafy high-frequency mottling.
    noise = _gaussian_filter(rng.standard_normal((_SIZE, _SIZE)), 1.2)
    return np.clip(img + 0.08 * noise[:, :, None], 0, 1)


def _rect_mask(cy, cx, h, w, angle_deg, rng) -> np.ndarray:
    yy, xx = _coords()
    theta = np.deg2rad(angle_deg)
    ry = (yy - cy) * np.cos(theta) - (xx - cx) * np.sin(theta)
    rx = (yy - cy) * np.sin(theta) + (xx - cx) * np.cos(theta)
    return (np.abs(ry) <= h / 2) & (np.abs(rx) <= w / 2)


def _ellipse_mask(cy, cx, ry, rx, wobble: float,
                  rng: np.random.Generator) -> np.ndarray:
    yy, xx = _coords()
    field = ((yy - cy) / max(ry, 1e-6))**2 + ((xx - cx) / max(rx, 1e-6))**2
    if wobble > 0:
        bump = _gaussian_filter(rng.standard_normal((_SIZE, _SIZE)), 3)
        field = field + wobble * bump
    return field <= 1.0


def _paint(img, mask, color, shade: float = 0.0):
    color = np.asarray(color, dtype=float)
    if shade > 0:
        t = np.linspace(1.0, 1.0 - shade, _SIZE)[:, None]
        img[mask] = np.clip(color[None, :] * t[np.nonzero(mask)[0], :], 0, 1)
    else:
        img[mask] = np.clip(color, 0, 1)


def _fur(img, mask, rng, strength: float = 0.12):
    """High-frequency texture shared by all animal classes."""
    noise = rng.standard_normal((_SIZE, _SIZE))
    noise = _gaussian_filter(noise, 0.6)
    img[mask] = np.clip(img[mask] + strength * noise[mask, None], 0, 1)


def _metal_sheen(img, mask, rng, strength: float = 0.15):
    """Smooth vertical sheen shared by all machine classes."""
    yy, _ = _coords()
    sheen = np.sin(yy / _SIZE * np.pi * rng.uniform(1.0, 2.0))
    img[mask] = np.clip(img[mask] + strength * sheen[mask, None], 0, 1)


# --------------------------------------------------------------------------
# Machine classes
# --------------------------------------------------------------------------
def _draw_airplane(img, rng):
    cy = rng.uniform(12, 18)
    cx = rng.uniform(13, 19)
    body_color = np.array([0.85, 0.86, 0.9]) + rng.normal(0, 0.04, 3)
    angle = rng.uniform(-10, 10)
    body = _rect_mask(cy, cx, rng.uniform(3, 5), rng.uniform(18, 24), angle, rng)
    wings = _rect_mask(cy, cx, rng.uniform(12, 16), rng.uniform(3, 5),
                       angle + rng.uniform(-6, 6), rng)
    tail = _rect_mask(cy - 2, cx + rng.uniform(7, 10), rng.uniform(4, 6),
                      rng.uniform(2, 3), angle, rng)
    obj = body | wings | tail
    _paint(img, obj, body_color)
    _metal_sheen(img, obj, rng)
    return obj


def _draw_automobile(img, rng):
    cy = rng.uniform(18, 22)
    cx = rng.uniform(14, 18)
    color = rng.uniform(0.2, 0.9, 3)
    body = _rect_mask(cy, cx, rng.uniform(6, 8), rng.uniform(16, 22), 0, rng)
    cabin = _rect_mask(cy - rng.uniform(4, 5), cx, rng.uniform(4, 5),
                       rng.uniform(8, 12), 0, rng)
    obj = body | cabin
    _paint(img, obj, color)
    _metal_sheen(img, obj, rng)
    for dx in (-6, 6):
        wheel = _ellipse_mask(cy + 4, cx + dx + rng.uniform(-1, 1),
                              rng.uniform(2, 3), rng.uniform(2, 3), 0.0, rng)
        _paint(img, wheel, [0.08, 0.08, 0.08])
        obj = obj | wheel
    return obj


def _draw_ship(img, rng):
    # Water lower half.
    yy, _ = _coords()
    water_line = int(rng.uniform(18, 24))
    water = yy >= water_line
    _paint(img, water, np.clip(np.array([0.1, 0.25, 0.5])
                               + rng.normal(0, 0.03, 3), 0, 1))
    cy = water_line - rng.uniform(2, 4)
    cx = rng.uniform(13, 19)
    hull = _rect_mask(cy, cx, rng.uniform(4, 6), rng.uniform(16, 22), 0, rng)
    hull &= ~(yy > water_line + 2)
    deck = _rect_mask(cy - rng.uniform(4, 6), cx + rng.uniform(-3, 3),
                      rng.uniform(3, 5), rng.uniform(6, 10), 0, rng)
    obj = hull | deck
    _paint(img, obj, rng.uniform(0.3, 0.8, 3))
    _metal_sheen(img, obj, rng)
    return obj | water


def _draw_truck(img, rng):
    cy = rng.uniform(17, 21)
    cx = rng.uniform(14, 18)
    cab_color = rng.uniform(0.3, 0.9, 3)
    box_color = rng.uniform(0.3, 0.9, 3)
    box = _rect_mask(cy - 2, cx + rng.uniform(2, 4), rng.uniform(9, 12),
                     rng.uniform(13, 17), 0, rng)
    cab = _rect_mask(cy, cx - rng.uniform(8, 10), rng.uniform(6, 8),
                     rng.uniform(5, 7), 0, rng)
    obj = box | cab
    _paint(img, box, box_color)
    _paint(img, cab, cab_color)
    _metal_sheen(img, obj, rng)
    for dx in (-9, -1, 7):
        wheel = _ellipse_mask(cy + 5, cx + dx, rng.uniform(2, 3),
                              rng.uniform(2, 3), 0.0, rng)
        _paint(img, wheel, [0.08, 0.08, 0.08])
        obj = obj | wheel
    return obj


# --------------------------------------------------------------------------
# Animal classes
# --------------------------------------------------------------------------
def _animal_body(img, rng, color, ry, rx, head_dx, head_r, wobble=0.25):
    cy = rng.uniform(16, 20)
    cx = rng.uniform(14, 18)
    body = _ellipse_mask(cy, cx, ry, rx, wobble, rng)
    head = _ellipse_mask(cy - rng.uniform(4, 7), cx + head_dx, head_r,
                         head_r * rng.uniform(0.9, 1.2), wobble * 0.6, rng)
    obj = body | head
    _paint(img, obj, color, shade=0.2)
    _fur(img, obj, rng)
    return obj, cy, cx


def _draw_bird(img, rng):
    color = np.array([rng.uniform(0.4, 0.9), rng.uniform(0.3, 0.7),
                      rng.uniform(0.2, 0.6)])
    obj, cy, cx = _animal_body(img, rng, color, rng.uniform(4, 6),
                               rng.uniform(6, 8), rng.uniform(4, 6),
                               rng.uniform(2.5, 3.5))
    wing = _ellipse_mask(cy, cx - rng.uniform(1, 3), rng.uniform(2, 3),
                         rng.uniform(4, 6), 0.3, rng)
    _paint(img, wing, color * 0.7)
    _fur(img, wing, rng)
    return obj | wing


def _draw_cat(img, rng):
    color = np.array([0.5, 0.4, 0.3]) + rng.normal(0, 0.08, 3)
    obj, cy, cx = _animal_body(img, rng, np.clip(color, 0, 1),
                               rng.uniform(5, 7), rng.uniform(7, 9),
                               rng.uniform(3, 5), rng.uniform(3, 4))
    # Pointy ears: two small triangles above the head.
    for dx in (2, 6):
        ear = _rect_mask(cy - 10, cx + dx, rng.uniform(2, 3),
                         rng.uniform(1.5, 2.5), rng.uniform(30, 60), rng)
        _paint(img, ear, np.clip(color, 0, 1))
    return obj


def _draw_deer(img, rng):
    color = np.array([0.55, 0.38, 0.2]) + rng.normal(0, 0.05, 3)
    obj, cy, cx = _animal_body(img, rng, np.clip(color, 0, 1),
                               rng.uniform(5, 6), rng.uniform(6, 8),
                               rng.uniform(4, 6), rng.uniform(2.5, 3.5))
    # Legs.
    for dx in (-4, -1, 2, 5):
        leg = _rect_mask(cy + 7, cx + dx, rng.uniform(5, 7), 1.5, 0, rng)
        _paint(img, leg, np.clip(color * 0.8, 0, 1))
        obj = obj | leg
    # Antlers.
    antler = _rect_mask(cy - 12, cx + rng.uniform(4, 6), rng.uniform(3, 5),
                        1.2, rng.uniform(-30, 30), rng)
    _paint(img, antler, [0.4, 0.3, 0.2])
    return obj


def _draw_dog(img, rng):
    color = np.array([rng.uniform(0.3, 0.7), rng.uniform(0.25, 0.5),
                      rng.uniform(0.15, 0.35)])
    obj, cy, cx = _animal_body(img, rng, color, rng.uniform(5, 7),
                               rng.uniform(8, 10), rng.uniform(5, 7),
                               rng.uniform(3, 4))
    # Floppy ears + tail.
    ear = _ellipse_mask(cy - 8, cx + rng.uniform(6, 8), rng.uniform(2, 3),
                        1.5, 0.2, rng)
    tail = _rect_mask(cy - 2, cx - rng.uniform(8, 10), rng.uniform(1.5, 2.5),
                      rng.uniform(4, 6), rng.uniform(-45, -15), rng)
    _paint(img, ear, color * 0.75)
    _paint(img, tail, color)
    _fur(img, tail, rng)
    return obj | tail


def _draw_frog(img, rng):
    color = np.array([0.2, rng.uniform(0.5, 0.8), 0.2]) + rng.normal(0, 0.04, 3)
    obj, cy, cx = _animal_body(img, rng, np.clip(color, 0, 1),
                               rng.uniform(4, 6), rng.uniform(6, 8),
                               rng.uniform(0, 2), rng.uniform(3, 4),
                               wobble=0.35)
    # Bulging eyes.
    for dx in (-2, 3):
        eye = _ellipse_mask(cy - 8, cx + dx, 1.5, 1.5, 0.0, rng)
        _paint(img, eye, [0.9, 0.9, 0.3])
    return obj


def _draw_horse(img, rng):
    color = np.array([0.4, 0.26, 0.15]) + rng.normal(0, 0.05, 3)
    obj, cy, cx = _animal_body(img, rng, np.clip(color, 0, 1),
                               rng.uniform(5, 6), rng.uniform(8, 10),
                               rng.uniform(6, 8), rng.uniform(2.5, 3.5))
    # Long neck and legs.
    neck = _rect_mask(cy - 5, cx + rng.uniform(4, 6), rng.uniform(6, 8),
                      rng.uniform(2.5, 3.5), rng.uniform(20, 40), rng)
    _paint(img, neck, np.clip(color, 0, 1))
    _fur(img, neck, rng)
    for dx in (-5, -2, 2, 5):
        leg = _rect_mask(cy + 8, cx + dx, rng.uniform(6, 8), 1.5, 0, rng)
        _paint(img, leg, np.clip(color * 0.85, 0, 1))
        obj = obj | leg
    return obj | neck


_MACHINE_DRAWERS = {
    "airplane": _draw_airplane,
    "automobile": _draw_automobile,
    "ship": _draw_ship,
    "truck": _draw_truck,
}
_ANIMAL_DRAWERS = {
    "bird": _draw_bird,
    "cat": _draw_cat,
    "deer": _draw_deer,
    "dog": _draw_dog,
    "frog": _draw_frog,
    "horse": _draw_horse,
}


def render_cifar_image(class_name: str, rng: np.random.Generator) -> np.ndarray:
    """Render one (3, 32, 32) image of ``class_name`` in [0, 1]."""
    if class_name in _MACHINE_DRAWERS:
        img = _sky_background(rng)
        _MACHINE_DRAWERS[class_name](img, rng)
    elif class_name in _ANIMAL_DRAWERS:
        img = _nature_background(rng)
        _ANIMAL_DRAWERS[class_name](img, rng)
    else:
        raise ValueError(f"unknown class {class_name!r}")
    img = img + rng.normal(0.0, 0.02, img.shape)
    img = _gaussian_filter(img, sigma=(0.4, 0.4, 0.0))
    return np.clip(img, 0.0, 1.0).transpose(2, 0, 1)


def synthetic_cifar(num_samples: int = 2000, seed: int = 0,
                    rng: np.random.Generator | None = None) -> Dataset:
    """Generate a balanced synthetic CIFAR-10 dataset.

    Class order matches the canonical CIFAR-10 label order.  The returned
    dataset carries the machine/animal superclass map used by the
    specialization experiment (Figure 9).

    All randomness flows through one ``Generator``: pass ``rng`` to
    compose with a caller-owned stream, or ``seed`` to own a fresh one
    (``rng`` wins when both are given).
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    images = np.empty((num_samples, 3, _SIZE, _SIZE))
    labels = np.empty(num_samples, dtype=np.int64)
    for i in range(num_samples):
        label = i % 10
        images[i] = render_cifar_image(CIFAR_CLASSES[label], rng)
        labels[i] = label
    perm = rng.permutation(num_samples)
    superclasses = {
        "machines": tuple(CIFAR_CLASSES.index(c) for c in MACHINE_CLASSES),
        "animals": tuple(CIFAR_CLASSES.index(c) for c in ANIMAL_CLASSES),
    }
    return Dataset(images[perm], labels[perm], class_names=CIFAR_CLASSES,
                   superclasses=superclasses, name="synthetic-cifar10")

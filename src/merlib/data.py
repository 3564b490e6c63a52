"""Dataset manifests, class balancing, augmentation, and synthetic data.

A manifest is a list of samples plus the ordered class vocabulary. The
vocabulary is the manifest file's `label` column, in first-seen order, so
any grouping of a database's emotion labels into classes happens when the
manifest is written. The `apex` and `clip_len` columns are validated and
carried along but select nothing: each row already names its frame. Samples
carry either an image path (resolved, and checked to exist, at load time)
or an in-memory uint8 array; everything downstream treats the two the same
way. Synthetic samples put their class signal in the quadrant that
`class_roi_mask` describes. All randomness comes in through explicit
generators so that runs replay exactly.
"""

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from . import imageio
from .errors import ConfigError, ManifestError, ValidationError
from .model import write_atomic

MANIFEST_COLUMNS = ["image", "subject", "database", "label", "apex", "clip_len"]


@dataclass
class Sample:
    image: object          # path string or uint8 [H,W,3] array
    subject_id: str
    database_id: str
    raw_label: str         # label as read; equal to `label`
    label: str             # class label, one of the manifest's class_names
    apex_index: int = None
    clip_len: int = None


@dataclass
class Manifest:
    samples: list
    class_names: list

    def __len__(self):
        return len(self.samples)

    def label_indices(self) -> np.ndarray:
        index = {name: i for i, name in enumerate(self.class_names)}
        try:
            return np.array([index[s.label] for s in self.samples], dtype=np.int64)
        except KeyError as e:
            raise ManifestError(f"sample label {e.args[0]!r} is not in the class "
                                f"vocabulary {self.class_names}") from e

    def subset(self, indices) -> "Manifest":
        return Manifest([self.samples[i] for i in indices], list(self.class_names))

    def subjects(self) -> list:
        return sorted({s.subject_id for s in self.samples})

    def databases(self) -> list:
        return sorted({s.database_id for s in self.samples})


def load_sample_image(sample: Sample) -> np.ndarray:
    """Pixel data for a sample regardless of how it is stored."""
    if isinstance(sample.image, np.ndarray):
        return sample.image
    return imageio.read_image(sample.image)


# ---------------------------------------------------------------------------
# manifest files

def load_manifest(path) -> Manifest:
    """Read a manifest CSV; relative image paths resolve against the CSV dir.

    Columns: image,subject,database,label,apex,clip_len. apex and clip_len
    may be blank. Duplicate rows, labels on unknown columns, bad integers,
    apex outside the clip and image files that do not exist are all
    rejected with the offending row named.
    """
    base = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        raise ManifestError(f"cannot read manifest {path}: {e}") from e
    if not rows:
        raise ManifestError(f"{path}: empty manifest file")
    if rows[0] != MANIFEST_COLUMNS:
        raise ManifestError(f"{path}: header must be {','.join(MANIFEST_COLUMNS)}, "
                            f"got {','.join(rows[0])}")
    samples = []
    class_names = []
    seen = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(MANIFEST_COLUMNS):
            raise ManifestError(f"{path}:{lineno}: expected "
                                f"{len(MANIFEST_COLUMNS)} fields, got {len(row)}")
        image, subject, database, label, apex, clip_len = (c.strip() for c in row)
        if not image or not subject or not database or not label:
            raise ManifestError(f"{path}:{lineno}: image, subject, database and "
                                f"label must be non-empty")
        key = (image, subject, database, label, apex, clip_len)
        if key in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate row")
        seen.add(key)

        def parse_int(text, what):
            if not text:
                return None
            try:
                v = int(text)
            except ValueError:
                raise ManifestError(f"{path}:{lineno}: {what} must be an integer, "
                                    f"got {text!r}") from None
            if v < 0:
                raise ManifestError(f"{path}:{lineno}: {what} must be non-negative")
            return v

        apex_v = parse_int(apex, "apex")
        clip_v = parse_int(clip_len, "clip_len")
        if apex_v is not None and clip_v is not None and apex_v >= clip_v:
            raise ManifestError(f"{path}:{lineno}: apex {apex_v} is outside the "
                                f"clip of length {clip_v}")
        image_path = image if os.path.isabs(image) else os.path.join(base, image)
        if not os.path.isfile(image_path):
            raise ManifestError(f"{path}:{lineno}: image file not found: {image_path}")
        if label not in class_names:
            class_names.append(label)
        samples.append(Sample(image=image_path, subject_id=subject,
                              database_id=database, raw_label=label, label=label,
                              apex_index=apex_v, clip_len=clip_v))
    if not samples:
        raise ManifestError(f"{path}: manifest has a header but no rows")
    return Manifest(samples, class_names)


def save_manifest(manifest: Manifest, out_dir) -> str:
    """Write out_dir/manifest.csv; in-memory images go to images/ first."""
    os.makedirs(out_dir, exist_ok=True)
    image_dir = os.path.join(out_dir, "images")
    rows = []
    for i, s in enumerate(manifest.samples):
        if isinstance(s.image, np.ndarray):
            os.makedirs(image_dir, exist_ok=True)
            rel = os.path.join("images", f"{i:05d}.ppm")
            imageio.write_ppm(os.path.join(out_dir, rel), s.image)
        else:
            rel = s.image
        rows.append([rel, s.subject_id, s.database_id, s.label,
                     "" if s.apex_index is None else str(s.apex_index),
                     "" if s.clip_len is None else str(s.clip_len)])
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(MANIFEST_COLUMNS)
    writer.writerows(rows)
    path = os.path.join(out_dir, "manifest.csv")
    write_atomic(path, text.getvalue().encode())
    return path


# ---------------------------------------------------------------------------
# pooling and balancing

def resample_balance(manifest: Manifest) -> Manifest:
    """Duplicate minority-class samples until every non-empty class matches
    the largest one. Originals keep their order; duplicates are appended
    class by class in vocabulary order, cycling through each class's samples.
    """
    by_class = {name: [] for name in manifest.class_names}
    for s in manifest.samples:
        by_class[s.label].append(s)
    sizes = [len(v) for v in by_class.values() if v]
    if not sizes:
        raise ManifestError("cannot balance an empty manifest")
    target = max(sizes)
    samples = list(manifest.samples)
    for name in manifest.class_names:
        pool = by_class[name]
        if not pool:
            continue
        for i in range(target - len(pool)):
            samples.append(pool[i % len(pool)])
    return Manifest(samples, list(manifest.class_names))


def merge_manifests(manifests) -> Manifest:
    """Pool several manifests; class vocabularies must agree exactly."""
    manifests = list(manifests)
    if not manifests:
        raise ManifestError("nothing to merge")
    names = manifests[0].class_names
    for m in manifests[1:]:
        if m.class_names != names:
            raise ManifestError(f"class vocabularies differ: {names} vs {m.class_names}")
    samples = [s for m in manifests for s in m.samples]
    return Manifest(samples, list(names))


# ---------------------------------------------------------------------------
# augmentation

@dataclass(frozen=True)
class AugmentConfig:
    """Which augmentations run and how strong they are.

    Each enabled augmentation fires independently with probability 0.5.
    A zero maximum disables the corresponding augmentation. crop is a
    (source, target) pair: inputs must be at least source pixels on each
    side and the output is always exactly target x target (a center crop
    when the corner draw does not fire, so dimensions stay constant).
    """
    color_shift_max: int = 0
    rotation_max_deg: float = 0.0
    smooth_window_max: int = 0
    crop: tuple = None

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0
                   for v in (self.color_shift_max, self.rotation_max_deg)):
            raise ConfigError("augmentation maxima must be finite and non-negative")
        if self.smooth_window_max != 0 and not 2 <= self.smooth_window_max:
            raise ConfigError(f"smooth_window_max must be 0 or >= 2, "
                              f"got {self.smooth_window_max}")
        if self.crop is not None:
            src, dst = self.crop
            if dst < 1 or src < dst:
                raise ConfigError(f"crop needs source >= target >= 1, got {self.crop}")


def shift_colors(image: np.ndarray, deltas) -> np.ndarray:
    """Add one integer offset per channel, clamping to [0, 255]."""
    deltas = np.asarray(deltas, dtype=np.int16)
    if deltas.shape != (3,):
        raise ValidationError(f"need 3 channel offsets, got shape {deltas.shape}")
    shifted = image.astype(np.int16) + deltas[None, None, :]
    return np.clip(shifted, 0, 255).astype(np.uint8)


def rotate_image(image: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate about the image center with bilinear sampling.

    Source coordinates outside the frame clamp to the nearest edge pixel,
    so corners fill with replicated content instead of black.
    """
    h, w = image.shape[:2]
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(degrees)
    cos_t, sin_t = math.cos(rad), math.sin(rad)
    u = cos_t * (xx - cx) + sin_t * (yy - cy) + cx
    v = -sin_t * (xx - cx) + cos_t * (yy - cy) + cy
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    fx = (u - x0)[:, :, None]
    fy = (v - y0)[:, :, None]
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    img = image.astype(np.float64)
    out = ((1 - fy) * (1 - fx) * img[y0c, x0c]
           + (1 - fy) * fx * img[y0c, x1c]
           + fy * (1 - fx) * img[y1c, x0c]
           + fy * fx * img[y1c, x1c])
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def box_smooth(image: np.ndarray, window: int) -> np.ndarray:
    """Mean filter with a square window and edge-replicated borders."""
    k = int(window)
    if k < 1:
        raise ValidationError(f"smoothing window must be >= 1, got {window}")
    if k == 1:
        return image.copy()
    h, w = image.shape[:2]
    lo, hi = (k - 1) // 2, k // 2
    padded = np.pad(image.astype(np.float64), ((lo, hi), (lo, hi), (0, 0)),
                    mode="edge")
    acc = np.zeros((h, w, image.shape[2]), dtype=np.float64)
    for di in range(k):
        for dj in range(k):
            acc += padded[di:di + h, dj:dj + w]
    return np.clip(np.rint(acc / (k * k)), 0, 255).astype(np.uint8)


_CORNERS = ("top_left", "top_right", "bottom_left", "bottom_right")


def crop_square(image: np.ndarray, target: int, corner: str) -> np.ndarray:
    """Cut a target x target square from a corner, or from the center."""
    h, w = image.shape[:2]
    if target > h or target > w:
        raise ValidationError(f"crop {target} exceeds image {h}x{w}")
    offsets = {
        "top_left": (0, 0),
        "top_right": (0, w - target),
        "bottom_left": (h - target, 0),
        "bottom_right": (h - target, w - target),
        "center": ((h - target) // 2, (w - target) // 2),
    }
    if corner not in offsets:
        raise ValidationError(f"unknown crop corner {corner!r}")
    r, c = offsets[corner]
    return image[r:r + target, c:c + target].copy()


def augment(image: np.ndarray, cfg: AugmentConfig, rng) -> np.ndarray:
    """Apply the configured augmentations in a fixed order.

    Order: color shift, rotation, smoothing, crop. Each enabled step draws
    one uniform sample to decide whether it fires (with probability 0.5),
    then (only if it fires) draws its parameters, so the stream of random
    draws is reproducible from the generator alone. The output size is the
    crop target when cropping is configured, otherwise the input size.
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValidationError(f"augment needs uint8 [H,W,3], got "
                              f"{image.dtype} {image.shape}")

    def fires():
        return rng.random() < 0.5

    if cfg.color_shift_max > 0 and fires():
        deltas = rng.integers(-cfg.color_shift_max, cfg.color_shift_max + 1, size=3)
        image = shift_colors(image, deltas)
    if cfg.rotation_max_deg > 0 and fires():
        degrees = rng.uniform(-cfg.rotation_max_deg, cfg.rotation_max_deg)
        image = rotate_image(image, degrees)
    if cfg.smooth_window_max >= 2 and fires():
        window = int(rng.integers(2, cfg.smooth_window_max + 1))
        image = box_smooth(image, window)
    if cfg.crop is not None:
        source, target = cfg.crop
        h, w = image.shape[:2]
        if h < source or w < source:
            raise ValidationError(f"crop expects at least {source}x{source} "
                                  f"input, got {h}x{w}")
        corner = _CORNERS[int(rng.integers(0, 4))] if fires() else "center"
        image = crop_square(image, target, corner)
    return image


# ---------------------------------------------------------------------------
# synthetic data

def class_roi_mask(class_index: int, height: int, width: int) -> np.ndarray:
    """Boolean mask of the quadrant where a class places its pattern."""
    q = class_index % 4
    h2, w2 = height // 2, width // 2
    mask = np.zeros((height, width), dtype=bool)
    r0 = 0 if q < 2 else h2
    c0 = 0 if q % 2 == 0 else w2
    mask[r0:r0 + h2, c0:c0 + w2] = True
    return mask


def _class_pattern(class_index: int, n_classes: int, size: int) -> np.ndarray:
    """Oriented Gaussian ridge centered in the class quadrant, in [0, 1]."""
    q = class_index % 4
    h2 = size // 2
    cy = h2 * 0.5 if q < 2 else h2 * 1.5
    cx = h2 * 0.5 if q % 2 == 0 else h2 * 1.5
    angle = math.pi * class_index / max(n_classes, 1)
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    along = cos_t * (xx - cx) + sin_t * (yy - cy)
    across = -sin_t * (xx - cx) + cos_t * (yy - cy)
    sig_along = 0.30 * h2
    sig_across = 0.10 * h2
    return np.exp(-0.5 * ((along / sig_along) ** 2 + (across / sig_across) ** 2))


def synth_dataset(n_classes: int, n_subjects: int, per_class: int,
                  image_size: int = 32, seed: int = 0,
                  database_id: str = "synth") -> Manifest:
    """Synthetic recognition task with a known signal region per class.

    Each class paints an oriented blob in a fixed quadrant with a
    class-specific channel emphasis; subjects differ only by a global
    low-frequency texture and brightness, plus per-sample pixel noise.
    per_class counts samples per class per subject, so the total is
    n_classes * n_subjects * per_class and classes are exactly balanced.
    `class_roi_mask` gives the ground-truth quadrant of each class.
    """
    if n_classes < 2 or n_subjects < 1 or per_class < 1:
        raise ConfigError("need n_classes >= 2, n_subjects >= 1, per_class >= 1")
    if image_size < 8:
        raise ConfigError(f"image_size must be at least 8, got {image_size}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5D)))
    size = int(image_size)
    patterns = [_class_pattern(c, n_classes, size) for c in range(n_classes)]
    base_weights = np.array([1.0, 0.65, 0.35])
    class_names = [f"class{c}" for c in range(n_classes)]
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")

    samples = []
    for si in range(n_subjects):
        offset = rng.uniform(-10.0, 10.0, size=3)
        tex_amp = rng.uniform(8.0, 18.0)
        fy, fx = rng.integers(1, 4, size=2)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        texture = tex_amp * np.sin(2.0 * math.pi * (fy * yy + fx * xx) / size + phase)
        for j in range(per_class * n_classes):
            c = j % n_classes
            weights = np.roll(base_weights, c)
            noise = rng.uniform(-8.0, 8.0, size=(size, size, 3))
            img = (120.0 + offset[None, None, :] + texture[:, :, None]
                   + 110.0 * patterns[c][:, :, None] * weights[None, None, :]
                   + noise)
            samples.append(Sample(
                image=np.clip(np.rint(img), 0, 255).astype(np.uint8),
                subject_id=f"s{si:02d}",
                database_id=database_id,
                raw_label=class_names[c],
                label=class_names[c]))
    return Manifest(samples, class_names)

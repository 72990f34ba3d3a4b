"""Dataset ingestion: IDX files, CIFAR-10 binary batches, and synthetic sets.

All loaders return ``(images, labels)`` with images as [N, H, W, C] arrays
and labels as 1-D int64.  ``normalize_images`` maps uint8 pixels to
float32 in [0, 1]; models consume the normalized form.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DataFormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

PathLike = Union[str, Path]


def _read_bytes(path: PathLike) -> bytes:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def load_idx_images(path: PathLike) -> np.ndarray:
    """Read a big-endian IDX3 image file (optionally gzipped) as [N,H,W] uint8."""
    raw = _read_bytes(path)
    if len(raw) < 16:
        raise DataFormatError(f"{path}: too short for an IDX image header")
    magic, n, h, w = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataFormatError(
            f"{path}: bad IDX image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    expected = 16 + n * h * w
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(raw)} bytes, expected {expected} for {n}x{h}x{w}")
    return np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, h, w).copy()


def load_idx_labels(path: PathLike) -> np.ndarray:
    """Read a big-endian IDX1 label file (optionally gzipped) as [N] int64."""
    raw = _read_bytes(path)
    if len(raw) < 8:
        raise DataFormatError(f"{path}: too short for an IDX label header")
    magic, n = struct.unpack(">II", raw[:8])
    if magic != IDX_LABELS_MAGIC:
        raise DataFormatError(
            f"{path}: bad IDX label magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
    if len(raw) != 8 + n:
        raise DataFormatError(f"{path}: payload is {len(raw)} bytes, expected {8 + n}")
    return np.frombuffer(raw, dtype=np.uint8, offset=8).astype(np.int64)


def write_idx_images(path: PathLike, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise DataFormatError(f"IDX images must be [N,H,W], got shape {images.shape}")
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(images.tobytes())


def write_idx_labels(path: PathLike, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DataFormatError(f"IDX labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) > 255:
        raise DataFormatError("IDX labels must fit in a byte")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.astype(np.uint8).tobytes())


def load_idx_pair(images_path: PathLike, labels_path: PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Load matching IDX image/label files as ([N,H,W,1] uint8, [N] int64)."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image count {images.shape[0]} does not match label count {labels.shape[0]}")
    return images[..., None], labels


def find_idx_split(directory: PathLike, split: str = "train") -> tuple[Path, Path]:
    """Locate the conventional IDX filenames (train/t10k), gzipped or not."""
    directory = Path(directory)
    prefix = "train" if split == "train" else "t10k"
    candidates_img = [f"{prefix}-images-idx3-ubyte", f"{prefix}-images.idx3-ubyte"]
    candidates_lbl = [f"{prefix}-labels-idx1-ubyte", f"{prefix}-labels.idx1-ubyte"]

    def _find(names):
        for name in names:
            for suffix in ("", ".gz"):
                p = directory / (name + suffix)
                if p.exists():
                    return p
        return None
    img = _find(candidates_img)
    lbl = _find(candidates_lbl)
    if img is None or lbl is None:
        raise DataFormatError(f"no IDX {split} split found under {directory}")
    return img, lbl


CIFAR10_RECORD = 3073  # 1 label byte + 3 * 1024 channel-planar pixels


def load_cifar10_batch(path: PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Read one CIFAR-10 binary batch as ([N,32,32,3] uint8, [N] int64)."""
    raw = _read_bytes(path)
    if len(raw) == 0 or len(raw) % CIFAR10_RECORD:
        raise DataFormatError(
            f"{path}: size {len(raw)} is not a multiple of the {CIFAR10_RECORD}-byte record")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR10_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise DataFormatError(f"{path}: label {labels.max()} outside 0..9")
    images = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1).copy()
    return images, labels


def load_cifar10_dir(directory: PathLike) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Load the standard five training batches plus the test batch."""
    directory = Path(directory)
    train_parts = [load_cifar10_batch(directory / f"data_batch_{i}") for i in range(1, 6)]
    xs = np.concatenate([p[0] for p in train_parts])
    ys = np.concatenate([p[1] for p in train_parts])
    test = load_cifar10_batch(directory / "test_batch")
    return {"train": (xs, ys), "test": test}


def normalize_images(images: np.ndarray) -> np.ndarray:
    """uint8 [0,255] -> float32 [0,1]; float input is only cast."""
    images = np.asarray(images)
    if images.dtype == np.uint8:
        return images.astype(np.float32) / 255.0
    return images.astype(np.float32)


# ---------------------------------------------------------------------------
# synthetic datasets

def make_blobs(n: int, num_classes: int = 4, image_size: int = 16,
               channels: int = 1, noise: float = 0.05,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian bumps whose position encodes the class.

    Class anchors sit evenly on a circle around the image center; each
    sample jitters its anchor slightly and adds pixel noise.  Returns
    float32 images in roughly [0, 1] and int64 labels, class-balanced.
    """
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    radius = image_size / 3.2
    cx0 = cy0 = (image_size - 1) / 2.0
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    anchor_x = cx0 + radius * np.cos(angles)
    anchor_y = cy0 + radius * np.sin(angles)
    yy, xx = np.mgrid[0:image_size, 0:image_size]
    sigma = image_size / 8.0
    images = np.empty((n, image_size, image_size, channels), dtype=np.float32)
    jitter = rng.normal(scale=0.6, size=(n, 2))
    pixel_noise = rng.normal(scale=noise, size=(n, image_size, image_size)).astype(np.float32)
    for i in range(n):
        j = labels[i]
        cx = anchor_x[j] + jitter[i, 0]
        cy = anchor_y[j] + jitter[i, 1]
        bump = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma ** 2))
        img = (bump + pixel_noise[i]).astype(np.float32)
        images[i] = np.repeat(img[:, :, None], channels, axis=2)
    return images, labels.astype(np.int64)


def make_bars(n: int, num_classes: int = 4, image_size: int = 16,
              channels: int = 1, noise: float = 0.05,
              seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bright bars; the first half of the classes are vertical
    bars at distinct columns, the rest horizontal bars at distinct rows."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    n_vertical = (num_classes + 1) // 2
    images = rng.normal(scale=noise,
                        size=(n, image_size, image_size, channels)).astype(np.float32)
    thickness = max(image_size // 8, 1)
    for i in range(n):
        j = int(labels[i])
        if j < n_vertical:
            pos = (j + 1) * image_size // (n_vertical + 1)
            images[i, :, pos:pos + thickness, :] += 1.0
        else:
            r = j - n_vertical
            n_horizontal = num_classes - n_vertical
            pos = (r + 1) * image_size // (n_horizontal + 1)
            images[i, pos:pos + thickness, :, :] += 1.0
    return images, labels.astype(np.int64)


def train_test_split(images: np.ndarray, labels: np.ndarray, test_fraction: float = 0.2,
                     seed: int = 0) -> tuple[tuple, tuple]:
    """Deterministic shuffled split into ((x_tr, y_tr), (x_te, y_te))."""
    n = images.shape[0]
    idx = np.arange(n)
    np.random.default_rng(seed).shuffle(idx)
    n_test = int(round(n * test_fraction))
    test_idx, train_idx = idx[:n_test], idx[n_test:]
    return ((images[train_idx], labels[train_idx]),
            (images[test_idx], labels[test_idx]))


def take_subset(images: np.ndarray, labels: np.ndarray, n: int,
                seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """First ``n`` rows after a seeded shuffle."""
    if n > images.shape[0]:
        raise DataFormatError(f"requested {n} samples but only {images.shape[0]} available")
    idx = np.arange(images.shape[0])
    np.random.default_rng(seed).shuffle(idx)
    pick = idx[:n]
    return images[pick], labels[pick]

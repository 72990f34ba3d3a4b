"""Dataset ingestion: IDX files, CIFAR-10 binary batches, and synthetic blobs.

``load_idx`` reads one IDX file of any rank; every other loader returns
``(images, labels)`` with images as [N, H, W, C] arrays and labels as 1-D
int64.  File loaders keep the pixels uint8;
``normalize_images`` maps them to float32 in [0, 1], and
``CapsuleClassifier.forward`` applies it to each uint8 batch it is given,
so the CLI never holds a file-backed split as floats.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigError, DataFormatError

PathLike = Union[str, Path]


def _read_bytes(path: PathLike) -> bytes:
    """The file's bytes, gunzipped if they start with the gzip magic.  A
    missing, unreadable, truncated or corrupt file raises DataFormatError."""
    try:
        raw = Path(path).read_bytes()
        if raw[:2] == b"\x1f\x8b":
            raw = gzip.decompress(raw)
    except (OSError, EOFError, zlib.error) as e:
        raise DataFormatError(f"{path}: cannot read: {getattr(e, 'strerror', None) or e}") from e
    return raw


def load_idx(path: PathLike) -> np.ndarray:
    """Read a big-endian IDX file of unsigned bytes (optionally gzipped): the
    magic ``00 00 08 <rank>``, ``rank`` 32-bit sizes, then the payload, as a
    uint8 array of that shape."""
    raw = _read_bytes(path)
    if len(raw) < 4 or raw[:3] != b"\x00\x00\x08":
        raise DataFormatError(f"{path}: bad IDX magic 0x{raw[:4].hex()}, expected 0x000008 "
                              "followed by the rank")
    rank = raw[3]
    header = 4 + 4 * rank
    if len(raw) < header:
        raise DataFormatError(f"{path}: too short for a rank-{rank} IDX header")
    shape = struct.unpack(f">{rank}I", raw[4:header])
    expected = header + math.prod(shape)
    if len(raw) != expected:
        raise DataFormatError(f"{path}: payload is {len(raw)} bytes, expected {expected} "
                              f"for {'x'.join(map(str, shape))}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(shape).copy()


def load_idx_pair(images_path: PathLike, labels_path: PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Load matching IDX image/label files as ([N,H,W,1] uint8, [N] int64)."""
    images, labels = load_idx(images_path), load_idx(labels_path)
    for path, arr, rank in ((images_path, images, 3), (labels_path, labels, 1)):
        if arr.ndim != rank:
            raise DataFormatError(f"{path}: IDX rank {arr.ndim}, expected rank {rank}")
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image count {images.shape[0]} does not match label count {labels.shape[0]}")
    return images[..., None], labels.astype(np.int64)


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


def load_cifar10_split(directory: PathLike, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
    """Load the five training batches, concatenated, or the test batch."""
    directory = Path(directory)
    if split != "train":
        return load_cifar10_batch(directory / "test_batch")
    parts = [load_cifar10_batch(directory / f"data_batch_{i}") for i in range(1, 6)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def normalize_images(images: np.ndarray) -> np.ndarray:
    """uint8 [0,255] -> float32 [0,1]; float input is only cast."""
    images = np.asarray(images)
    if images.dtype == np.uint8:
        return images.astype(np.float32) / 255.0
    return images.astype(np.float32)


# ---------------------------------------------------------------------------
# synthetic data

def make_blobs(n: int, num_classes: int = 4, image_size: int = 16,
               channels: int = 1, noise: float = 0.05,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian bumps whose position encodes the class.

    Class anchors sit evenly on a circle around the image center; each
    sample jitters its anchor slightly and adds pixel noise.  Returns
    float32 images in roughly [0, 1] and int64 labels, class-balanced.
    """
    for name, value in (("num_classes", num_classes), ("image_size", image_size),
                        ("channels", channels)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if not noise >= 0:
        raise ConfigError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    radius = image_size / 3.2
    cx0 = cy0 = (image_size - 1) / 2.0
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    anchor_x = cx0 + radius * np.cos(angles)
    anchor_y = cy0 + radius * np.sin(angles)
    sigma = image_size / 8.0
    jitter = rng.normal(scale=0.6, size=(n, 2))
    pixel_noise = rng.normal(scale=noise, size=(n, image_size, image_size)).astype(np.float32)
    cx = (anchor_x[labels] + jitter[:, 0])[:, None, None]
    cy = (anchor_y[labels] + jitter[:, 1])[:, None, None]
    grid = np.arange(image_size)
    # squared distances along x as [n,1,W] and along y as [n,H,1]; their
    # broadcast sum is the [n,H,W] map of squared distances to each centre
    bump = np.exp(-((grid - cx) ** 2 + (grid[:, None] - cy) ** 2) / (2.0 * sigma ** 2))
    images = (bump + pixel_noise).astype(np.float32)
    images = np.repeat(images[..., None], channels, axis=3)
    return images, labels.astype(np.int64)


def take_subset(images: np.ndarray, labels: np.ndarray, n: int,
                seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """First ``n`` rows after a seeded shuffle."""
    if n > images.shape[0]:
        raise DataFormatError(f"requested {n} samples but only {images.shape[0]} available")
    idx = np.arange(images.shape[0])
    np.random.default_rng(seed).shuffle(idx)
    pick = idx[:n]
    return images[pick], labels[pick]

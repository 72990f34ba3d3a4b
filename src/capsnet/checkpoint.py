"""Checkpoints: a manifest.json plus one little-endian binary blob.

The manifest records the model and training configs, the epoch counter,
and a table of tensor entries (name, section, shape, dtype, byte offset,
byte length) into ``params.bin``; the blob's SHA-256 is stored so
corruption surfaces as :class:`CheckpointError` rather than silent drift.
Arrays are written with ``tobytes()`` and read back bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Union

import numpy as np

from .config import ModelConfig, TrainConfig
from .errors import CheckpointError, ConfigError
from .model import CapsuleClassifier
from .ops import RunningStats
from .tensor import Tensor
from .training import TrainState

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"

_ALLOWED_DTYPES = ("<f4", "<f8")


def _is_count(value) -> bool:
    """A JSON integer >= 0 (``true`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_layout(section: str, got: dict, want: dict) -> None:
    """``got`` must map the names of ``want`` to the same shapes."""
    if got == want:
        return
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    reshaped = sorted(n for n in want.keys() & got.keys() if got[n] != want[n])
    raise CheckpointError(
        f"{section} entries do not match the model config: missing {missing[:3]}, "
        f"unexpected {extra[:3]}, wrong shape {reshaped[:3]}")


def _entries(state: TrainState):
    """Deterministic (section, name, array) order: params, stats, velocity."""
    for name in sorted(state.params):
        yield "param", name, state.params[name].data
    for name in sorted(state.stats):
        yield "bn_mean", name, state.stats[name].mean
        yield "bn_var", name, state.stats[name].var
    for name in sorted(state.velocity):
        yield "velocity", name, state.velocity[name]


def _write_synced(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` and force it to the disk."""
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _sync_dir(path: Path) -> None:
    """Force the directory's entries, and so its renames, to the disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_checkpoint(path, model_config: ModelConfig, state: TrainState) -> None:
    """Write ``manifest.json`` and ``params.bin`` into directory ``path``.

    Both files are first written under temporary names in ``path``, flushed
    and fsynced, and then moved into place with ``os.replace``, blob first;
    the directory is fsynced after the second replace.  So a save that
    fails while writing leaves the previous checkpoint as it was, and a
    power loss after the replaces cannot leave a renamed file without its
    bytes.  One window remains: a crash between the two replaces pairs the
    new blob with the old manifest, which :func:`load_checkpoint` rejects
    by the blob's SHA-256.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    chunks: list[bytes] = []
    table = []
    offset = 0
    for section, name, arr in _entries(state):
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<")
        raw = arr.astype(dtype, copy=False).tobytes()
        table.append({
            "name": name,
            "section": section,
            "shape": list(arr.shape),
            "dtype": dtype.str,
            "offset": offset,
            "nbytes": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "format_version": FORMAT_VERSION,
        "epoch": state.epoch,
        "model_config": model_config.to_dict(),
        "train_config": state.config.to_dict(),
        "tensors": table,
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    tmp_blob, tmp_manifest = path / (BLOB_NAME + ".tmp"), path / (MANIFEST_NAME + ".tmp")
    try:
        _write_synced(tmp_blob, blob)
        _write_synced(tmp_manifest,
                      (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
        os.replace(tmp_blob, path / BLOB_NAME)
        os.replace(tmp_manifest, path / MANIFEST_NAME)
        _sync_dir(path)
    finally:
        tmp_blob.unlink(missing_ok=True)
        tmp_manifest.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[ModelConfig, TrainState]:
    """Rebuild configs and a TrainState bit-exactly from ``path``.

    The params, batch-norm stats and velocities must have the names and
    shapes that the manifest's ``model_config`` builds."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    blob_path = path / BLOB_NAME
    if not manifest_path.exists() or not blob_path.exists():
        raise CheckpointError(f"{path} is not a checkpoint directory "
                              f"(needs {MANIFEST_NAME} and {BLOB_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise CheckpointError(f"{manifest_path}: invalid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{manifest_path}: must hold a JSON object")
    for key in ("format_version", "epoch", "model_config", "train_config",
                "tensors", "blob_bytes", "blob_sha256"):
        if key not in manifest:
            raise CheckpointError(f"{manifest_path}: missing key {key!r}")
    if manifest["format_version"] != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {manifest['format_version']}")
    blob = blob_path.read_bytes()
    if len(blob) != manifest["blob_bytes"]:
        raise CheckpointError(
            f"{blob_path}: has {len(blob)} bytes, manifest says {manifest['blob_bytes']}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["blob_sha256"]:
        raise CheckpointError(f"{blob_path}: SHA-256 mismatch (file {digest[:12]}..., "
                              f"manifest {str(manifest['blob_sha256'])[:12]}...)")

    if not _is_count(manifest["epoch"]):
        raise CheckpointError(f"{manifest_path}: epoch must be an integer >= 0, "
                              f"got {manifest['epoch']!r}")
    try:
        model_config = ModelConfig.from_dict(manifest["model_config"])
        train_config = TrainConfig.from_dict(manifest["train_config"])
    except ConfigError:
        raise
    except (AttributeError, TypeError, ValueError) as e:  # not a dict, or a mistyped field
        raise CheckpointError(f"{manifest_path}: malformed config: {e}") from e
    if not isinstance(manifest["tensors"], list):
        raise CheckpointError(f"{manifest_path}: tensors must be a list")

    params: dict[str, Tensor] = {}
    means: dict[str, np.ndarray] = {}
    variances: dict[str, np.ndarray] = {}
    velocity: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        if not isinstance(entry, dict):
            raise CheckpointError(f"tensor entry must be an object: {entry!r}")
        for key in ("name", "section", "shape", "dtype", "offset", "nbytes"):
            if key not in entry:
                raise CheckpointError(f"tensor entry missing key {key!r}: {entry}")
        if not (isinstance(entry["name"], str) and isinstance(entry["shape"], list)
                and all(_is_count(v) for v in [*entry["shape"], entry["offset"],
                                               entry["nbytes"]])):
            raise CheckpointError("tensor entry needs a string name and integers >= 0 "
                                  f"for shape, offset and nbytes: {entry}")
        if entry["dtype"] not in _ALLOWED_DTYPES:
            raise CheckpointError(f"tensor {entry['name']!r} has unsupported dtype "
                                  f"{entry['dtype']!r} (need one of {_ALLOWED_DTYPES})")
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(blob):
            raise CheckpointError(f"tensor {entry['name']!r} extends past the blob")
        dtype = np.dtype(entry["dtype"])
        count = nbytes // dtype.itemsize
        if count * dtype.itemsize != nbytes or count != int(np.prod(entry["shape"], dtype=np.int64)):
            raise CheckpointError(f"tensor {entry['name']!r}: byte count does not match shape")
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=start)
        arr = arr.reshape(entry["shape"]).astype(dtype.newbyteorder("="), copy=True)
        section = entry["section"]
        if section == "param":
            params[entry["name"]] = Tensor(arr, requires_grad=True)
        elif section == "bn_mean":
            means[entry["name"]] = arr
        elif section == "bn_var":
            variances[entry["name"]] = arr
        elif section == "velocity":
            velocity[entry["name"]] = arr
        else:
            raise CheckpointError(f"unknown tensor section {section!r}")

    if set(means) != set(variances):
        raise CheckpointError("batch-norm mean/var entries do not pair up")
    stats: dict[str, RunningStats] = {}
    for name, mean in means.items():
        if mean.ndim != 1 or variances[name].shape != mean.shape:
            raise CheckpointError(f"batch-norm stats {name!r} must be two equal 1-D arrays")
        rs = RunningStats(mean.shape[0], dtype=mean.dtype)
        rs.load({"mean": mean, "var": variances[name]})
        stats[name] = rs
    want_params, want_stats = CapsuleClassifier(model_config).init_params()
    param_shapes = {name: t.shape for name, t in want_params.items()}
    _check_layout("param", {name: t.shape for name, t in params.items()}, param_shapes)
    _check_layout("batch-norm", {name: rs.mean.shape for name, rs in stats.items()},
                  {name: rs.mean.shape for name, rs in want_stats.items()})
    _check_layout("velocity", {name: v.shape for name, v in velocity.items()}, param_shapes)

    state = TrainState(params=params, stats=stats, velocity=velocity,
                       epoch=manifest["epoch"], config=train_config)
    return model_config, state

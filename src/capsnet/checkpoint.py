"""Checkpoints: one file, a JSON header followed by every array.

The file holds an 8-byte little-endian header length, the UTF-8 JSON header
(``format_version``, ``epoch``, ``model_config``, ``train_config`` and
``payload_sha256``), then the payload: every array, little-endian, params by
name, then each batch norm's mean and variance by name, then velocities by
name.  It stores no names, shapes or dtypes: save and load both read them
from the model config's parameter table through :func:`_layout`, drawing
no weight.  The payload's SHA-256 makes corruption surface as
:class:`CheckpointError` rather than silent drift.  Arrays are written with
``tobytes()`` and read back bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ModelConfig, TrainConfig, _is_int
from .errors import CheckpointError
from .model import CapsuleClassifier
from .ops import RunningStats
from .tensor import Tensor
from .training import TrainState

FORMAT_VERSION = 2
_HEADER_KEYS = ("format_version", "epoch", "model_config", "train_config", "payload_sha256")


def _arrays(params: dict, stats: dict, velocity: dict) -> list:
    """Every (section, name, value), in payload order: params by name, then
    each batch norm's mean and variance by name (``stats`` maps a name to
    the pair), then velocities by name."""
    return ([("param", name, params[name]) for name in sorted(params)]
            + [(section, name, value) for name in sorted(stats)
               for section, value in zip(("bn_mean", "bn_var"), stats[name])]
            + [("velocity", name, velocity[name]) for name in sorted(velocity)])


def _layout(rows: list) -> list:
    """The (section, name, shape) list of the arrays a model config's
    parameter table ``rows`` describe, in payload order.  Each row is two
    arrays: a param and its velocity, or a batch norm's mean and variance."""
    shapes = {name: shape for name, shape, init in rows if init != "stats"}
    stats = {name: (shape, shape) for name, shape, init in rows if init == "stats"}
    return _arrays(shapes, stats, shapes)


def _refuse_directory(path: Path) -> None:
    """A checkpoint is one file; a directory at ``path`` is most likely format 1."""
    if path.is_dir():
        raise CheckpointError(f"{path} is a directory, not a checkpoint file: a format-1 "
                              "checkpoint directory (manifest.json and params.bin) no "
                              "longer loads")


def _sync_dir(path: Path) -> None:
    """Force the directory's entries, and so its renames, to the disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_checkpoint(path, model_config: ModelConfig, state: TrainState) -> None:
    """Write ``state`` to the file ``path``.

    The state must hold the arrays, shapes and dtype that ``model_config``
    builds; otherwise nothing is written.  The file is written whole under
    ``path.tmp``, fsynced, moved into place with one ``os.replace``, and
    the directory is fsynced.  So a save that fails leaves the previous
    checkpoint as it was, and a finished save survives a power loss.
    """
    path = Path(path)
    _refuse_directory(path)
    want = _layout(CapsuleClassifier(model_config).param_table())
    dtype = np.dtype(model_config.dtype).newbyteorder("<")
    arrays = _arrays({name: t.data for name, t in state.params.items()},
                     {name: (s.mean, s.var) for name, s in state.stats.items()}, state.velocity)
    got = [(section, name, arr.shape) for section, name, arr in arrays]
    if got != want:
        raise CheckpointError(
            f"state does not match the model config: missing {sorted(set(want) - set(got))[:3]}, "
            f"unexpected {sorted(set(got) - set(want))[:3]}")
    wrong = [name for _, name, arr in arrays if arr.dtype != dtype]
    if wrong:
        raise CheckpointError(f"state arrays {wrong[:3]} are not {model_config.dtype}, "
                              "the model config's dtype")
    payload = b"".join(arr.astype(dtype, copy=False).tobytes() for _, _, arr in arrays)
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "epoch": state.epoch,
        "model_config": model_config.to_dict(),
        "train_config": state.config.to_dict(),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }, sort_keys=True).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(len(header).to_bytes(8, "little") + header)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _sync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[ModelConfig, TrainState]:
    """Rebuild configs and a TrainState bit-exactly from the file ``path``."""
    path = Path(path)
    _refuse_directory(path)
    try:
        data = memoryview(path.read_bytes())
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    end = 8 + int.from_bytes(data[:8], "little")
    if len(data) < 8 or end > len(data):
        raise CheckpointError(f"{path}: header length does not fit the file's "
                              f"{len(data)} bytes")
    payload = data[end:]
    try:
        header = json.loads(str(data[8:end], "utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise CheckpointError(f"{path}: header is not valid JSON: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header must be a JSON object")
    for key in _HEADER_KEYS:
        if key not in header:
            raise CheckpointError(f"{path}: header missing key {key!r}")
    if header["format_version"] != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {header['format_version']!r}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointError(f"{path}: payload SHA-256 mismatch (file {digest[:12]}..., "
                              f"header {str(header['payload_sha256'])[:12]}...)")

    if not (_is_int(header["epoch"]) and header["epoch"] >= 0):
        raise CheckpointError(f"{path}: epoch must be an integer >= 0, "
                              f"got {header['epoch']!r}")
    for key in ("model_config", "train_config"):
        if not isinstance(header[key], dict):
            raise CheckpointError(f"{path}: malformed config: {key} is not an object")
    model_config = ModelConfig.from_dict(header["model_config"])
    train_config = TrainConfig.from_dict(header["train_config"])
    # Every block's in and out widths are at least those of stage 1's second
    # block, and a block's table only grows with them, so the smallest block
    # of a four-block model bounds each claimed block from below: a payload
    # too short for the claimed blocks is refused before any of them is built.
    dtype = np.dtype(model_config.dtype).newbyteorder("<")
    probe = CapsuleClassifier(replace(model_config, stage_depths=(2, 1, 1)))
    block = min(sum(math.prod(shape) for _, shape, _ in layer.table())
                for layer in probe.layers[1:])
    least = sum(model_config.stage_depths) * block * 2 * dtype.itemsize  # 2 arrays a row
    if least > len(payload):
        raise CheckpointError(f"{path}: payload has {len(payload)} bytes, the model config's "
                              f"arrays take at least {least}")
    layout = _layout(CapsuleClassifier(model_config).param_table())
    size = sum(math.prod(shape) for _, _, shape in layout) * dtype.itemsize
    if size != len(payload):
        raise CheckpointError(f"{path}: payload has {len(payload)} bytes, the model config's "
                              f"arrays take {size}")

    arrays, offset = {}, 0  # section -> name -> array
    for section, name, shape in layout:
        count = math.prod(shape)
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        arrays.setdefault(section, {})[name] = arr.reshape(shape).astype(dtype.newbyteorder("="))
        offset += count * dtype.itemsize

    stats = {}
    for name, mean in arrays["bn_mean"].items():
        stats[name] = RunningStats(len(mean), dtype=mean.dtype)
        stats[name].mean, stats[name].var = mean, arrays["bn_var"][name]
    params = {name: Tensor(arr, requires_grad=True) for name, arr in arrays["param"].items()}
    state = TrainState(params=params, stats=stats, velocity=arrays["velocity"],
                       epoch=header["epoch"], config=train_config)
    return model_config, state

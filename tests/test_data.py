"""Data ingestion tests: IDX and CIFAR-10 binary parsing with corruption
cases, plus the synthetic blobs."""

import gzip
import struct

import numpy as np
import pytest

from capsnet import data
from capsnet.data import (load_cifar10_batch, load_cifar10_split, load_idx, load_idx_pair,
                          find_idx_split, make_blobs, normalize_images, take_subset)
from capsnet.errors import ConfigError, DataFormatError


def write_idx(path, array):
    """An array of values in 0..255, of any rank, as a big-endian IDX file:
    the magic 00 00 08 <rank>, one 32-bit size per axis, then the bytes."""
    path.write_bytes(struct.pack(f">I{array.ndim}I", 0x800 + array.ndim, *array.shape)
                     + array.astype(np.uint8).tobytes())


@pytest.fixture
def idx_files(tmp_path, rng):
    images = rng.integers(0, 256, (10, 5, 7), dtype=np.uint8)
    labels = rng.integers(0, 4, 10).astype(np.int64)
    ip, lp = tmp_path / "imgs", tmp_path / "lbls"
    write_idx(ip, images)
    write_idx(lp, labels)
    return ip, lp, images, labels


class TestIdx:
    def test_round_trip(self, tmp_path, rng, idx_files):
        # the shape comes from the header, at any rank
        ip, lp, images, labels = idx_files
        tp, table = tmp_path / "table", rng.integers(0, 256, (3, 11), dtype=np.uint8)
        write_idx(tp, table)
        assert tp.read_bytes()[:12] == bytes.fromhex("00000802" "00000003" "0000000b")
        for path, want in ((ip, images), (lp, labels), (tp, table)):
            got = load_idx(path)
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_pair_adds_channel_axis(self, idx_files):
        ip, lp, images, labels = idx_files
        x, y = load_idx_pair(ip, lp)
        assert x.shape == (10, 5, 7, 1) and x.dtype == np.uint8 and x.flags.writeable
        assert y.dtype == np.int64
        assert np.array_equal(x[..., 0], images)
        assert np.array_equal(y, labels)

    def test_gzip_transparent(self, tmp_path, idx_files):
        ip, _, images, _ = idx_files
        gz = tmp_path / "imgs.gz"
        gz.write_bytes(gzip.compress(ip.read_bytes()))
        assert np.array_equal(load_idx(gz), images)

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip(self, tmp_path, idx_files, damage):
        ip, _, _, _ = idx_files
        packed = bytearray(gzip.compress(ip.read_bytes()))
        if damage == "truncated":
            packed = packed[:len(packed) // 2]
        else:
            packed[12:-8] = bytes(b ^ 0xFF for b in packed[12:-8])
        gz = tmp_path / "imgs.gz"
        gz.write_bytes(bytes(packed))
        with pytest.raises(DataFormatError, match="imgs.gz"):
            load_idx(gz)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(DataFormatError, match="expected"):
            load_idx(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "stub"
        for stub, mention in ((b"\x00\x00", "magic"),
                              (struct.pack(">II", 0x00000803, 2), "rank-3 IDX header")):
            p.write_bytes(stub)
            with pytest.raises(DataFormatError, match=mention):
                load_idx(p)

    def test_images_refused_as_labels(self, idx_files):
        ip, _, _, _ = idx_files
        with pytest.raises(DataFormatError, match="rank 3, expected rank 1"):
            load_idx_pair(ip, ip)

    def test_count_mismatch_between_pair(self, tmp_path, rng):
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx(ip, rng.integers(0, 256, (4, 3, 3), dtype=np.uint8))
        write_idx(lp, np.zeros(5, dtype=np.int64))
        with pytest.raises(DataFormatError, match="count"):
            load_idx_pair(ip, lp)

    def test_find_split_conventional_names(self, tmp_path, rng):
        write_idx(tmp_path / "train-images-idx3-ubyte",
                         rng.integers(0, 256, (2, 3, 3), dtype=np.uint8))
        write_idx(tmp_path / "train-labels-idx1-ubyte",
                         np.zeros(2, dtype=np.int64))
        img, lbl = find_idx_split(tmp_path, "train")
        assert img.name == "train-images-idx3-ubyte"
        with pytest.raises(DataFormatError):
            find_idx_split(tmp_path, "test")


def write_cifar_batch(path, images, labels):
    """images [N,32,32,3] uint8, channel-planar records."""
    recs = []
    for img, lab in zip(images, labels):
        planar = img.transpose(2, 0, 1).tobytes()
        recs.append(bytes([lab]) + planar)
    path.write_bytes(b"".join(recs))


class TestCifar10:
    def test_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, (4, 32, 32, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, 4).astype(np.int64)
        p = tmp_path / "data_batch_1"
        write_cifar_batch(p, images, labels)
        x, y = load_cifar10_batch(p)
        assert np.array_equal(x, images)
        assert np.array_equal(y, labels)

    def test_bad_record_size(self, tmp_path):
        p = tmp_path / "batch"
        p.write_bytes(b"\x00" * 3072)  # one byte short of a record
        with pytest.raises(DataFormatError, match="3073"):
            load_cifar10_batch(p)

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "batch"
        p.write_bytes(bytes([11]) + b"\x00" * 3072)
        with pytest.raises(DataFormatError, match="label"):
            load_cifar10_batch(p)

    def test_directory_layout(self, tmp_path, rng):
        for i in range(1, 6):
            write_cifar_batch(tmp_path / f"data_batch_{i}",
                              rng.integers(0, 256, (2, 32, 32, 3), dtype=np.uint8),
                              rng.integers(0, 10, 2))
        write_cifar_batch(tmp_path / "test_batch",
                          rng.integers(0, 256, (3, 32, 32, 3), dtype=np.uint8),
                          rng.integers(0, 10, 3))
        assert load_cifar10_split(tmp_path, "train")[0].shape == (10, 32, 32, 3)
        assert load_cifar10_split(tmp_path, "test")[0].shape == (3, 32, 32, 3)

    def test_split_is_the_batches_concatenated(self, tmp_path, rng):
        # batches of unequal sizes, so each fills its own offset of the result
        paths = [tmp_path / f"data_batch_{i}" for i in range(1, 6)]
        for n, path in zip((3, 1, 4, 2, 5), paths):
            write_cifar_batch(path, rng.integers(0, 256, (n, 32, 32, 3), dtype=np.uint8),
                              rng.integers(0, 10, n))
        x, y = load_cifar10_split(tmp_path, "train")
        parts = [load_cifar10_batch(path) for path in paths]
        want_x, want_y = np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
        assert x.dtype == want_x.dtype and x.shape == want_x.shape == (15, 32, 32, 3)
        assert x.tobytes() == want_x.tobytes()
        assert y.dtype == want_y.dtype and y.tobytes() == want_y.tobytes()

    def test_split_checks_every_batch_as_a_batch_load_does(self, tmp_path, rng):
        for i in range(1, 6):
            write_cifar_batch(tmp_path / f"data_batch_{i}",
                              rng.integers(0, 256, (2, 32, 32, 3), dtype=np.uint8),
                              rng.integers(0, 10, 2))
        bad = tmp_path / "data_batch_4"
        for raw, mention in [(bytes([11]) + b"\x00" * 3072, "data_batch_4: label 11 outside"),
                             (b"\x00" * 3072, "data_batch_4: size 3072 is not a multiple")]:
            bad.write_bytes(raw)
            with pytest.raises(DataFormatError, match=mention):
                load_cifar10_split(tmp_path, "train")

    def test_split_refuses_a_batch_that_changes_between_its_reads(self, tmp_path, rng,
                                                                  monkeypatch):
        for i in range(1, 6):
            write_cifar_batch(tmp_path / f"data_batch_{i}",
                              rng.integers(0, 256, (2, 32, 32, 3), dtype=np.uint8),
                              rng.integers(0, 10, 2))
        reads = []
        read_bytes = data._read_bytes

        def read_then_shrink(path):
            reads.append(path)
            raw = read_bytes(path)
            if len(reads) == 5:  # the check pass is over: batch 3 loses a record
                (tmp_path / "data_batch_3").write_bytes(read_bytes(tmp_path / "data_batch_3")[:3073])
            return raw
        monkeypatch.setattr(data, "_read_bytes", read_then_shrink)
        with pytest.raises(DataFormatError, match="data_batch_3: changed while it was loaded"):
            load_cifar10_split(tmp_path, "train")

    def test_missing_batch(self, tmp_path):
        with pytest.raises(DataFormatError, match="data_batch_1"):
            load_cifar10_split(tmp_path, "train")


class TestNormalize:
    def test_uint8_scaled(self):
        x = np.array([[0, 255, 128]], dtype=np.uint8)
        n = normalize_images(x)
        assert n.dtype == np.float32
        assert np.allclose(n, [[0.0, 1.0, 128 / 255]])

    def test_float_passthrough_cast(self):
        x = np.ones((2, 2), dtype=np.float64)
        assert normalize_images(x).dtype == np.float32


def make_blobs_loop(n, num_classes, image_size, channels, noise, seed):
    """``make_blobs`` one sample at a time: the bump of each image from its
    own jittered anchor over the full pixel grid."""
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


class TestSynthetic:
    @pytest.mark.parametrize("n,classes,size,channels,noise,seed", [
        (256, 4, 16, 1, 0.05, 0), (64, 10, 32, 3, 0.05, 5), (33, 3, 28, 1, 0.0, 1),
        (5, 7, 9, 2, 1.5, 3), (1, 1, 1, 1, 0.05, 0), (0, 4, 16, 3, 0.05, 2),
    ])
    def test_blobs_equal_per_sample_loop(self, n, classes, size, channels, noise, seed):
        x, y = make_blobs(n, classes, size, channels, noise, seed)
        x_ref, y_ref = make_blobs_loop(n, classes, size, channels, noise, seed)
        assert x.shape == x_ref.shape and x.dtype == x_ref.dtype and x.flags.c_contiguous
        assert x.tobytes() == x_ref.tobytes()
        assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)

    @pytest.mark.parametrize("maker", [make_blobs])
    def test_shapes_balance_determinism(self, maker):
        x1, y1 = maker(40, num_classes=4, image_size=16, seed=3)
        x2, y2 = maker(40, num_classes=4, image_size=16, seed=3)
        x3, _ = maker(40, num_classes=4, image_size=16, seed=4)
        assert x1.shape == (40, 16, 16, 1) and x1.dtype == np.float32
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        assert not np.array_equal(x1, x3)
        assert np.array_equal(np.bincount(y1), [10, 10, 10, 10])

    def test_blob_classes_are_separable_by_position(self):
        x, y = make_blobs(80, num_classes=4, image_size=16, noise=0.0, seed=0)
        # brightest pixel must sit nearest its class anchor
        centers = np.array([np.unravel_index(np.argmax(img[..., 0]), img[..., 0].shape)
                            for img in x])
        for j in range(4):
            spread = centers[y == j].std(axis=0)
            assert np.all(spread < 2.0)

    def test_channels_option(self):
        x, _ = make_blobs(4, channels=3, seed=0)
        assert x.shape[-1] == 3
        assert np.array_equal(x[..., 0], x[..., 1])

    @pytest.mark.parametrize("maker", [make_blobs])
    @pytest.mark.parametrize("bad,mention", [
        (dict(num_classes=0), "num_classes"), (dict(image_size=0), "image_size"),
        (dict(image_size=-4), "image_size"), (dict(channels=0), "channels"),
        (dict(noise=-1.0), "noise"), (dict(noise=float("nan")), "noise"),
    ], ids=["no_classes", "zero_size", "negative_size", "no_channels", "negative_noise",
            "nan_noise"])
    def test_bad_arguments_rejected(self, maker, bad, mention):
        with pytest.raises(ConfigError, match=mention):
            maker(8, **bad)


class TestSplitSubset:
    def test_subset_deterministic_and_bounded(self, rng):
        x = rng.standard_normal((10, 2, 2, 1)).astype(np.float32)
        y = np.arange(10)
        xa, ya = take_subset(x, y, 4, seed=2)
        xb, yb = take_subset(x, y, 4, seed=2)
        assert np.array_equal(ya, yb)
        with pytest.raises(DataFormatError):
            take_subset(x, y, 11)

import re
import struct
import zlib

import numpy as np
import pytest

import aem.checkpoint
from aem.checkpoint import (
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    model_from_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from aem.data import Vocabulary
from aem.model import DialogueModel
from helpers import tiny_config, toy_batch


def tiny_vocab():
    return Vocabulary(["hi", "there", "you"])


def trained_model(kind="aem", steps=3):
    model = DialogueModel(kind, tiny_config())
    adam = model.make_optimizer()
    batch = toy_batch()
    for _ in range(steps):
        model.train_step(batch, adam)
    return model, adam


def test_round_trip_bit_exact(tmp_path):
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam, epoch=2, best_val=1.25)
    ckpt = load_checkpoint(path)
    assert ckpt.kind == "aem"
    assert (ckpt.epoch, ckpt.adam_t, ckpt.best_val) == (2, 3, 1.25)
    assert ckpt.vocab.id_to_token == tiny_vocab().id_to_token
    for name, p in model.store.items():
        np.testing.assert_array_equal(ckpt.arrays[name], p.values)
        np.testing.assert_array_equal(ckpt.arrays["adam.m." + name], adam.m[name])
        np.testing.assert_array_equal(ckpt.arrays["adam.v." + name], adam.v[name])
    assert ckpt.config.hidden_size == model.config.hidden_size


def test_stale_count_round_trips_and_defaults_to_zero(tmp_path):
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam, epoch=4, stale=2)
    data = path.read_bytes()
    assert load_checkpoint(path).stale == 2

    # a checkpoint written before the key existed: drop its line
    start = 8 + 4 + len(b"aem")
    (length,) = struct.unpack("<I", data[start:start + 4])
    text = data[start + 4:start + 4 + length].replace(b"stale=2\n", b"")
    assert len(text) < length
    body = (data[:start] + struct.pack("<I", len(text)) + text
            + data[start + 4 + length:-4])
    legacy = parse_checkpoint(body + struct.pack("<I", zlib.crc32(body)))
    assert (legacy.epoch, legacy.stale) == (4, 0)


def test_second_save_is_byte_identical(tmp_path):
    model, adam = trained_model()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, model, tiny_vocab(), adam)
    save_checkpoint(b, model, tiny_vocab(), adam)
    assert a.read_bytes() == b.read_bytes()


def test_model_rebuild_reproduces_generation(tmp_path):
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam)
    again = model_from_checkpoint(load_checkpoint(path))
    sources = [[4, 5, 6], [6, 4]]
    assert again.generate(sources) == model.generate(sources)
    for name, p in model.store.items():
        np.testing.assert_array_equal(again.store[name].values, p.values)


def test_resume_matches_uninterrupted_run(tmp_path):
    batch = toy_batch()
    solid, adam = trained_model(steps=0)
    straight = [solid.train_step(batch, adam) for _ in range(5)]

    model, opt = trained_model(steps=0)
    first = [model.train_step(batch, opt) for _ in range(3)]
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, model, tiny_vocab(), opt, epoch=1)
    resumed, opt2 = model_from_checkpoint(load_checkpoint(path), with_optimizer=True)
    rest = [resumed.train_step(batch, opt2) for _ in range(2)]
    assert first + rest == straight


def test_corrupt_header_rejected(tmp_path):
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam)
    data = bytearray(path.read_bytes())
    data[1] ^= 0xFF
    with pytest.raises(CheckpointError, match="checksum"):
        parse_checkpoint(bytes(data))
    # fix the checksum so the magic check itself trips
    body = bytes(data[:-4])
    with pytest.raises(CheckpointError, match="magic"):
        parse_checkpoint(body + struct.pack("<I", zlib.crc32(body)))


def test_corrupt_body_and_truncation_rejected(tmp_path):
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    with pytest.raises(CheckpointError, match="checksum"):
        parse_checkpoint(bytes(data))
    with pytest.raises(CheckpointError, match="truncated|checksum"):
        parse_checkpoint(path.read_bytes()[:40])


def test_unsupported_version_rejected(tmp_path):
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam)
    data = bytearray(path.read_bytes()[:-4])
    data[4:8] = struct.pack("<I", 9)
    patched = bytes(data)
    with pytest.raises(CheckpointError, match="version"):
        parse_checkpoint(patched + struct.pack("<I", zlib.crc32(patched)))


def test_kind_expectation_enforced(tmp_path):
    model, adam = trained_model(kind="seq2seq")
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam)
    ckpt = load_checkpoint(path)
    with pytest.raises(CheckpointError, match="expected"):
        model_from_checkpoint(ckpt, expected_kind="aem")
    assert not any(n.startswith("gamma.") for n in ckpt.arrays)


def test_missing_parameter_rejected(tmp_path):
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam)
    ckpt = load_checkpoint(path)
    del ckpt.arrays["gamma.map.W1"]
    with pytest.raises(CheckpointError, match="gamma.map.W1"):
        model_from_checkpoint(ckpt)


def test_float64_arrays_rejected():
    model = DialogueModel("aem", tiny_config(), dtype=np.float64)
    from aem.checkpoint import Checkpoint
    ckpt = Checkpoint("aem", tiny_config(), tiny_vocab(),
                      {n: p.values for n, p in model.store.items()})
    with pytest.raises(CheckpointError, match="float32"):
        checkpoint_bytes(ckpt)


def test_failed_save_keeps_previous_file(tmp_path):
    path = tmp_path / "last.ckpt"
    model, adam = trained_model()
    save_checkpoint(str(path), model, tiny_vocab(), adam, epoch=3)
    before = path.read_bytes()
    wide = DialogueModel("aem", tiny_config(), dtype=np.float64)
    with pytest.raises(CheckpointError, match="float32"):
        save_checkpoint(str(path), wide, tiny_vocab(), epoch=4)
    assert path.read_bytes() == before
    assert load_checkpoint(path).epoch == 3


class HalfWrite:
    """A file whose write stores half the bytes, then fails as a full disk would."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("step", ["write", "fsync", "replace"])
def test_save_failing_partway_keeps_previous_file_and_no_temp(tmp_path, monkeypatch, step):
    path = tmp_path / "last.ckpt"
    model, adam = trained_model()
    save_checkpoint(str(path), model, tiny_vocab(), adam, epoch=3)
    before = path.read_bytes()

    def fail(*args):
        raise OSError(5, "Input/output error")

    if step == "write":
        monkeypatch.setattr(aem.checkpoint, "open", lambda p, mode: HalfWrite(open(p, mode)),
                            raising=False)
    else:
        monkeypatch.setattr(aem.checkpoint.os, step, fail)
    with pytest.raises(OSError):
        save_checkpoint(str(path), model, tiny_vocab(), adam, epoch=4)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path).epoch == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]


def test_stale_truncated_temp_file_does_not_affect_loading(tmp_path):
    path = tmp_path / "last.ckpt"
    model, adam = trained_model()
    save_checkpoint(str(path), model, tiny_vocab(), adam, epoch=3)
    stale = tmp_path / "last.ckpt.tmp"
    stale.write_bytes(path.read_bytes()[:40])
    assert load_checkpoint(path).epoch == 3
    save_checkpoint(str(path), model, tiny_vocab(), adam, epoch=4)
    assert load_checkpoint(path).epoch == 4
    assert not stale.exists()


def test_load_errors_name_the_file(tmp_path):
    path = tmp_path / "last.ckpt"
    model, adam = trained_model()
    save_checkpoint(str(path), model, tiny_vocab(), adam)
    path.write_bytes(path.read_bytes()[:-1] + b"\x00")
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ": checksum mismatch"):
        load_checkpoint(path)

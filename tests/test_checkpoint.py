import errno
import os
import re
import struct
import zlib

import numpy as np
import pytest

import aem.checkpoint
from aem.checkpoint import (
    Checkpoint,
    CheckpointError,
    atomic_link,
    checkpoint_bytes,
    load_checkpoint,
    model_from_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from aem.cli import main
from aem.config import MODEL_KINDS
from aem.data import Vocabulary
from aem.model import DialogueModel
from aem.rng import SplitMix64
from helpers import HalfWrite, peak_traced_bytes, tiny_config, toy_batch


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
    assert load_checkpoint(path).stale == 2

    # a checkpoint written before the key existed: drop its line
    def drop_stale(text):
        assert "stale=2\n" in text
        return text.replace("stale=2\n", "")

    legacy = parse_checkpoint(with_snapshot(path.read_bytes(), drop_stale))
    assert (legacy.epoch, legacy.stale) == (4, 0)


def test_second_save_is_byte_identical(tmp_path):
    model, adam = trained_model()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, model, tiny_vocab(), adam)
    save_checkpoint(b, model, tiny_vocab(), adam)
    assert a.read_bytes() == b.read_bytes()


def test_saved_file_equals_checkpoint_bytes(tmp_path):
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam, epoch=2, best_val=1.25, stale=1)
    arrays = {name: p.values for name, p in model.store.items()}
    for name in model.store.names():
        arrays["adam.m." + name] = adam.m[name]
        arrays["adam.v." + name] = adam.v[name]
    ckpt = Checkpoint("aem", model.config, tiny_vocab(), arrays, epoch=2, adam_t=adam.t,
                      best_val=1.25, stale=1)
    assert path.read_bytes() == checkpoint_bytes(ckpt)


def test_save_builds_no_file_sized_buffer(tmp_path):
    cfg = tiny_config(hidden_size=32, embed_size=16, vocab_size=300)
    model = DialogueModel("aem", cfg)
    adam = model.make_optimizer()
    vocab = Vocabulary("w%d" % i for i in range(296))
    array_bytes = 3 * sum(p.values.nbytes for _, p in model.store.items())
    path = tmp_path / "m.ckpt"
    peak = peak_traced_bytes(lambda: save_checkpoint(path, model, vocab, adam))
    assert peak < array_bytes / 4
    assert path.stat().st_size > array_bytes


def test_load_holds_the_file_once(tmp_path):
    cfg = tiny_config(hidden_size=32, embed_size=16, vocab_size=300)
    model = DialogueModel("aem_attention", cfg)
    vocab = Vocabulary("w%d" % i for i in range(296))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, vocab, model.make_optimizer())
    peak = peak_traced_bytes(lambda: load_checkpoint(path))
    assert peak < 1.25 * path.stat().st_size


def reseal(body):
    return body + struct.pack("<I", zlib.crc32(body))


def with_snapshot(data, edit):
    """Checkpoint bytes `data` with the config snapshot text replaced by
    edit(text), resealed."""
    start = 12 + struct.unpack_from("<I", data, 8)[0]  # past magic, version, kind
    (length,) = struct.unpack_from("<I", data, start)
    text = edit(data[start + 4:start + 4 + length].decode("utf-8")).encode("utf-8")
    return reseal(data[:start] + struct.pack("<I", len(text)) + text
                  + data[start + 4 + length:-4])


def saved_with_snapshot(tmp_path, old, new):
    """A saved checkpoint (epoch 2) whose snapshot has `old` replaced by `new`."""
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam, epoch=2)
    path.write_bytes(with_snapshot(path.read_bytes(), lambda text: text.replace(old, new, 1)))
    return path


def test_bare_progress_key_fails_generate_with_the_file_and_line(tmp_path, capsys):
    path = saved_with_snapshot(tmp_path, "epoch=2\n", "epoch\n")
    infile = tmp_path / "in.txt"
    infile.write_text("hi\n", encoding="utf-8")
    assert main(["generate", "--ckpt", str(path), "--in", str(infile),
                 "--out", str(tmp_path / "out.txt")]) == 1
    err = capsys.readouterr().err
    assert re.search(r"^error: %s: config snapshot: line \d+: expected key=value, got 'epoch'$"
                     % re.escape(str(path)), err, re.M), err


@pytest.mark.parametrize("line, bad, typ", [("epoch=2", "x", "int"),
                                            ("best_val=inf", "low", "float"),
                                            ("stale=0", "1.5", "int")])
def test_bad_progress_value_names_the_key(tmp_path, line, bad, typ):
    key = line.split("=")[0]
    path = saved_with_snapshot(tmp_path, line + "\n", "%s=%s\n" % (key, bad))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == "%s: config snapshot: %s expects %s, got %r" % (path, key, typ, bad)


def test_unknown_snapshot_key_is_named_by_snapshot_line(tmp_path):
    path = saved_with_snapshot(tmp_path, "\nhidden_size=", "\nhiden_size=")
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == "%s: config snapshot: line 4: unknown key 'hiden_size'" % path


def test_parse_keeps_every_check():
    model = DialogueModel("aem", tiny_config())
    arrays = {name: p.values for name, p in model.store.items()}
    vocab = Vocabulary(["ab", "cd", "ef"])
    body = checkpoint_bytes(Checkpoint("aem", tiny_config(), vocab, arrays))[:-4]
    assert parse_checkpoint(reseal(body)).vocab.id_to_token[4:] == ["ab", "cd", "ef"]
    for cut in range(len(body)):
        with pytest.raises(CheckpointError, match="^truncated checkpoint$"):
            parse_checkpoint(reseal(body[:cut]))
    with pytest.raises(CheckpointError, match="trailing bytes"):
        parse_checkpoint(reseal(body + b"\0"))
    repeated = body.replace(b"\x02\x00\x00\x00cd", b"\x02\x00\x00\x00ab", 1)
    with pytest.raises(ValueError, match="duplicate token 'ab'"):
        parse_checkpoint(reseal(repeated))
    mistagged = checkpoint_bytes(Checkpoint("seq2seq", tiny_config(), vocab, arrays))
    with pytest.raises(CheckpointError, match="kind tag 'seq2seq' disagrees"):
        parse_checkpoint(mistagged)


def test_repeated_vocabulary_entry_is_named_by_entry():
    model = DialogueModel("aem", tiny_config())
    arrays = {name: p.values for name, p in model.store.items()}
    body = checkpoint_bytes(Checkpoint("aem", tiny_config(), Vocabulary(["ab", "cd", "ef"]),
                                       arrays))[:-4]
    repeated = body.replace(b"\x02\x00\x00\x00cd", b"\x02\x00\x00\x00ab", 1)
    with pytest.raises(CheckpointError) as info:
        parse_checkpoint(reseal(repeated))
    assert str(info.value) == "vocabulary entry 2: duplicate token 'ab'"
    assert "line" not in str(info.value)


def test_repeated_array_name_is_refused(tmp_path):
    model = DialogueModel("aem", tiny_config())
    arrays = {name: p.values for name, p in model.store.items()}
    body = checkpoint_bytes(Checkpoint("aem", tiny_config(), tiny_vocab(), arrays))[:-4]
    names = sorted(arrays)

    def record(name):
        return struct.pack("<I", len(name)) + name.encode("utf-8")

    first, last = body.index(record(names[0])), body.index(record(names[-1]))
    assert body[first - 4:first] == struct.pack("<I", len(names))
    # the last array's record once more, so every name is still present
    repeated = body[:first - 4] + struct.pack("<I", len(names) + 1) + body[first:] + body[last:]
    path = tmp_path / "m.ckpt"
    path.write_bytes(reseal(repeated))
    with pytest.raises(CheckpointError) as info:
        model_from_checkpoint(load_checkpoint(path))
    assert str(info.value) == "%s: array %s appears twice" % (path, names[-1])


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


@pytest.mark.parametrize("leftover", ["hard_link", "symlink"])
def test_save_never_writes_through_a_leftover_temp(tmp_path, leftover):
    # a link step killed before its rename leaves last.ckpt.tmp naming
    # best.ckpt; the next last.ckpt save must not write into that file
    best, last = tmp_path / "best.ckpt", tmp_path / "last.ckpt"
    model, adam = trained_model()
    save_checkpoint(str(best), model, tiny_vocab(), adam, epoch=3)
    before = best.read_bytes()
    stale = tmp_path / "last.ckpt.tmp"
    if leftover == "hard_link":
        os.link(best, stale)
    else:
        stale.symlink_to(best)
    save_checkpoint(str(last), model, tiny_vocab(), adam, epoch=4)
    assert best.read_bytes() == before
    assert load_checkpoint(last).epoch == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt", "last.ckpt"]


def saved_pair(tmp_path):
    """best.ckpt at epoch 3 and an older, separate last.ckpt at epoch 2."""
    best, last = tmp_path / "best.ckpt", tmp_path / "last.ckpt"
    model, adam = trained_model()
    save_checkpoint(str(last), model, tiny_vocab(), adam, epoch=2)
    save_checkpoint(str(best), model, tiny_vocab(), adam, epoch=3)
    return best, last


def test_atomic_link_makes_path_a_second_name_and_leaves_no_temp(tmp_path):
    best, last = saved_pair(tmp_path)
    before = best.read_bytes()
    (tmp_path / "last.ckpt.tmp").write_bytes(b"left by a killed save")
    assert atomic_link(str(best), str(last))
    assert os.path.samefile(best, last)
    assert best.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt", "last.ckpt"]
    # the rename is a no-op when both names already link one file
    assert atomic_link(str(best), str(last))
    assert os.path.samefile(best, last)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt", "last.ckpt"]


def test_atomic_link_refused_leaves_path_untouched(tmp_path, monkeypatch):
    best, last = saved_pair(tmp_path)
    before = last.read_bytes()

    def refuse(*args, **kwargs):
        raise OSError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(aem.checkpoint.os, "link", refuse)
    assert atomic_link(str(best), str(last)) is False
    monkeypatch.undo()
    assert last.read_bytes() == before and not os.path.samefile(best, last)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt", "last.ckpt"]


def test_atomic_link_failing_rename_keeps_path_and_no_temp(tmp_path, monkeypatch):
    best, last = saved_pair(tmp_path)
    before = last.read_bytes()

    def fail(*args):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(aem.checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="Input/output"):
        atomic_link(str(best), str(last))
    monkeypatch.undo()
    assert last.read_bytes() == before and not os.path.samefile(best, last)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt", "last.ckpt"]


MISMATCH = "vocabulary has 8 entries but the model was built for 7"


def test_save_rejects_vocabulary_of_another_size_and_keeps_previous_file(tmp_path):
    path = tmp_path / "last.ckpt"
    model, adam = trained_model()
    save_checkpoint(str(path), model, tiny_vocab(), adam, epoch=3)
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match=MISMATCH):
        save_checkpoint(str(path), model, Vocabulary(["hi", "there", "you", "all"]), adam,
                        epoch=4)
    assert path.read_bytes() == before
    assert load_checkpoint(path).epoch == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]


def test_load_rejects_vocabulary_of_another_size(tmp_path):
    # a file whose vocabulary disagrees with its embedding tables
    path = tmp_path / "last.ckpt"
    model, adam = trained_model()
    save_checkpoint(str(path), model, tiny_vocab(), adam)
    ckpt = load_checkpoint(path)
    ckpt.vocab = Vocabulary(["hi", "there", "you", "all"])
    path.write_bytes(checkpoint_bytes(ckpt))
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ": " + MISMATCH):
        load_checkpoint(path)


def test_load_errors_name_the_file(tmp_path):
    path = tmp_path / "last.ckpt"
    model, adam = trained_model()
    save_checkpoint(str(path), model, tiny_vocab(), adam)
    path.write_bytes(path.read_bytes()[:-1] + b"\x00")
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ": checksum mismatch"):
        load_checkpoint(path)


@pytest.mark.parametrize("with_optimizer", [False, True])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_load_draws_no_random_numbers(tmp_path, monkeypatch, kind, with_optimizer):
    model, adam = trained_model(kind=kind, steps=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam)
    ckpt = load_checkpoint(path)

    def no_draw(*args):
        raise AssertionError("loading drew random numbers")

    monkeypatch.setattr(SplitMix64, "fill_uniform", no_draw)
    loaded = model_from_checkpoint(ckpt, with_optimizer=with_optimizer)
    again = loaded[0] if with_optimizer else loaded
    for name, p in model.store.items():
        assert again.store[name].values.tobytes() == p.values.tobytes()
    if with_optimizer:
        for name in model.store.names():
            assert loaded[1].m[name].tobytes() == adam.m[name].tobytes()
            assert loaded[1].v[name].tobytes() == adam.v[name].tobytes()


def saved_with_optimizer(tmp_path):
    model, adam = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab(), adam)
    return load_checkpoint(path)


@pytest.mark.parametrize("with_optimizer", [False, True])
@pytest.mark.parametrize("prefix", ["adam.m.", "adam.v."])
def test_moment_of_wrong_shape_rejected(tmp_path, prefix, with_optimizer):
    ckpt = saved_with_optimizer(tmp_path)
    key = prefix + "theta.src_enc.W"
    assert ckpt.arrays[key].shape == (3, 16)
    ckpt.arrays[key] = np.zeros(16, dtype=np.float32)  # would broadcast into (3, 16)
    with pytest.raises(CheckpointError, match=re.escape("%s has shape (16,), expected (3, 16)" % key)):
        model_from_checkpoint(ckpt, with_optimizer=with_optimizer)


@pytest.mark.parametrize("with_optimizer", [False, True])
@pytest.mark.parametrize("key", ["adam.v.bogus", "adam.m.theta.src_enc.W.extra", "adam.bogus"])
def test_unknown_moment_rejected(tmp_path, key, with_optimizer):
    ckpt = saved_with_optimizer(tmp_path)
    ckpt.arrays[key] = np.zeros(2, dtype=np.float32)
    with pytest.raises(CheckpointError, match="unexpected %s" % re.escape(key)):
        model_from_checkpoint(ckpt, with_optimizer=with_optimizer)


@pytest.mark.parametrize("with_optimizer", [False, True])
@pytest.mark.parametrize("key", ["adam.m.gamma.map.W1", "adam.v.phi.embed.W"])
def test_missing_moment_rejected(tmp_path, key, with_optimizer):
    ckpt = saved_with_optimizer(tmp_path)
    del ckpt.arrays[key]
    with pytest.raises(CheckpointError, match="missing %s" % re.escape(key)):
        model_from_checkpoint(ckpt, with_optimizer=with_optimizer)


def test_optimizer_wanted_from_checkpoint_without_moments_names_them(tmp_path):
    model, _ = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, tiny_vocab())
    ckpt = load_checkpoint(path)
    assert model_from_checkpoint(ckpt).store.names() == model.store.names()
    with pytest.raises(CheckpointError, match="missing adam.m.gamma.map.W1, "):
        model_from_checkpoint(ckpt, with_optimizer=True)


def test_every_misfit_is_named_at_once(tmp_path):
    ckpt = saved_with_optimizer(tmp_path)
    del ckpt.arrays["gamma.map.W1"]
    ckpt.arrays["theta.extra"] = np.zeros(1, dtype=np.float32)
    ckpt.arrays["phi.embed.W"] = np.zeros((7, 2), dtype=np.float32)
    with pytest.raises(CheckpointError) as err:
        model_from_checkpoint(ckpt)
    assert str(err.value) == ("arrays do not fit the parameters: missing gamma.map.W1;"
                              " unexpected theta.extra; phi.embed.W has shape (7, 2),"
                              " expected (7, 3)")


def test_models_loaded_from_one_checkpoint_share_no_arrays(tmp_path):
    ckpt = saved_with_optimizer(tmp_path)
    stored = {name: values.copy() for name, values in ckpt.arrays.items()}
    first, adam = model_from_checkpoint(ckpt, with_optimizer=True)
    second, second_adam = model_from_checkpoint(ckpt, with_optimizer=True)
    first.train_step(toy_batch(), adam)
    for name, p in second.store.items():
        assert p.values.tobytes() == stored[name].tobytes()
        assert second_adam.m[name].tobytes() == stored["adam.m." + name].tobytes()
        assert second_adam.v[name].tobytes() == stored["adam.v." + name].tobytes()
        assert not np.array_equal(first.store[name].values, p.values)
    for name, values in ckpt.arrays.items():
        assert values.tobytes() == stored[name].tobytes()

import errno
import math
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

import aem.checkpoint
import aem.cli
from aem.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from aem.cli import fit, main
from aem.data import UNK_ID, Vocabulary, build_vocab, load_corpus
from aem.model import DialogueModel, LossBreakdown
from helpers import HalfWrite, tiny_config, toy_batch, toy_pairs, traced_bytes

TOY_PAIRS = [
    ("hello there", "hi friend"),
    ("how are you", "i am fine"),
    ("what is your name", "my name is sam"),
    ("good morning", "morning to you"),
    ("see you later", "bye for now"),
    ("nice weather today", "yes very sunny"),
]


def write_corpus(path, pairs):
    path.write_text("".join("%s\t%s\n" % p for p in pairs), encoding="utf-8")


def write_config(tmp_path, **overrides):
    fields = dict(hidden_size=16, embed_size=8, vocab_size=100, batch_size=3,
                  epochs=2, seed=5, kind="aem",
                  train_path=str(tmp_path / "train.tsv"),
                  valid_path=str(tmp_path / "valid.tsv"),
                  ckpt_dir=str(tmp_path / "ckpt"))
    fields.update(overrides)
    text = "".join("%s=%s\n" % (k, v) for k, v in fields.items())
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    return cfg_path


@pytest.fixture
def workspace(tmp_path):
    write_corpus(tmp_path / "train.tsv", TOY_PAIRS[:5])
    write_corpus(tmp_path / "valid.tsv", TOY_PAIRS[5:])
    return tmp_path


def _ignore(path, epoch, model):
    pass


def hook_checkpoint_writes(monkeypatch, before=_ignore, after=_ignore):
    """Patch both ways `aem train` writes a checkpoint file, a save and the
    link of last.ckpt to the best.ckpt just saved, so that every write
    calls before(path, epoch, model) ahead of it and after(path, epoch,
    model) once it is done. A link carries the epoch and model of the save
    it links to."""
    save, link = aem.cli.save_checkpoint, aem.cli.atomic_link
    saved = {}

    def hooked_save(path, model, *args, epoch, **kwargs):
        saved.update(epoch=epoch, model=model)
        before(path, epoch, model)
        save(path, model, *args, epoch=epoch, **kwargs)
        after(path, epoch, model)

    def hooked_link(src, path):
        before(path, **saved)
        linked = link(src, path)
        if linked:
            after(path, **saved)
        return linked

    monkeypatch.setattr(aem.cli, "save_checkpoint", hooked_save)
    monkeypatch.setattr(aem.cli, "atomic_link", hooked_link)


def temp_files(ckpt_dir):
    return sorted(p.name for p in ckpt_dir.iterdir() if p.name.endswith(".tmp"))


def test_train_writes_checkpoints_and_metrics(workspace, capsys):
    cfg = write_config(workspace)
    assert main(["train", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("epoch=")]
    assert len(lines) == 2
    for key in ("j1=", "j2=", "j3=", "j4=", "total=", "val_total="):
        assert key in lines[0]
    ckpt_dir = workspace / "ckpt"
    assert (ckpt_dir / "last.ckpt").is_file()
    assert (ckpt_dir / "best.ckpt").is_file()
    assert (ckpt_dir / "vocab.txt").is_file()
    logged = (ckpt_dir / "metrics.log").read_text(encoding="utf-8").splitlines()
    assert logged == lines


def test_train_missing_corpus_fails_cleanly(workspace, capsys):
    cfg = write_config(workspace, train_path=str(workspace / "nowhere.tsv"))
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("unset, flags, message", [
    ("train_path", [], "error: training corpus path is not set\n"),
    ("valid_path", ["--merge-valid"], "error: validation corpus path is not set\n"),
], ids=["train", "merge_valid"])
def test_train_unset_corpus_path_is_named(workspace, capsys, unset, flags, message):
    cfg = write_config(workspace, **{unset: ""})
    assert main(["train", "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == message
    assert not (workspace / "ckpt").exists()


def test_train_refuses_non_finite_setting_by_name(workspace, capsys):
    cfg = write_config(workspace)
    assert main(["train", "--config", str(cfg), "--set", "learning_rate=nan"]) == 1
    assert capsys.readouterr().err == "error: learning_rate must be finite, got nan\n"
    assert not (workspace / "ckpt").exists()


def test_train_empty_corpus_names_its_file(workspace, capsys):
    (workspace / "train.tsv").write_text("", encoding="utf-8")
    cfg = write_config(workspace)
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: training corpus %s has no pair with two non-empty sides\n"
        % (workspace / "train.tsv"))


@pytest.mark.parametrize("merge", [False, True])
def test_train_validation_without_usable_pair_names_its_file(workspace, capsys, merge):
    # a pair with an empty side is skipped, so this file holds no pair;
    # before, training ran and selected on the training loss
    (workspace / "valid.tsv").write_text("\tx\n", encoding="utf-8")
    cfg = write_config(workspace)
    assert main(["train", "--config", str(cfg)] + ["--merge-valid"] * merge) == 1
    err = capsys.readouterr().err
    assert err.endswith("error: validation corpus %s has no pair with two non-empty sides\n"
                        % (workspace / "valid.tsv"))
    assert not (workspace / "ckpt").exists()


def test_train_rejects_unknown_override(workspace, capsys):
    cfg = write_config(workspace)
    assert main(["train", "--config", str(cfg), "--set", "hiden_size=8"]) == 1
    assert "unknown" in capsys.readouterr().err


def test_train_rejects_override_without_equals(workspace, capsys):
    cfg = write_config(workspace)
    assert main(["train", "--config", str(cfg), "--set", "foo"]) == 1
    err = capsys.readouterr().err
    assert "'foo'" in err and "KEY=VALUE" in err


def test_train_determinism_and_baseline_checkpoint(workspace):
    cfg = write_config(workspace, kind="seq2seq")
    assert main(["train", "--config", str(cfg)]) == 0
    first = (workspace / "ckpt" / "last.ckpt").read_bytes()
    ckpt = load_checkpoint(workspace / "ckpt" / "last.ckpt")
    assert ckpt.kind == "seq2seq"
    assert not any(n.startswith("gamma.") for n in ckpt.arrays)
    # wipe and retrain: identical bytes
    for name in ("last.ckpt", "best.ckpt", "metrics.log", "vocab.txt"):
        os.remove(workspace / "ckpt" / name)
    assert main(["train", "--config", str(cfg)]) == 0
    assert (workspace / "ckpt" / "last.ckpt").read_bytes() == first


def test_resume_continues_identically(workspace, capsys):
    cfg4 = write_config(workspace, epochs=4)
    assert main(["train", "--config", str(cfg4)]) == 0
    straight = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]

    two_dir = workspace / "ckpt2"
    cfg2 = write_config(workspace, epochs=2, ckpt_dir=str(two_dir))
    assert main(["train", "--config", str(cfg2)]) == 0
    capsys.readouterr()
    cfg4b = write_config(workspace, epochs=4, ckpt_dir=str(two_dir))
    assert main(["train", "--config", str(cfg4b),
                 "--resume", str(two_dir / "last.ckpt")]) == 0
    resumed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
    assert resumed == straight[2:]


def test_resume_validates_with_the_checkpoint_seed(workspace, capsys):
    # equal-length validation sources and more pairs than batch_size: which
    # pairs share a batch, and so val_total, depends on the shuffle's seed
    write_corpus(workspace / "valid.tsv", [
        ("good morning", "morning to you"), ("see you", "bye for now"),
        ("nice weather", "yes very sunny"), ("hello there", "hi"),
        ("how are", "i am fine thanks"), ("your name", "sam"), ("good night", "sleep")])
    straight_dir, split_dir = workspace / "straight", workspace / "split"
    cfg = write_config(workspace, epochs=4, ckpt_dir=str(straight_dir))
    assert main(["train", "--config", str(cfg)]) == 0
    cfg = write_config(workspace, epochs=2, ckpt_dir=str(split_dir))
    assert main(["train", "--config", str(cfg)]) == 0
    cfg = write_config(workspace, epochs=4, ckpt_dir=str(split_dir))
    # the checkpoint's seed (5) wins over the flag for every batch
    assert main(["train", "--config", str(cfg), "--set", "seed=2",
                 "--resume", str(split_dir / "last.ckpt")]) == 0
    capsys.readouterr()
    straight = (straight_dir / "metrics.log").read_text(encoding="utf-8")
    assert len(straight.splitlines()) == 4
    assert (split_dir / "metrics.log").read_text(encoding="utf-8") == straight


def test_resume_tokenizes_with_the_checkpoint_lowercase(workspace, capsys):
    # the vocabulary was built lower-cased: a resume told lowercase=false
    # must not read the mixed-case corpus as all <unk>
    mixed = [(a.title(), b.upper()) for a, b in TOY_PAIRS]
    write_corpus(workspace / "train.tsv", mixed[:5])
    write_corpus(workspace / "valid.tsv", mixed[5:])
    plain_dir, flagged_dir = workspace / "plain", workspace / "flagged"
    assert main(["train", "--config", str(write_config(workspace, ckpt_dir=str(plain_dir)))]) == 0
    shutil.copytree(plain_dir, flagged_dir)
    for ckpt_dir, extra in ((plain_dir, []), (flagged_dir, ["--set", "lowercase=false"])):
        cfg = write_config(workspace, epochs=3, ckpt_dir=str(ckpt_dir))
        assert main(["train", "--config", str(cfg), "--resume", str(ckpt_dir / "last.ckpt"),
                     *extra]) == 0
    capsys.readouterr()
    for name in ("metrics.log", "last.ckpt"):
        assert (flagged_dir / name).read_bytes() == (plain_dir / name).read_bytes()
    assert len((plain_dir / "metrics.log").read_text(encoding="utf-8").splitlines()) == 3


def test_resume_keeps_early_stopping_count(workspace, capsys):
    straight_dir = workspace / "straight"
    cfg = write_config(workspace, epochs=6, patience=2, ckpt_dir=str(straight_dir))
    assert main(["train", "--config", str(cfg)]) == 0
    assert "stopping" in capsys.readouterr().err
    straight = (straight_dir / "metrics.log").read_text(encoding="utf-8")
    stopped_at = len(straight.splitlines())
    assert stopped_at < 6

    # stop one epoch short of the early stop, while the count is running
    split_dir = workspace / "split"
    cfg = write_config(workspace, epochs=stopped_at - 1, patience=2, ckpt_dir=str(split_dir))
    assert main(["train", "--config", str(cfg)]) == 0
    assert load_checkpoint(split_dir / "last.ckpt").stale >= 1
    cfg = write_config(workspace, epochs=6, patience=2, ckpt_dir=str(split_dir))
    assert main(["train", "--config", str(cfg),
                 "--resume", str(split_dir / "last.ckpt")]) == 0
    assert "stopping" in capsys.readouterr().err
    assert (split_dir / "metrics.log").read_text(encoding="utf-8") == straight


def test_resume_after_crash_between_metrics_and_checkpoint(workspace, monkeypatch):
    # epoch 3's metrics line is written, then its last.ckpt save dies
    cfg = write_config(workspace, epochs=5, patience=5)
    ckpt_dir = workspace / "ckpt"
    names = ("metrics.log", "last.ckpt", "best.ckpt")
    assert main(["train", "--config", str(cfg)]) == 0
    straight = {name: (ckpt_dir / name).read_bytes() for name in names}
    assert len(straight["metrics.log"].splitlines()) == 5
    for name in names:
        os.remove(ckpt_dir / name)

    def die(path, epoch, model):
        if epoch == 3 and path.endswith("last.ckpt"):
            raise OSError("killed while saving")

    hook_checkpoint_writes(monkeypatch, before=die)
    assert main(["train", "--config", str(cfg)]) == 1
    monkeypatch.undo()
    assert len((ckpt_dir / "metrics.log").read_text(encoding="utf-8").splitlines()) == 3
    assert main(["train", "--config", str(cfg), "--resume", str(ckpt_dir / "last.ckpt")]) == 0
    for name in names:
        assert (ckpt_dir / name).read_bytes() == straight[name], name


@pytest.mark.parametrize("window", ["first", "last", "mid_link"])
@pytest.mark.parametrize("killed_in", [1, 2, 3])
@pytest.mark.parametrize("kind", ["aem", "seq2seq_attention"])
def test_kill_after_a_checkpoint_write_then_restart_matches_uninterrupted_run(
        workspace, monkeypatch, kind, killed_in, window):
    # the run dies right after epoch `killed_in`'s first or last checkpoint
    # write (a save or the link of last.ckpt), or (mid_link) once
    # last.ckpt.tmp links best.ckpt, as a link killed before its rename
    # leaves it: on an improving epoch after its best.ckpt write, else
    # where its last.ckpt save would write through such a leftover. Then
    # it resumes from last.ckpt, or starts afresh if there is none
    cfg = write_config(workspace, kind=kind, epochs=6, patience=2)
    ckpt_dir = workspace / "ckpt"
    names = ("metrics.log", "last.ckpt", "best.ckpt")
    writes = []
    hook_checkpoint_writes(monkeypatch, after=lambda path, epoch, model: writes.append(epoch))
    assert main(["train", "--config", str(cfg)]) == 0
    monkeypatch.undo()
    assert max(writes) >= 3
    straight = {name: (ckpt_dir / name).read_bytes() for name in names}
    for name in names:
        os.remove(ckpt_dir / name)

    kill_at = writes.count(killed_in) if window == "last" else 1
    seen = []

    def die_after(path, epoch, model):
        seen.append(epoch)
        if seen.count(killed_in) == kill_at:
            raise OSError("killed after writing %s" % path)

    def die_mid_link(path, epoch, model):
        if epoch == killed_in and path.endswith("last.ckpt"):
            os.link(ckpt_dir / "best.ckpt", path + ".tmp")
            raise OSError("killed while linking %s" % path)

    if window == "mid_link":
        hook_checkpoint_writes(monkeypatch, before=die_mid_link)
    else:
        hook_checkpoint_writes(monkeypatch, after=die_after)
    assert main(["train", "--config", str(cfg)]) == 1
    monkeypatch.undo()
    if window == "mid_link":
        assert temp_files(ckpt_dir) == ["last.ckpt.tmp"]
        assert os.path.samefile(ckpt_dir / "last.ckpt.tmp", ckpt_dir / "best.ckpt")
    for name in ("last.ckpt", "best.ckpt"):
        if (ckpt_dir / name).exists():
            load_checkpoint(ckpt_dir / name)
    last = ckpt_dir / "last.ckpt"
    resume = ["--resume", str(last)] if last.exists() else []
    assert main(["train", "--config", str(cfg)] + resume) == 0
    for name in names:
        assert (ckpt_dir / name).read_bytes() == straight[name], name
    assert temp_files(ckpt_dir) == []


def counted_saves(monkeypatch):
    """The epochs of aem train's save_checkpoint calls, one per call."""
    save, epochs = aem.cli.save_checkpoint, []

    def counted(path, *args, epoch, **kwargs):
        epochs.append(epoch)
        save(path, *args, epoch=epoch, **kwargs)

    monkeypatch.setattr(aem.cli, "save_checkpoint", counted)
    return epochs


def test_improving_epoch_saves_once_and_links_last_to_best(workspace, monkeypatch):
    saves = counted_saves(monkeypatch)
    assert main(["train", "--config", str(write_config(workspace, epochs=1))]) == 0
    ckpt_dir = workspace / "ckpt"
    assert saves == [1]
    assert os.path.samefile(ckpt_dir / "best.ckpt", ckpt_dir / "last.ckpt")
    assert load_checkpoint(ckpt_dir / "last.ckpt").epoch == 1
    assert temp_files(ckpt_dir) == []


def test_non_improving_epoch_writes_last_alone_and_leaves_best_whole(workspace):
    assert main(["train", "--config", str(write_config(workspace, epochs=1))]) == 0
    ckpt_dir = workspace / "ckpt"
    best = ckpt_dir / "best.ckpt"
    kept = (best.read_bytes(), best.stat().st_ino)
    # resume under a best validation total no epoch can beat; written to a
    # file of its own, as best.ckpt and last.ckpt are one file
    resume = workspace / "resume.ckpt"
    resume.write_bytes(checkpoint_bytes(
        replace(load_checkpoint(ckpt_dir / "last.ckpt"), best_val=0.0)))
    assert main(["train", "--config", str(write_config(workspace, epochs=2)),
                 "--resume", str(resume)]) == 0
    last = load_checkpoint(ckpt_dir / "last.ckpt")
    assert (last.epoch, last.stale) == (2, 1)
    assert not os.path.samefile(best, ckpt_dir / "last.ckpt")
    assert (best.read_bytes(), best.stat().st_ino) == kept
    assert temp_files(ckpt_dir) == []


def test_refused_hard_link_saves_last_as_a_second_file(workspace, monkeypatch):
    cfg = write_config(workspace, epochs=1)
    ckpt_dir = workspace / "ckpt"
    assert main(["train", "--config", str(cfg)]) == 0
    linked = (ckpt_dir / "last.ckpt").read_bytes()

    def refuse(src, dst, **kwargs):
        raise OSError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(os, "link", refuse)
    saves = counted_saves(monkeypatch)
    assert main(["train", "--config", str(cfg)]) == 0
    assert saves == [1, 1]
    assert not os.path.samefile(ckpt_dir / "best.ckpt", ckpt_dir / "last.ckpt")
    assert (ckpt_dir / "best.ckpt").read_bytes() == (ckpt_dir / "last.ckpt").read_bytes() == linked
    assert temp_files(ckpt_dir) == []


def test_fresh_run_starts_the_metrics_log_empty(workspace, capsys):
    cfg = write_config(workspace, epochs=2)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
    assert len(lines) == 4
    logged = (workspace / "ckpt" / "metrics.log").read_text(encoding="utf-8").splitlines()
    assert logged == lines[2:]


def test_fresh_run_removes_an_older_runs_checkpoints(workspace, capsys, monkeypatch):
    # a fresh run empties metrics.log; were the older run's checkpoints
    # kept until its first save, a crash before it and a --resume would
    # continue the older run under the new run's log
    assert main(["train", "--config", str(write_config(workspace, epochs=2, seed=1))]) == 0
    ckpt_dir = workspace / "ckpt"
    assert (ckpt_dir / "last.ckpt").is_file() and (ckpt_dir / "best.ckpt").is_file()

    def die(path, *args, **kwargs):
        raise OSError("killed before saving %s" % path)

    monkeypatch.setattr(aem.cli, "save_checkpoint", die)
    cfg = write_config(workspace, epochs=2, seed=2)
    assert main(["train", "--config", str(cfg)]) == 1
    monkeypatch.undo()
    assert not (ckpt_dir / "last.ckpt").exists() and not (ckpt_dir / "best.ckpt").exists()
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--resume", str(ckpt_dir / "last.ckpt")]) == 1
    assert str(ckpt_dir / "last.ckpt") in capsys.readouterr().err


def test_metrics_trim_that_fails_midway_keeps_the_whole_log(tmp_path, monkeypatch):
    # the trim on resume or a fresh start replaces the log whole: a write
    # that dies midway (a kill, a full disk) leaves every epoch it had
    path = tmp_path / "metrics.log"
    path.write_text("".join("epoch=%d total=1.0\n" % n for n in (1, 2, 3)), encoding="utf-8")
    before = path.read_bytes()

    def half_writing_open(file, mode="r", **kwargs):
        f = open(file, mode, **kwargs)
        return HalfWrite(f) if "w" in mode else f

    for module in (aem.cli, aem.checkpoint):
        monkeypatch.setattr(module, "open", half_writing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        aem.cli._drop_metrics_after(str(path), 1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.log"]
    aem.cli._drop_metrics_after(str(path), 1)
    assert path.read_text(encoding="utf-8") == "epoch=1 total=1.0\n"


def test_vocabulary_and_report_writes_that_fail_midway_leave_the_old_files(workspace, capsys,
                                                                             monkeypatch):
    # both are replaced whole: a truncated vocabulary would load, and the
    # next fresh run would train on it
    ckpt_dir = workspace / "ckpt"
    ckpt_dir.mkdir()
    hyp, report = workspace / "hyp.txt", workspace / "report.txt"
    hyp.write_text("a b c d\n", encoding="utf-8")
    report.write_text("older report\n", encoding="utf-8")

    def half_writing_open(file, mode="r", **kwargs):
        f = open(file, mode, **kwargs)
        return HalfWrite(f) if "w" in mode else f

    monkeypatch.setattr(aem.checkpoint, "open", half_writing_open, raising=False)
    cfg = write_config(workspace, epochs=1)
    assert main(["train", "--config", str(cfg)]) == 1
    assert list(ckpt_dir.iterdir()) == []  # absent
    (ckpt_dir / "vocab.txt").write_text("older\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 1
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--out", str(report)]) == 1
    assert capsys.readouterr().err.count("No space left on device") == 3
    assert [p.name for p in ckpt_dir.iterdir()] == ["vocab.txt"]
    assert (ckpt_dir / "vocab.txt").read_text(encoding="utf-8") == "older\n"
    assert report.read_text(encoding="utf-8") == "older report\n"
    assert not (workspace / "report.txt.tmp").exists()
    monkeypatch.undo()
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--out", str(report)]) == 0
    assert "bleu4=100.0000" in report.read_text(encoding="utf-8")


@pytest.mark.parametrize("lowercase", [True, False])
def test_train_checks_vocabulary_file_case_against_lowercase(workspace, capsys, lowercase):
    vocab_path = workspace / "vocab.txt"
    vocab_path.write_text("hello\nThere\n", encoding="utf-8")
    cfg = write_config(workspace, epochs=1, vocab_path=str(vocab_path),
                       lowercase=str(lowercase).lower())
    if lowercase:
        assert main(["train", "--config", str(cfg)]) == 1
        assert ("error: %s line 2: 'There' is not lower case" % vocab_path
                in capsys.readouterr().err)
    else:
        assert main(["train", "--config", str(cfg)]) == 0
        assert load_checkpoint(workspace / "ckpt" / "last.ckpt").vocab.id_to_token[4:] == [
            "hello", "There"]


def test_fresh_run_rejects_malformed_metrics_log(workspace, capsys):
    metrics = workspace / "ckpt" / "metrics.log"
    metrics.parent.mkdir()
    metrics.write_text("garbage\n", encoding="utf-8")
    cfg = write_config(workspace, epochs=1)
    assert main(["train", "--config", str(cfg)]) == 1
    assert ("error: %s line 1: expected epoch=<n> first" % metrics
            in capsys.readouterr().err)
    assert not (workspace / "ckpt" / "last.ckpt").exists()


def test_resume_rejects_malformed_metrics_log(workspace, capsys):
    cfg = write_config(workspace, epochs=1)
    assert main(["train", "--config", str(cfg)]) == 0
    metrics = workspace / "ckpt" / "metrics.log"
    metrics.write_text(metrics.read_text(encoding="utf-8") + "garbage\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg),
                 "--resume", str(workspace / "ckpt" / "last.ckpt")]) == 1
    assert "metrics.log line 2" in capsys.readouterr().err


def test_resume_after_early_stop_trains_nothing(workspace, capsys):
    cfg = write_config(workspace, epochs=6, patience=2)
    assert main(["train", "--config", str(cfg)]) == 0
    assert "stopping" in capsys.readouterr().err
    ckpt_dir = workspace / "ckpt"
    names = ("metrics.log", "best.ckpt", "last.ckpt")
    before = {n: (ckpt_dir / n).read_bytes() for n in names}
    stopped_at = len(before["metrics.log"].splitlines())
    assert stopped_at < 6

    assert main(["train", "--config", str(cfg), "--resume", str(ckpt_dir / "last.ckpt")]) == 0
    captured = capsys.readouterr()
    assert "already flat" in captured.err and "epoch %d" % stopped_at in captured.err
    assert "epoch=" not in captured.out
    assert {n: (ckpt_dir / n).read_bytes() for n in names} == before


def test_resume_at_or_past_epochs_says_so(workspace, capsys):
    cfg = write_config(workspace, epochs=2)
    assert main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    last = workspace / "ckpt" / "last.ckpt"
    before = last.read_bytes()
    for epochs in (2, 1):
        cfg = write_config(workspace, epochs=epochs)
        assert main(["train", "--config", str(cfg), "--resume", str(last)]) == 0
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert "\n" not in err and "epoch 2" in err and "epochs=%d" % epochs in err
        assert "epoch=" not in captured.out
    assert last.read_bytes() == before


def test_resume_uses_checkpoint_vocabulary(workspace, capsys):
    cfg = write_config(workspace, epochs=1)
    assert main(["train", "--config", str(cfg)]) == 0
    last = workspace / "ckpt" / "last.ckpt"
    original = load_checkpoint(last).vocab.id_to_token
    merged = load_corpus(workspace / "train.tsv") + load_corpus(workspace / "valid.tsv")
    rebuilt = build_vocab((side for p in merged for side in (p.source, p.target)), max_size=100)
    assert rebuilt.id_to_token != original

    cfg = write_config(workspace, epochs=2)
    assert main(["train", "--config", str(cfg), "--merge-valid", "--resume", str(last)]) == 0
    resumed = load_checkpoint(last)
    assert resumed.epoch == 2
    assert resumed.vocab.id_to_token == original
    line = (workspace / "ckpt" / "metrics.log").read_text(encoding="utf-8").splitlines()[-1]
    assert line.startswith("epoch=2 ")
    assert all(np.isfinite(float(field.split("=")[1])) for field in line.split()[1:])


def test_merge_valid_trains_on_both(workspace, capsys):
    cfg = write_config(workspace, epochs=1)
    assert main(["train", "--config", str(cfg), "--merge-valid"]) == 0
    capsys.readouterr()
    vocab_text = (workspace / "ckpt" / "vocab.txt").read_text(encoding="utf-8")
    assert "sunny" in vocab_text.split()  # token only present in the valid set


def test_train_keeps_case_when_lowercase_is_off(workspace, capsys):
    write_corpus(workspace / "train.tsv", [("Hello There", "Hi Friend"), ("hello", "hi")])
    write_corpus(workspace / "valid.tsv", [("Hello", "Hi Friend")])
    cfg = write_config(workspace, epochs=1, lowercase="false")
    assert main(["train", "--config", str(cfg)]) == 0
    vocab = Vocabulary.load(workspace / "ckpt" / "vocab.txt", lowercase=False)
    assert {"Hello", "There", "Hi", "Friend", "hello", "hi"} == set(vocab.id_to_token[4:])
    assert UNK_ID not in vocab.encode("Hello There".split())


def test_train_on_corpus_holding_a_special_token(workspace, capsys):
    write_corpus(workspace / "train.tsv", [("hello <unk>", "hi"), ("<unk>", "hello")])
    cfg = write_config(workspace, epochs=1)
    assert main(["train", "--config", str(cfg)]) == 0
    vocab_lines = (workspace / "ckpt" / "vocab.txt").read_text(encoding="utf-8").split()
    assert vocab_lines == ["hello", "hi"]


@pytest.mark.parametrize("corpus, side", [("train.tsv", "source"), ("valid.tsv", "target")])
@pytest.mark.parametrize("token", ["<pad>", "<BOS>", "<eos>"])
def test_reserved_token_in_corpus_names_file_line_and_side(workspace, capsys, corpus, side,
                                                           token):
    path = workspace / corpus
    reserved = ("hello %s" % token, "hi") if side == "source" else ("hello", "hi %s" % token)
    write_corpus(path, [("fine", "thanks"), reserved])
    cfg = write_config(workspace, epochs=1)
    assert main(["train", "--config", str(cfg)]) == 1
    assert ("error: %s line 2: reserved token %r in the %s" % (path, token.lower(), side)
            in capsys.readouterr().err)
    assert not (workspace / "ckpt" / "last.ckpt").exists()


def trained_checkpoint(workspace, **overrides):
    cfg = write_config(workspace, **overrides)
    assert main(["train", "--config", str(cfg)]) == 0
    return workspace / "ckpt" / "last.ckpt"


def test_generate_end_to_end(workspace, capsys, tmp_path):
    ckpt = trained_checkpoint(workspace, epochs=1)
    infile = workspace / "in.txt"
    infile.write_text("hello there\nHow are YOU\n", encoding="utf-8")
    outfile = workspace / "out.txt"
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile)]) == 0
    lines = outfile.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    for line in lines:
        assert len(line.split()) <= 15
        for tok in line.split():
            assert tok not in ("<pad>", "<bos>")
    # byte-identical on a second run
    again = workspace / "out2.txt"
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == outfile.read_bytes()


GEN_LINES = ["hello there", "how are you", "good morning to you", "bye", "what is your name",
             "nice weather today", "see you later"]


def two_line_chunks(ckpt, monkeypatch):
    """_BLOCK_LOGITS patched to two rows of the checkpoint's logits, so
    generate decodes two lines at a time; returns the list that each
    decoded chunk's line count is appended to."""
    v = load_checkpoint(ckpt).config.vocab_size
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 2 * v)
    chunks, decode = [], DialogueModel._generate_chunk

    def counted(self, sources, max_len):
        chunks.append(len(sources))
        return decode(self, sources, max_len)

    monkeypatch.setattr(DialogueModel, "_generate_chunk", counted)
    return chunks


def test_generate_over_several_chunks_writes_one_batchs_bytes(workspace, monkeypatch):
    ckpt = trained_checkpoint(workspace, epochs=1)
    infile, whole, chunked = (workspace / name for name in ("in.txt", "whole.txt", "out.txt"))
    infile.write_text("".join(line + "\n" for line in GEN_LINES), encoding="utf-8")
    generate = lambda out: main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                                 "--out", str(out)])
    assert generate(whole) == 0
    chunks = two_line_chunks(ckpt, monkeypatch)
    assert generate(chunked) == 0
    assert chunks == [2, 2, 2, 1]
    assert chunked.read_bytes() == whole.read_bytes()
    assert len(whole.read_text(encoding="utf-8").splitlines()) == len(GEN_LINES)


def test_generate_late_empty_line_leaves_out_as_it_was(workspace, capsys, monkeypatch):
    ckpt = trained_checkpoint(workspace, epochs=1)
    infile, outfile = workspace / "in.txt", workspace / "out.txt"
    lines = GEN_LINES[:5] + [""] + GEN_LINES[5:]
    infile.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    outfile.write_bytes(b"an older reply\n")
    chunks = two_line_chunks(ckpt, monkeypatch)
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile)]) == 1
    assert "error: %s: input line 6 is empty" % infile in capsys.readouterr().err
    # two chunks were decoded and written before line 6 was read
    assert chunks == [2, 2]
    assert outfile.read_bytes() == b"an older reply\n"
    assert sorted(p.name for p in workspace.iterdir() if p.name.startswith("out")) == ["out.txt"]


def test_generate_may_write_its_replies_over_its_input(workspace, monkeypatch):
    ckpt = trained_checkpoint(workspace, epochs=1)
    infile, outfile = workspace / "in.txt", workspace / "out.txt"
    infile.write_text("".join(line + "\n" for line in GEN_LINES), encoding="utf-8")
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile)]) == 0
    two_line_chunks(ckpt, monkeypatch)
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(infile)]) == 0
    assert infile.read_bytes() == outfile.read_bytes()


def test_generate_rejects_empty_line(workspace, capsys):
    ckpt = trained_checkpoint(workspace, epochs=1)
    infile = workspace / "in.txt"
    infile.write_text("hello\n\nhi\n", encoding="utf-8")
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(workspace / "out.txt")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_generate_empty_line_error_names_the_input_file(workspace, capsys):
    ckpt = trained_checkpoint(workspace, epochs=1)
    infile = workspace / "in.txt"
    infile.write_text("hello\n\nhi\n", encoding="utf-8")
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(workspace / "out.txt")]) == 1
    assert "error: %s: input line 2 is empty" % infile in capsys.readouterr().err


def test_generate_empty_input_file_writes_empty_output(workspace, capsys):
    ckpt = trained_checkpoint(workspace, epochs=1)
    infile = workspace / "in.txt"
    infile.write_text("", encoding="utf-8")
    outfile = workspace / "out.txt"
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(outfile)]) == 0
    assert outfile.read_bytes() == b""


def test_generate_corrupted_checkpoint_names_the_file(workspace, capsys):
    ckpt = trained_checkpoint(workspace, epochs=1)
    data = bytearray(ckpt.read_bytes())
    data[len(data) // 2] ^= 0x01
    ckpt.write_bytes(bytes(data))
    infile = workspace / "in.txt"
    infile.write_text("hello\n", encoding="utf-8")
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(workspace / "out.txt")]) == 1
    assert "error: %s: checksum mismatch" % ckpt in capsys.readouterr().err


def test_misfit_arrays_error_names_the_checkpoint_in_generate_and_resume(workspace, capsys):
    last = trained_checkpoint(workspace, epochs=1)
    ckpt = load_checkpoint(last)
    ckpt.arrays["adam.v.bogus"] = np.zeros(2, dtype=np.float32)
    last.write_bytes(checkpoint_bytes(ckpt))
    capsys.readouterr()
    message = "error: %s: arrays do not fit the parameters: unexpected adam.v.bogus" % last

    infile = workspace / "in.txt"
    infile.write_text("hello\n", encoding="utf-8")
    assert main(["generate", "--ckpt", str(last), "--in", str(infile),
                 "--out", str(workspace / "out.txt")]) == 1
    assert message in capsys.readouterr().err
    cfg = write_config(workspace, epochs=2)
    assert main(["train", "--config", str(cfg), "--resume", str(last)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("extra", [1, -1])
def test_vocabulary_size_mismatch_fails_resume_and_generate(workspace, capsys, extra):
    # one token more or fewer than the embedding tables have rows
    last = trained_checkpoint(workspace, epochs=1)
    ckpt = load_checkpoint(last)
    tokens = ckpt.vocab.id_to_token[4:]
    ckpt.vocab = Vocabulary(tokens + ["zz"] if extra > 0 else tokens[:-1])
    last.write_bytes(checkpoint_bytes(ckpt))
    capsys.readouterr()
    sizes = "has %d entries but the model was built for %d" % (
        len(ckpt.vocab), ckpt.config.vocab_size)

    cfg = write_config(workspace, epochs=2)
    assert main(["train", "--config", str(cfg), "--resume", str(last)]) == 1
    err = capsys.readouterr().err
    assert "error: %s: " % last in err and sizes in err
    infile = workspace / "in.txt"
    infile.write_text("hello\n", encoding="utf-8")
    assert main(["generate", "--ckpt", str(last), "--in", str(infile),
                 "--out", str(workspace / "out.txt")]) == 1
    err = capsys.readouterr().err
    assert "error: %s: " % last in err and sizes in err


@pytest.mark.parametrize("with_optimizer", [False, True])
def test_load_model_holds_the_model_arrays_once(tmp_path, with_optimizer):
    # generate and chat keep the parameters; a resume also the two moment sets
    cfg = tiny_config(hidden_size=64, embed_size=32, vocab_size=300)
    model = DialogueModel("aem_attention", cfg)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, Vocabulary("w%d" % i for i in range(296)),
                    model.make_optimizer())
    array_bytes = sum(p.values.nbytes for _, p in model.store.items())
    array_bytes *= 3 if with_optimizer else 1
    del model
    loaded, held, _ = traced_bytes(
        lambda: aem.cli._load_model(str(path), with_optimizer=with_optimizer))
    model, adam, vocab, progress = loaded
    assert (adam is not None) == with_optimizer
    assert len(vocab) == 300 and progress == (0, math.inf, 0)
    assert held < 1.25 * array_bytes


def test_generate_handles_oov_via_unk(workspace, capsys):
    ckpt = trained_checkpoint(workspace, epochs=1)
    infile = workspace / "in.txt"
    infile.write_text("zyzzyva flux\n", encoding="utf-8")
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(workspace / "out.txt")]) == 0


def test_evaluate_self_is_100(workspace, capsys):
    hyp = workspace / "hyp.txt"
    hyp.write_text("i am fine today\nmy name is sam\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp)]) == 0
    out = capsys.readouterr().out
    assert "bleu4=100.0000" in out
    assert "BLEU-4  100.00" in out


def test_evaluate_misaligned_rejected(workspace, capsys):
    hyp = workspace / "hyp.txt"
    ref = workspace / "ref.txt"
    hyp.write_text("a b\n", encoding="utf-8")
    ref.write_text("a b\nc d\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref)]) == 1
    assert "lines" in capsys.readouterr().err


def test_evaluate_line_count_mismatch_names_both_files(workspace, capsys):
    hyp = workspace / "hyp.txt"
    ref = workspace / "ref.txt"
    hyp.write_text("a b\n", encoding="utf-8")
    ref.write_text("a b\nc d\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref)]) == 1
    assert ("error: hypothesis file %s has 1 lines, reference file %s has 2" % (hyp, ref)
            in capsys.readouterr().err)


def test_evaluate_empty_hypothesis_file_names_it(workspace, capsys):
    hyp = workspace / "hyp.txt"
    hyp.write_text("", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp)]) == 1
    assert capsys.readouterr().err == "error: hypothesis file %s is empty\n" % hyp


def test_evaluate_with_scores_and_report_file(workspace, capsys):
    hyp = workspace / "hyp.txt"
    hyp.write_text("a b c d\n", encoding="utf-8")
    scores = workspace / "scores.csv"
    scores.write_text(
        "item_id,annotator_id,fluency,coherence\n"
        "1,a,8,4\n2,a,9,5\n1,b,7,4\n2,b,8,5\n", encoding="utf-8")
    report_file = workspace / "report.txt"
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                 "--scores", str(scores), "--out", str(report_file)]) == 0
    out = capsys.readouterr().out
    assert "g-score" in out
    assert report_file.read_text(encoding="utf-8").strip() in out.strip()


@pytest.mark.parametrize("rows, message", [
    ("1,a,,4\n2,a,,5\n1,b,,4\n2,b,,5\n", "no fluency scores"),
    ("1,a,8,4\n2,a,9,5\n", "no annotator pair with enough shared fluency scores"),
], ids=["no_fluency", "one_annotator"])
def test_evaluate_unusable_scores_fail_by_name_before_scoring(workspace, capsys, monkeypatch,
                                                              rows, message):
    hyp = workspace / "hyp.txt"
    hyp.write_text("a b c d\nc d e f\n", encoding="utf-8")
    scores = workspace / "scores.csv"
    scores.write_text("item_id,annotator_id,fluency,coherence\n" + rows, encoding="utf-8")
    scored = []
    monkeypatch.setattr(aem.cli, "eval_report", lambda *args: scored.append(args))
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--scores", str(scores)]) == 1
    assert capsys.readouterr().err == "error: %s: %s\n" % (scores, message)
    assert not scored


def test_chat_quit_and_responses(workspace, capsys, monkeypatch):
    import io
    ckpt = trained_checkpoint(workspace, epochs=1)
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("hello there\n/quit\n"))
    assert main(["chat", "--ckpt", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1  # one response, then a clean exit


def test_chat_eof_exits_cleanly(workspace, capsys, monkeypatch):
    import io
    ckpt = trained_checkpoint(workspace, epochs=1)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["chat", "--ckpt", str(ckpt)]) == 0


def test_chat_logs_transcript(workspace, capsys, monkeypatch):
    import io
    ckpt = trained_checkpoint(workspace, epochs=1)
    log = workspace / "chat.log"
    # blank lines get no reply and no log entry
    monkeypatch.setattr("sys.stdin", io.StringIO("\n   \ngood morning\n\n"))
    capsys.readouterr()
    assert main(["chat", "--ckpt", str(ckpt), "--log", str(log)]) == 0
    (reply,) = capsys.readouterr().out.splitlines()
    text = log.read_text(encoding="utf-8")
    assert text == "you: good morning\nmodel: %s\n" % reply


def test_nan_abort_keeps_last_checkpoint(workspace, capsys, monkeypatch):
    # poison one parameter once epoch 1 is saved: epoch 2's losses turn
    # non-finite, training aborts, and epoch 1's checkpoint survives
    def poison(path, epoch, model):
        if path.endswith("last.ckpt"):
            model.src_proj.b.values[0] = np.nan

    hook_checkpoint_writes(monkeypatch, after=poison)
    cfg = write_config(workspace, epochs=6)
    assert main(["train", "--config", str(cfg)]) == 1
    assert "non-finite" in capsys.readouterr().err
    kept = load_checkpoint(workspace / "ckpt" / "last.ckpt")
    assert kept.epoch == 1
    assert all(np.isfinite(v).all() for v in kept.arrays.values())
    logged = (workspace / "ckpt" / "metrics.log").read_text(encoding="utf-8")
    assert len(logged.splitlines()) == 1


class ScriptedModel:
    """Stands in for DialogueModel in `fit`: train steps report zero
    losses, and each validation batch the next (j4, total) pair."""

    def __init__(self, val_script):
        self.config = tiny_config()
        self.val_script = iter(val_script)

    def train_step(self, batch, adam):
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)

    def evaluate_batch(self, batch):
        j4, total = next(self.val_script)
        return LossBreakdown(0.0, 0.0, 0.0, j4, total)


def run_fit(model, valid_batches, **cfg_overrides):
    seen = []

    def on_epoch(epoch, train_mean, val_mean, best, stale):
        seen.append((epoch, val_mean["j4"], best, stale))

    cfg = tiny_config(**cfg_overrides)
    last = fit(model, None, toy_pairs(), valid_batches, cfg, on_epoch, select="j4")
    return last, seen


def test_fit_stops_when_selected_loss_is_flat_for_patience_epochs(capsys):
    # j4 improves at epochs 1, 2 and 4; total falls every epoch and so
    # must not count as an improvement
    j4 = [3.0, 2.0, 2.5, 1.0, 1.5, 1.2, 0.5, 0.4]
    model = ScriptedModel([(v, 10.0 - i) for i, v in enumerate(j4)])
    last, seen = run_fit(model, [toy_batch()], epochs=8, patience=2)
    assert last == 6
    assert [s[3] for s in seen] == [0, 0, 1, 0, 1, 2]
    assert seen[-1][2] == min(s[1] for s in seen) == 1.0
    assert "flat for 2 epochs" in capsys.readouterr().err


def test_fit_without_validation_runs_every_epoch(capsys):
    last, seen = run_fit(ScriptedModel([]), [], epochs=5, patience=1)
    assert last == 5
    assert [s[3] for s in seen] == [0, 1, 2, 3, 4]
    assert "stopping" not in capsys.readouterr().err

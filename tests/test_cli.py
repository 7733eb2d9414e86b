import os

import numpy as np
import pytest

import aem.cli
from aem.checkpoint import load_checkpoint
from aem.cli import fit, main
from aem.data import build_vocab, load_corpus
from aem.model import LossBreakdown
from helpers import tiny_config, toy_batch, toy_pairs

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

    save = aem.cli.save_checkpoint

    def save_or_die(path, *args, epoch, **kwargs):
        if epoch == 3 and path.endswith("last.ckpt"):
            raise OSError("killed while saving")
        save(path, *args, epoch=epoch, **kwargs)

    monkeypatch.setattr(aem.cli, "save_checkpoint", save_or_die)
    assert main(["train", "--config", str(cfg)]) == 1
    monkeypatch.undo()
    assert len((ckpt_dir / "metrics.log").read_text(encoding="utf-8").splitlines()) == 3
    assert main(["train", "--config", str(cfg), "--resume", str(ckpt_dir / "last.ckpt")]) == 0
    for name in names:
        assert (ckpt_dir / name).read_bytes() == straight[name], name


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


def test_generate_rejects_empty_line(workspace, capsys):
    ckpt = trained_checkpoint(workspace, epochs=1)
    infile = workspace / "in.txt"
    infile.write_text("hello\n\nhi\n", encoding="utf-8")
    assert main(["generate", "--ckpt", str(ckpt), "--in", str(infile),
                 "--out", str(workspace / "out.txt")]) == 1
    assert "line 2" in capsys.readouterr().err


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
    monkeypatch.setattr("sys.stdin", io.StringIO("good morning\n"))
    assert main(["chat", "--ckpt", str(ckpt), "--log", str(log)]) == 0
    text = log.read_text(encoding="utf-8")
    assert text.startswith("you: good morning\nmodel:")


def test_nan_abort_keeps_last_checkpoint(workspace, capsys, monkeypatch):
    # poison one parameter once epoch 1 is saved: epoch 2's losses turn
    # non-finite, training aborts, and epoch 1's checkpoint survives
    save = aem.cli.save_checkpoint

    def save_then_poison(path, model, *args, **kwargs):
        save(path, model, *args, **kwargs)
        if path.endswith("best.ckpt"):
            model.src_proj.b.values[0] = np.nan

    monkeypatch.setattr(aem.cli, "save_checkpoint", save_then_poison)
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

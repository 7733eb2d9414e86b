"""Command-line entry points: train, generate, evaluate, chat.

Diagnostics go to stderr and every command exits nonzero on error.
Training writes one machine-readable line per epoch, of the form

  epoch=<n> j1=<..> j2=<..> j3=<..> j4=<..> total=<..> val_total=<..>

to stdout and to <ckpt_dir>/metrics.log (emptied on a fresh start, after
an older run's checkpoints are removed), and saves best.ckpt (lowest
validation total) when an epoch improves, then last.ckpt: on an improving
epoch a hard link to that best.ckpt, or a second save where the
filesystem refuses hard links.
"""

import argparse
import math
import os
import sys
from contextlib import nullcontext, suppress
from dataclasses import replace

from .checkpoint import CheckpointError, atomic_link, atomic_write, load_checkpoint, \
    model_from_checkpoint, save_checkpoint
from .config import load_config
from .data import Vocabulary, build_vocab, encode_pairs, load_corpus, make_batches, tokenize
from .metrics import eval_report, format_report, load_human_scores
from .model import DialogueModel


def _load_pairs(path, what, lowercase):
    """The corpus at `path`; a missing file, or one without a usable pair,
    fails naming it as `what`."""
    if not path:
        raise ValueError("%s path is not set" % what)
    if not os.path.isfile(path):
        raise ValueError("%s file %s does not exist" % (what, path))
    pairs = load_corpus(path, lowercase)
    if not pairs:
        raise ValueError("%s %s has no pair with two non-empty sides" % (what, path))
    return pairs


def _read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


def _epoch_mean(parts_list):
    n = len(parts_list)
    return {field: sum(getattr(p, field) for p in parts_list) / n
            for field in ("j1", "j2", "j3", "j4", "total")}


def _metrics_line(epoch, train_mean, val_total):
    return ("epoch=%d j1=%.6f j2=%.6f j3=%.6f j4=%.6f total=%.6f val_total=%.6f"
            % (epoch, train_mean["j1"], train_mean["j2"], train_mean["j3"],
               train_mean["j4"], train_mean["total"], val_total))


def _parse_overrides(items):
    overrides = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError("--set %r: expected KEY=VALUE" % item)
        overrides[key] = value
    return overrides


def _drop_metrics_after(path, epoch):
    """Remove the metrics lines of epochs past `epoch`, all of them for a
    fresh start (epoch 0). A crash between a line's append and that epoch's
    last.ckpt save leaves one, which the rerun would write a second time."""
    if not os.path.isfile(path):
        return
    lines = _read_lines(path)
    kept = []
    for lineno, line in enumerate(lines, start=1):
        key, _, value = line.split(" ", 1)[0].partition("=")
        if key != "epoch" or not value.isdigit():
            raise ValueError("%s line %d: expected epoch=<n> first" % (path, lineno))
        if int(value) <= epoch:
            kept.append(line)
    if len(kept) < len(lines):
        # replaced whole: a kill mid-trim must not lose the kept epochs
        with atomic_write(path) as f:
            f.write("".join(line + "\n" for line in kept).encode("utf-8"))


def fit(model, adam, train_pairs, valid_batches, cfg, on_epoch, select="total",
        start_epoch=0, best=math.inf, stale=0):
    """Train epochs start_epoch + 1 .. cfg.epochs with early stopping.

    Each epoch runs the train steps, then the validation batches (with
    none, the training mean stands in). `best` is the lowest validation
    mean[select] so far and `stale` the epochs since it fell, so
    stale == 0 marks an improving epoch; on_epoch(epoch, train_mean,
    val_mean, best, stale) runs after each epoch. Stops once a
    validation set has been flat for cfg.patience epochs and returns
    the last epoch run. Batches are seeded from the model's config,
    which on resume is the checkpoint's. A resumed run that is already
    at cfg.epochs, or had already stopped early, trains nothing and
    returns start_epoch.
    """
    if start_epoch >= cfg.epochs:
        print("nothing to train: checkpoint is at epoch %d and epochs=%d"
              % (start_epoch, cfg.epochs), file=sys.stderr)
        return start_epoch
    if valid_batches and stale >= cfg.patience:
        print("stopping: validation loss already flat for %d epochs at epoch %d"
              % (stale, start_epoch), file=sys.stderr)
        return start_epoch
    epoch = start_epoch
    for epoch in range(start_epoch + 1, cfg.epochs + 1):
        batches = make_batches(train_pairs, cfg.batch_size, seed=model.config.seed,
                               epoch=epoch, max_len=cfg.max_train_len)
        train_mean = _epoch_mean([model.train_step(b, adam) for b in batches])
        if valid_batches:
            val_mean = _epoch_mean([model.evaluate_batch(b) for b in valid_batches])
        else:
            val_mean = train_mean
        improved = val_mean[select] < best
        best = min(best, val_mean[select])
        stale = 0 if improved else stale + 1
        on_epoch(epoch, train_mean, val_mean, best, stale)
        if valid_batches and stale >= cfg.patience:
            print("stopping: validation loss flat for %d epochs" % stale, file=sys.stderr)
            break
    return epoch


def cmd_train(args):
    cfg = load_config(args.config, _parse_overrides(args.set))
    if args.resume:
        # the embeddings were trained on the checkpoint's ids, so its
        # vocabulary and the `lowercase` it was built under win
        model, adam, vocab, progress = _load_model(args.resume, cfg.kind, with_optimizer=True)
    lowercase = model.config.lowercase if args.resume else cfg.lowercase
    pairs = _load_pairs(cfg.train_path, "training corpus", lowercase)
    valid = []
    if cfg.valid_path or args.merge_valid:
        valid = _load_pairs(cfg.valid_path, "validation corpus", lowercase)
    if args.merge_valid:
        pairs, valid = pairs + valid, []

    os.makedirs(cfg.ckpt_dir, exist_ok=True)
    if not args.resume:
        if cfg.vocab_path and os.path.isfile(cfg.vocab_path):
            vocab = Vocabulary.load(cfg.vocab_path, cfg.lowercase)
        else:
            both_sides = (side for p in pairs for side in (p.source, p.target))
            vocab = build_vocab(both_sides, max_size=cfg.vocab_size)
            with atomic_write(cfg.vocab_path or os.path.join(cfg.ckpt_dir, "vocab.txt")) as f:
                vocab.save(f)
        model = DialogueModel(cfg.kind, replace(cfg, vocab_size=len(vocab)))
        adam = model.make_optimizer()
        progress = (0, math.inf, 0)
    start_epoch, best_val, stale = progress

    train_pairs = encode_pairs(pairs, vocab)
    # seeded as fit seeds the training batches: on --resume, by the checkpoint
    valid_batches = make_batches(encode_pairs(valid, vocab), cfg.batch_size,
                                 seed=model.config.seed, epoch=0, max_len=cfg.max_train_len)

    metrics_path = os.path.join(cfg.ckpt_dir, "metrics.log")
    if not args.resume:
        # an older run's checkpoints go before its log: --resume after a
        # crash in this run's first epoch must not continue that run
        for name in ("last.ckpt", "best.ckpt"):
            with suppress(FileNotFoundError):
                os.remove(os.path.join(cfg.ckpt_dir, name))
    _drop_metrics_after(metrics_path, start_epoch)

    def log_and_save(epoch, train_mean, val_mean, best, stale):
        line = _metrics_line(epoch, train_mean, val_mean["total"])
        print(line)
        with open(metrics_path, "a", encoding="utf-8") as f:
            f.write(line + "\n")

        def save(name):
            path = os.path.join(cfg.ckpt_dir, name)
            save_checkpoint(path, model, vocab, adam, epoch=epoch, best_val=best, stale=stale)
            return path

        if stale == 0:
            # best first: no last.ckpt records a best.ckpt not yet written.
            # last.ckpt would hold the same bytes, so it becomes a second
            # name for them wherever the filesystem allows hard links
            if atomic_link(save("best.ckpt"), os.path.join(cfg.ckpt_dir, "last.ckpt")):
                return
        save("last.ckpt")

    fit(model, adam, train_pairs, valid_batches, cfg, log_and_save,
        start_epoch=start_epoch, best=best_val, stale=stale)
    return 0


def _load_model(path, expected_kind=None, with_optimizer=False):
    """(model, Adam or None, vocabulary, (epoch, best_val, stale)) from the
    checkpoint at `path`; every error names the file. The parsed file is
    released on return, so the caller holds the model's arrays once."""
    ckpt = load_checkpoint(path)
    try:
        loaded = model_from_checkpoint(ckpt, expected_kind, with_optimizer)
    except ValueError as exc:
        raise CheckpointError("%s: %s" % (path, exc)) from exc
    model, adam = loaded if with_optimizer else (loaded, None)
    return model, adam, ckpt.vocab, (ckpt.epoch, ckpt.best_val, ckpt.stale)


def _replies(model, vocab, lines, source):
    """The model's reply text to each of `lines` (any iterable), tokenized
    with its `lowercase`, yielded in order as each model chunk is decoded,
    so only one chunk of lines is read ahead; an empty line fails naming
    `source` and the line."""
    def sources():
        for lineno, line in enumerate(lines, start=1):
            tokens = tokenize(line, lowercase=model.config.lowercase)
            if not tokens:
                raise ValueError("%s: input line %d is empty" % (source, lineno))
            yield vocab.encode(tokens)

    for replies in model.generate_chunks(sources()):
        for ids in replies:
            yield " ".join(vocab.decode(ids))


def cmd_generate(args):
    model, _, vocab, _ = _load_model(args.ckpt)
    # one model chunk of lines is read, decoded and written at a time; the
    # replies replace --out whole (it may be --in), so a failure partway
    # leaves it as it was
    with open(args.infile, encoding="utf-8") as f, atomic_write(args.outfile) as out:
        for reply in _replies(model, vocab, (line.rstrip("\n") for line in f), args.infile):
            out.write((reply + "\n").encode("utf-8"))
    return 0


def cmd_evaluate(args):
    hyp_lines = _read_lines(args.hyp)
    if not hyp_lines:
        raise ValueError("hypothesis file %s is empty" % args.hyp)
    ref_lines = _read_lines(args.ref)
    if len(hyp_lines) != len(ref_lines):
        raise ValueError("hypothesis file %s has %d lines, reference file %s has %d"
                         % (args.hyp, len(hyp_lines), args.ref, len(ref_lines)))
    human = None
    if args.scores:
        # before any scoring: a table that gives no summary fails by name
        table = load_human_scores(args.scores)
        try:
            human = table.summary()
        except ValueError as exc:
            raise ValueError("%s: %s" % (args.scores, exc)) from None
    report = eval_report([l.split() for l in hyp_lines],
                         [l.split() for l in ref_lines], human)
    text = format_report(report)
    print(text)
    if args.out:
        with atomic_write(args.out) as f:
            f.write((text + "\n").encode("utf-8"))
    return 0


def cmd_chat(args):
    model, _, vocab, _ = _load_model(args.ckpt)
    with open(args.log, "a", encoding="utf-8") if args.log else nullcontext() as log:
        while True:
            print("> ", end="", file=sys.stderr, flush=True)
            try:
                line = sys.stdin.readline()
            except OSError:
                return 0
            if not line:
                return 0
            line = line.strip()
            if line == "/quit":
                return 0
            if not line:
                continue
            (reply,) = _replies(model, vocab, [line], "stdin")
            print(reply)
            if log:
                log.write("you: %s\nmodel: %s\n" % (line, reply))
                log.flush()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aem",
        description="Dialogue generation with matched sequence auto-encoders.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a config manifest")
    train.add_argument("--config", required=True, help="key=value manifest file")
    train.add_argument("--merge-valid", action="store_true",
                       help="fold the validation set into training (final models)")
    train.add_argument("--resume", metavar="CKPT",
                       help="continue from a saved checkpoint")
    train.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable; flags win)")
    train.set_defaults(func=cmd_train)

    gen = sub.add_parser("generate", help="respond to every line of a file")
    gen.add_argument("--ckpt", required=True)
    gen.add_argument("--in", dest="infile", required=True)
    gen.add_argument("--out", dest="outfile", required=True)
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="score hypotheses against references")
    ev.add_argument("--hyp", required=True)
    ev.add_argument("--ref", required=True)
    ev.add_argument("--scores", help="human score CSV (item, annotator, fluency, coherence)")
    ev.add_argument("--out", help="also write the report to this file")
    ev.set_defaults(func=cmd_evaluate)

    chat = sub.add_parser("chat", help="interactive session against a checkpoint")
    chat.add_argument("--ckpt", required=True)
    chat.add_argument("--log", help="append the transcript to this file")
    chat.set_defaults(func=cmd_chat)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

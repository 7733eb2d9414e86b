"""Command-line entry points: train, generate, evaluate, chat.

Diagnostics go to stderr and every command exits nonzero on error.
Training appends one machine-readable line per epoch, of the form

  epoch=<n> j1=<..> j2=<..> j3=<..> j4=<..> total=<..> val_total=<..>

to stdout and to <ckpt_dir>/metrics.log, and maintains last.ckpt plus
best.ckpt (lowest validation total).
"""

import argparse
import math
import os
import sys
from dataclasses import replace

from .checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from .config import load_config
from .data import Vocabulary, build_vocab, encode_pairs, load_corpus, make_batches, tokenize
from .metrics import eval_report, format_report, load_human_scores
from .model import DialogueModel


def _require_file(path, what):
    if not path:
        raise ValueError("%s path is not set" % what)
    if not os.path.isfile(path):
        raise ValueError("%s file %s does not exist" % (what, path))


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
    """Remove the metrics lines of epochs past `epoch`. A crash between a
    line's append and that epoch's last.ckpt save leaves one, which the
    resumed run would otherwise write a second time."""
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
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in kept))


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
    overrides = _parse_overrides(args.set)
    cfg = load_config(args.config, overrides)
    _require_file(cfg.train_path, "training corpus")
    pairs = load_corpus(cfg.train_path)
    if args.merge_valid:
        _require_file(cfg.valid_path, "validation corpus")
        pairs = pairs + load_corpus(cfg.valid_path)
    if not pairs:
        raise ValueError("training corpus is empty")

    os.makedirs(cfg.ckpt_dir, exist_ok=True)
    ckpt = load_checkpoint(args.resume) if args.resume else None
    if ckpt is not None:
        # the embeddings were trained on the checkpoint's ids
        vocab = ckpt.vocab
    elif cfg.vocab_path and os.path.isfile(cfg.vocab_path):
        vocab = Vocabulary.load(cfg.vocab_path)
    else:
        both_sides = (side for p in pairs for side in (p.source, p.target))
        vocab = build_vocab(both_sides, max_size=cfg.vocab_size)
        vocab.save(cfg.vocab_path or os.path.join(cfg.ckpt_dir, "vocab.txt"))
    cfg = replace(cfg, vocab_size=len(vocab))

    train_pairs = encode_pairs(pairs, vocab)
    valid_batches = []
    if cfg.valid_path and not args.merge_valid:
        _require_file(cfg.valid_path, "validation corpus")
        valid_pairs = encode_pairs(load_corpus(cfg.valid_path), vocab)
        valid_batches = make_batches(valid_pairs, cfg.batch_size, seed=cfg.seed,
                                     epoch=0, max_len=cfg.max_train_len)

    if ckpt is not None:
        model, adam = model_from_checkpoint(ckpt, expected_kind=cfg.kind,
                                            with_optimizer=True)
        start_epoch, best_val, stale = ckpt.epoch, ckpt.best_val, ckpt.stale
    else:
        model = DialogueModel(cfg.kind, cfg)
        adam = model.make_optimizer()
        start_epoch, best_val, stale = 0, math.inf, 0

    metrics_path = os.path.join(cfg.ckpt_dir, "metrics.log")
    if ckpt is not None:
        _drop_metrics_after(metrics_path, start_epoch)

    def log_and_save(epoch, train_mean, val_mean, best, stale):
        line = _metrics_line(epoch, train_mean, val_mean["total"])
        print(line)
        with open(metrics_path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        for name in ("last.ckpt", "best.ckpt") if stale == 0 else ("last.ckpt",):
            save_checkpoint(os.path.join(cfg.ckpt_dir, name), model, vocab, adam,
                            epoch=epoch, best_val=best, stale=stale)

    fit(model, adam, train_pairs, valid_batches, cfg, log_and_save,
        start_epoch=start_epoch, best=best_val, stale=stale)
    return 0


def _load_generation_model(path):
    ckpt = load_checkpoint(path)
    if len(ckpt.vocab) != ckpt.config.vocab_size:
        raise ValueError("checkpoint vocabulary has %d entries but the model "
                         "was built for %d" % (len(ckpt.vocab), ckpt.config.vocab_size))
    return model_from_checkpoint(ckpt), ckpt.vocab


def _respond(model, vocab, text):
    tokens = tokenize(text, lowercase=model.config.lowercase)
    if not tokens:
        raise ValueError("empty utterance")
    out = model.generate([vocab.encode(tokens)])[0]
    return " ".join(vocab.decode(out))


def cmd_generate(args):
    model, vocab = _load_generation_model(args.ckpt)
    lines = _read_lines(args.infile)
    sources = []
    for lineno, line in enumerate(lines, start=1):
        tokens = tokenize(line, lowercase=model.config.lowercase)
        if not tokens:
            raise ValueError("input line %d is empty" % lineno)
        sources.append(vocab.encode(tokens))
    responses = model.generate(sources)
    with open(args.outfile, "w", encoding="utf-8") as f:
        for ids in responses:
            f.write(" ".join(vocab.decode(ids)) + "\n")
    return 0


def cmd_evaluate(args):
    hyp_lines = _read_lines(args.hyp)
    ref_lines = _read_lines(args.ref)
    if len(hyp_lines) != len(ref_lines):
        raise ValueError("hypothesis file has %d lines, reference file has %d"
                         % (len(hyp_lines), len(ref_lines)))
    human = load_human_scores(args.scores) if args.scores else None
    report = eval_report([l.split() for l in hyp_lines],
                         [l.split() for l in ref_lines], human)
    text = format_report(report)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return 0


def cmd_chat(args):
    model, vocab = _load_generation_model(args.ckpt)
    log = open(args.log, "a", encoding="utf-8") if args.log else None
    try:
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
            reply = _respond(model, vocab, line)
            print(reply)
            if log:
                log.write("you: %s\nmodel: %s\n" % (line, reply))
                log.flush()
    finally:
        if log:
            log.close()


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

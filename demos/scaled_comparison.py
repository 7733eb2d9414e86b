"""
Comparing the four model kinds on synthetic dialogue
====================================================

Trains seq2seq, seq2seq_attention, aem, and aem_attention on the same
synthetic corpus with early stopping and reports validation BLEU-4 per
seed. The defaults finish in a few minutes; numbers at that scale are
smoke-test output, not a comparison. The full-size run behind the
AEM_SCALED acceptance check is

    python3 demos/scaled_comparison.py --pairs 5000 --valid 400 \\
        --topics 300 --fillers 1500 --replies 2000 \\
        --hidden 128 --embed 64 --batch 256 \\
        --epochs 60 --patience 4 --seeds 0 1 2

and needs an hour or two of CPU.
"""

import argparse
import time

from aem.cli import fit
from aem.config import MODEL_KINDS, RunConfig
from aem.data import DialoguePair, build_vocab, encode_pairs, make_batches
from aem.metrics import corpus_bleu
from aem.model import DialogueModel
from aem.rng import SplitMix64, derive_seed


def synthetic_dialogues(n_train, n_valid, rng, topics=60, fillers=200, reply_words=300):
    """Each source hides one topic word among fillers; the response is
    the topic's fixed 6-word reply, so the mapping is learnable but the
    topic must be found. Both splits share one reply table."""
    topic_words = ["t%03d" % i for i in range(topics)]
    filler_words = ["f%04d" % i for i in range(fillers)]
    vocab_pool = ["r%04d" % i for i in range(reply_words)]
    replies = {t: [vocab_pool[rng.next_below(len(vocab_pool))] for _ in range(6)]
               for t in topic_words}

    def draw(n):
        pairs = []
        for _ in range(n):
            topic = topic_words[rng.next_below(len(topic_words))]
            source = [filler_words[rng.next_below(len(filler_words))]
                      for _ in range(3 + rng.next_below(4))]
            source.insert(rng.next_below(len(source) + 1), topic)
            pairs.append(DialoguePair(source, list(replies[topic])))
        return pairs

    return draw(n_train), draw(n_valid)


def train_early_stop(kind, cfg, train_pairs, valid_batches):
    # stop and select on the per-token generation loss: it is the one
    # quantity all kinds share, while the joint model's total also
    # carries reconstruction terms the baselines do not have
    model = DialogueModel(kind, cfg)
    best_values = {}

    def keep_best(epoch, train_mean, val_mean, best, stale):
        if stale == 0:
            best_values.update((n, t.values.copy()) for n, t in model.store.items())

    epoch = fit(model, model.make_optimizer(), train_pairs, valid_batches, cfg,
                keep_best, select="j4")
    for name, values in best_values.items():
        model.store[name].values[...] = values
    return model, epoch


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--pairs", type=int, default=800)
    ap.add_argument("--valid", type=int, default=120)
    ap.add_argument("--topics", type=int, default=40)
    ap.add_argument("--fillers", type=int, default=120)
    ap.add_argument("--replies", type=int, default=250)
    ap.add_argument("--hidden", type=int, default=48)
    ap.add_argument("--embed", type=int, default=24)
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--patience", type=int, default=6)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args()

    data_rng = SplitMix64(derive_seed(7, "scaled", "corpus"))
    train_tok, valid_tok = synthetic_dialogues(args.pairs, args.valid, data_rng,
                                               topics=args.topics,
                                               fillers=args.fillers,
                                               reply_words=args.replies)
    vocab = build_vocab((side for p in train_tok for side in (p.source, p.target)),
                        max_size=8000)
    train_pairs = encode_pairs(train_tok, vocab)
    valid_pairs = encode_pairs(valid_tok, vocab)
    print("train %d pairs, valid %d, vocabulary %d" %
          (len(train_pairs), len(valid_pairs), len(vocab)))

    refs = [p.target for p in valid_pairs]
    sources = [p.source for p in valid_pairs]
    for seed in args.seeds:
        cfg = RunConfig(hidden_size=args.hidden, embed_size=args.embed,
                        vocab_size=len(vocab), batch_size=args.batch,
                        learning_rate=0.002, seed=seed, epochs=args.epochs,
                        patience=args.patience).validate()
        valid_batches = make_batches(valid_pairs, cfg.batch_size, seed=seed, epoch=0)
        for kind in MODEL_KINDS:
            t0 = time.time()
            model, epochs_run = train_early_stop(kind, cfg, train_pairs, valid_batches)
            bleu4 = corpus_bleu(model.generate(sources), refs).bleu4
            print("seed %d  %-18s BLEU-4 %6.2f   (%d epochs, %.0fs)"
                  % (seed, kind, bleu4, epochs_run, time.time() - t0))


if __name__ == "__main__":
    main()

"""Traced memory of one training step per workload shape and model kind.

    python3 tools/peak_memory.py [--seed 1]

For each workload shape in perfbench/run.py WORKLOADS it builds the
workload's seeded training pairs (perfbench/corpora.py), their
vocabulary and batches as `aem train` builds them, and for each of the
four model kinds a seeded model. It runs one warm-up `train_step` on the
widest batch (the most padded tokens), then traces one more with
tracemalloc and prints one line per (workload, kind): the step's traced
peak and the bytes live when `backward` starts, both above what was
allocated when the step started, in MiB. numpy reports its array
buffers to tracemalloc, so the figures count what the step's arrays
hold, not the process's resident set. BLAS runs with one thread, as in
the benchmark. It writes no file.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS
sys.dont_write_bytecode = True  # nothing written beside the sources

import argparse
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import aem.model
import corpora
from aem.config import RunConfig
from aem.data import DialoguePair, build_vocab, encode_pairs, make_batches
from aem.model import DialogueModel
from run import KINDS, WORKLOADS

MIB = 1 << 20


def widest_batch(w, seed):
    """The vocabulary size and the batch with the most padded tokens of
    the workload's first training epoch."""
    pairs = corpora.make_corpus(w.corpus, seed, w.n_corpus + w.n_valid + w.n_gen, w.sizes)
    train = [DialoguePair(s, t) for s, t in pairs[:w.n_train]]
    vocab = build_vocab((side for p in train for side in (p.source, p.target)),
                        max_size=w.vocab_cap)
    batches = make_batches(encode_pairs(train, vocab), w.batch_size, seed=seed, epoch=1,
                           max_len=RunConfig().max_train_len)
    return len(vocab), max(batches, key=lambda b: b.source.size + b.target.size)


def traced_step(model, adam, batch):
    """(peak, live when backward starts) of one train_step, in bytes above
    what was allocated when it started."""
    backward, live = aem.model.backward, []

    def noted(tape, loss):
        live.append(tracemalloc.get_traced_memory()[0])
        return backward(tape, loss)

    aem.model.backward = noted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.train_step(batch, adam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        aem.model.backward = backward
    return peak - base, live[0] - base


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for name, w in WORKLOADS.items():
        v, batch = widest_batch(w, args.seed)
        for kind in KINDS:
            model = DialogueModel(kind, RunConfig(kind=kind, hidden_size=w.hidden,
                                                  embed_size=w.embed, vocab_size=v,
                                                  batch_size=w.batch_size,
                                                  seed=args.seed).validate())
            adam = model.make_optimizer()
            model.train_step(batch, adam)
            peak, live = traced_step(model, adam, batch)
            print("%-16s %-17s peak %7.1f MiB  live at backward %7.1f MiB"
                  % (name, kind, peak / MIB, live / MIB), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced memory of one training step per workload shape and model kind.

    python3 tools/peak_memory.py [--seed 1]

For each workload shape in perfbench/run.py WORKLOADS it builds the
workload's seeded training pairs (perfbench/corpora.py), their
vocabulary and batches as `aem train` builds them. Then, for each of the
four model kinds, it starts tracemalloc, builds a seeded model and its
optimizer, runs one warm-up `train_step` on the widest batch (the most
padded tokens) and one more, and prints one line per (workload, kind)
for that second step: its traced peak, the bytes live when `backward`
starts and the bytes still held once the step has returned, in MiB.
Each figure counts everything allocated since tracing started, so the
parameters, the Adam moments and anything a step keeps for the next
one are in all three. numpy reports its array buffers to tracemalloc,
so the figures count what the arrays hold, not the process's resident
set. BLAS runs with one thread, as in the benchmark. It writes no file,
and exits 1 when a `train_step` returns with a parameter gradient still
allocated.
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


def traced_step(kind, w, v, batch, seed):
    """(peak, live when backward starts, held once it returned) of the
    second train_step of a seeded model, in bytes allocated since tracing
    started, before the model was built; and the names of the parameters
    that held a gradient after either step."""
    backward, live, kept = aem.model.backward, [], set()

    def noted(tape, loss):
        live.append(tracemalloc.get_traced_memory()[0])
        return backward(tape, loss)

    aem.model.backward = noted
    tracemalloc.start()
    try:
        model = DialogueModel(kind, RunConfig(kind=kind, hidden_size=w.hidden, embed_size=w.embed,
                                              vocab_size=v, batch_size=w.batch_size,
                                              seed=seed).validate())
        adam = model.make_optimizer()
        for _ in range(2):
            tracemalloc.reset_peak()
            model.train_step(batch, adam)
            kept.update(name for name, p in model.store.items() if p.grad is not None)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        aem.model.backward = backward
    return peak, live[-1], held, sorted(kept)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    status = 0
    for name, w in WORKLOADS.items():
        v, batch = widest_batch(w, args.seed)
        for kind in KINDS:
            peak, live, held, kept = traced_step(kind, w, v, batch, args.seed)
            print("%-16s %-17s peak %7.1f MiB  live at backward %7.1f MiB  held after %7.1f MiB"
                  % (name, kind, peak / MIB, live / MIB, held / MIB), flush=True)
            if kept:
                print("%s %s: train_step returned with gradients allocated: %s"
                      % (name, kind, ", ".join(kept)), file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

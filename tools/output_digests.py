"""Digests of the files that seeded training and generation write, to
check that a change keeps every output byte for byte.

    python3 tools/output_digests.py --work DIR [--seed 1] > digests.txt

For each workload shape in perfbench/run.py WORKLOADS it writes the
workload's seeded corpus (perfbench/corpora.py) under DIR/<workload>,
trains each of the four model kinds for 3 epochs with `aem train`, runs
`aem generate` from each best.ckpt over the workload's generation
sources, and prints one `sha256  path` line per output file, its path
relative to DIR: metrics.log, best.ckpt, last.ckpt and the replies, 48
lines in all. It writes nothing outside DIR and overwrites what an
earlier run left there.

A checkpoint stores its ckpt_dir, so two listings compare only when
both runs used the same DIR. BLAS runs with one thread, as in the
benchmark, because seeded bytes depend on the BLAS thread count (README,
Determinism). To check that outputs do not depend on the CPU count:

    taskset -c 0,1 python3 tools/output_digests.py --work DIR > two.txt
    taskset -c 0 python3 tools/output_digests.py --work DIR > one.txt
    diff two.txt one.txt
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS
sys.dont_write_bytecode = True  # nothing written beside the sources

import argparse
import contextlib
import hashlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpora
from aem.cli import main as aem
from run import KINDS, WORKLOADS

EPOCHS = 3
OUTPUTS = ("metrics.log", "best.ckpt", "last.ckpt", "replies.txt")


def write_inputs(w, seed, work):
    """The workload's training, validation and generation-source files,
    split from one seeded corpus as perfbench/run.py splits it."""
    pairs = corpora.make_corpus(w.corpus, seed, w.n_corpus + w.n_valid + w.n_gen, w.sizes)
    corpora.write_pairs(work / "train.tsv", pairs[:w.n_train])
    corpora.write_pairs(work / "valid.tsv", pairs[w.n_corpus:w.n_corpus + w.n_valid])
    corpora.write_lines(work / "gen_src.txt", [s for s, _ in pairs[w.n_corpus + w.n_valid:]])


def train_and_generate(w, seed, work, kind):
    """`aem train` of one kind at the workload's shape, then `aem
    generate` from its best.ckpt; returns the directory both write to."""
    out = work / kind
    manifest = work / ("%s.cfg" % kind)
    manifest.write_text(
        "kind=%s\ntrain_path=%s\nvalid_path=%s\nckpt_dir=%s\nhidden_size=%d\n"
        "embed_size=%d\nvocab_size=%d\nbatch_size=%d\nepochs=%d\npatience=%d\nseed=%d\n"
        % (kind, work / "train.tsv", work / "valid.tsv", out, w.hidden, w.embed,
           w.vocab_cap, w.batch_size, EPOCHS, EPOCHS, seed),
        encoding="utf-8")
    # the per-epoch lines go to stderr; stdout carries the digests alone
    with contextlib.redirect_stdout(sys.stderr):
        for argv in (["train", "--config", str(manifest)],
                     ["generate", "--ckpt", str(out / "best.ckpt"),
                      "--in", str(work / "gen_src.txt"), "--out", str(out / "replies.txt")]):
            if aem(argv) != 0:
                raise SystemExit("output_digests: aem %s failed for %s" % (argv[0], out))
    return out


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", required=True, type=Path,
                    help="directory for every file the runs write; the same for runs compared")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    work_root = args.work.resolve()
    for name, w in WORKLOADS.items():
        work = work_root / name
        work.mkdir(parents=True, exist_ok=True)
        write_inputs(w, args.seed, work)
        for kind in KINDS:
            out = train_and_generate(w, args.seed, work, kind)
            for output in OUTPUTS:
                path = out / output
                print("%s  %s" % (digest(path), path.relative_to(work_root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

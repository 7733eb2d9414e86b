"""
Training and generating through the command line
================================================

The `aem` entry point drives everything from a flat key=value
manifest: `aem train` writes checkpoints and a metrics log, `aem
generate` answers a file of utterances line by line, and `aem
evaluate` scores hypotheses against references. This script runs
those commands in-process against a throwaway directory.
"""

import pathlib
import tempfile

from aem.cli import main

workdir = pathlib.Path(tempfile.mkdtemp(prefix="aem-demo-"))
print("working under", workdir)

# A tiny dialogue corpus, one TAB-separated pair per line. The
# vocabulary keeps the vocab_size - 4 most frequent tokens, so at
# vocab_size = 100 below every word here gets its own id.
LINES = [
    ("hello there", "hi how are you"),
    ("how are you", "i am fine thanks"),
    ("what is your name", "my name is sam"),
    ("where do you live", "i live in town"),
    ("do you like tea", "yes i like tea"),
    ("see you later", "bye for now"),
]
corpus = workdir / "train.tsv"
corpus.write_text("".join("%s\t%s\n" % pair for pair in LINES * 3), encoding="utf-8")

# The manifest: every key is a config field; unknown keys are errors.
manifest = workdir / "run.cfg"
manifest.write_text("""
kind = aem
train_path = %s
ckpt_dir = %s
hidden_size = 32
embed_size = 16
batch_size = 6
epochs = 250
seed = 4
vocab_size = 100
""" % (corpus, workdir / "ckpt"), encoding="utf-8")

# Train. One metrics line per epoch goes to stdout and to
# ckpt/metrics.log; last.ckpt is refreshed every epoch. --set
# overrides any manifest key from the command line.
print("\n$ aem train --config run.cfg   (last 3 epochs shown)")
import contextlib, io
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = main(["train", "--config", str(manifest)])
assert rc == 0
print("\n".join(buf.getvalue().splitlines()[-3:]))

# Generate: one response per input line.
inputs = workdir / "inputs.txt"
inputs.write_text("hello there\nwhat is your name\ndo you like tea\n", encoding="utf-8")
outputs = workdir / "outputs.txt"
print("\n$ aem generate --ckpt ckpt/last.ckpt --in inputs.txt --out outputs.txt")
rc = main(["generate", "--ckpt", str(workdir / "ckpt" / "last.ckpt"),
           "--in", str(inputs), "--out", str(outputs)])
assert rc == 0
for src, out in zip(inputs.read_text().splitlines(), outputs.read_text().splitlines()):
    print("  %-20s -> %s" % (src, out))

# Evaluate the generated file against references.
refs = workdir / "refs.txt"
refs.write_text("hi how are you\nmy name is sam\nyes i like tea\n", encoding="utf-8")
print("\n$ aem evaluate --hyp outputs.txt --ref refs.txt")
rc = main(["evaluate", "--hyp", str(outputs), "--ref", str(refs)])
assert rc == 0

# Resuming picks up the optimizer state and epoch counter from the
# checkpoint, so epochs 251..254 continue the same trajectory.
print("\n$ aem train --config run.cfg --resume ckpt/last.ckpt --set epochs=254")
rc = main(["train", "--config", str(manifest), "--resume",
           str(workdir / "ckpt" / "last.ckpt"), "--set", "epochs=254"])
assert rc == 0

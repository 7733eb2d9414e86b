"""One set-up of the program in a fresh interpreter, timed for `setup_s`.

    python3 perfbench/startup.py SPEC_JSON

run.py starts it from the repository root and reads the clock just
before. It imports the package from src/, reads, tokenises and batches
the corpus, builds the vocabulary and loads every checkpoint: what the
program does before its first useful call. Its last stdout line holds
`time.monotonic()` at that point, which on Linux is CLOCK_MONOTONIC and
so comparable with the parent's reading, and a digest of the vocabulary.
"""

import hashlib
import json
import sys
import time
from pathlib import Path


def main(spec):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import aem.checkpoint
    import aem.cli  # the entry point's imports are part of start-up
    import aem.data

    pairs = aem.data.load_corpus(spec["corpus"])
    vocab = aem.data.build_vocab((side for p in pairs for side in (p.source, p.target)),
                                 max_size=spec["vocab_cap"])
    encoded = aem.data.encode_pairs(pairs, vocab)
    aem.data.make_batches(encoded, spec["batch_size"], seed=spec["seed"], epoch=1)
    for path in spec["checkpoints"]:
        aem.checkpoint.model_from_checkpoint(aem.checkpoint.load_checkpoint(path))
    ready = time.monotonic()
    digest = hashlib.sha256("\n".join(vocab.id_to_token).encode()).hexdigest()
    print(json.dumps({"ready": ready, "vocab": digest}))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))

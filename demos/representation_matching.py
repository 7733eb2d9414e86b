"""
Watching the representation mapping learn
=========================================

The joint model trains four losses at once: each auto-encoder's
reconstruction (J1 source, J2 target), the L2 distance between the
mapped source representation g(h) and the true target representation
s (J3), and the end-to-end response loss decoded from g(h) (J4).
This script overfits a 32-pair toy corpus and prints how the pieces
move, then uses the trained halves separately.
"""

import numpy as np

from aem.config import RunConfig
from aem.data import DialoguePair, build_vocab, encode_pairs, make_batches, pairs_to_batch
from aem.model import DialogueModel

# A deterministic toy corpus: source [a_i, b_j], response a fixed
# alternating pattern of the same two words.
firsts = ["a%d" % i for i in range(8)]
seconds = ["b%d" % j for j in range(4)]
dialogue = [DialoguePair([a, b], [b, a, b, a, b, a]) for a in firsts for b in seconds]
vocab = build_vocab((side for p in dialogue for side in (p.source, p.target)), max_size=100)
pairs = encode_pairs(dialogue, vocab)
print("corpus: %d pairs, vocabulary %d entries" % (len(pairs), len(vocab)))

cfg = RunConfig(hidden_size=32, embed_size=16, vocab_size=len(vocab),
                batch_size=32, learning_rate=0.002, seed=0).validate()
model = DialogueModel("aem", cfg)
adam = model.make_optimizer()

# One batch holds the whole corpus, so each epoch is one Adam step.
# j3 is the mean squared distance between g(h) and s; it trains only
# the mapping MLP because the representations are detached under it.
print("step    j1      j2      j3      j4")
step = 0
while step < 500:
    for batch in make_batches(pairs, cfg.batch_size, seed=cfg.seed, epoch=step):
        parts = model.train_step(batch, adam)
        step += 1
        if step % 100 == 0 or step == 1:
            print("%4d  %6.3f  %6.3f  %6.3f  %6.3f"
                  % (step, parts.j1, parts.j2, parts.j3, parts.j4))

# The trained pieces can be used on their own. The source encoder and
# mapping produce a predicted response representation; the distance to
# the true response representation is what j3 measured.
batch = pairs_to_batch(pairs)
_, h = model.encode_source(batch)
s, _, _ = model.encode_target_ae(batch)
t, _ = model.map_representation(h, s)
gap = np.linalg.norm(t.values - s.values, axis=1)
base = np.linalg.norm(h.values - s.values, axis=1)
print("mean ||g(h) - s|| = %.3f   (unmapped ||h - s|| = %.3f)"
      % (gap.mean(), base.mean()))

# End to end: greedy responses from the mapped representation.
outputs = model.generate([p.source for p in pairs[:4]])
for p, out in zip(pairs[:4], outputs):
    print("%-10s -> %s" % (" ".join(vocab.decode(p.source)), " ".join(vocab.decode(out))))
exact = sum(out == p.target for out, p in zip(model.generate([p.source for p in pairs]), pairs))
print("exact responses: %d/%d" % (exact, len(pairs)))

"""Corpus loading, vocabulary, and padded/masked batching for dialogue pairs.

File formats
------------
Corpus: UTF-8 text, one pair per line, exactly one TAB between source and
target utterance. Vocabulary: UTF-8 text, one token per line; the token on
line k (0-based) has id k + 4, because ids 0..3 are the implicit specials
PAD, BOS, EOS, UNK.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64, derive_seed

log = logging.getLogger(__name__)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")


def tokenize(utterance, lowercase=True):
    """Split text on whitespace runs, lowercasing by default."""
    if lowercase:
        utterance = utterance.lower()
    return utterance.split()


class Vocabulary:
    """Token/id bijection with four reserved specials at ids 0..3."""

    def __init__(self, tokens):
        self.id_to_token = list(SPECIALS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens):
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids):
        return [self.id_to_token[i] for i in ids]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for token in self.id_to_token[4:]:
                f.write(token + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls(line.rstrip("\n") for line in f)


def build_vocab(corpus, max_size=40000):
    """Count tokens over an iterable of token sequences and keep the top
    max_size - 4 by frequency, ties broken lexicographically."""
    if max_size < 5:
        raise ValueError("max_size must leave room for the 4 specials, got %d" % max_size)
    counts = {}
    for tokens in corpus:
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    if not counts:
        raise ValueError("empty corpus")
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocabulary(ranked[: max_size - 4])


@dataclass
class DialoguePair:
    """One source/target utterance pair, as token strings or as ids."""

    source: list
    target: list


def load_corpus(path):
    """Read TAB-separated utterance pairs, tokenized, in file order.

    Lines with an empty side are skipped (one warning with the total);
    a line without exactly one TAB is an error naming the line.
    """
    pairs = []
    skipped = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if line.count("\t") != 1:
                raise ValueError(
                    "%s line %d: expected exactly one TAB, got %d"
                    % (path, lineno, line.count("\t"))
                )
            src_text, tgt_text = line.split("\t")
            src, tgt = tokenize(src_text), tokenize(tgt_text)
            if not src or not tgt:
                skipped += 1
                continue
            pairs.append(DialoguePair(src, tgt))
    if skipped:
        log.warning("skipped %d pairs with an empty side in %s", skipped, path)
    return pairs


def encode_pairs(pairs, vocab):
    """Map token pairs to id pairs; unseen tokens become UNK."""
    out = []
    for p in pairs:
        src, tgt = vocab.encode(p.source), vocab.encode(p.target)
        for side in (src, tgt):
            if not side:
                raise ValueError("empty side in pair")
            if any(i in (PAD_ID, BOS_ID, EOS_ID) for i in side):
                raise ValueError("reserved id inside a pair body")
        out.append(DialoguePair(src, tgt))
    return out


@dataclass
class Batch:
    """Padded id matrices with 0/1 masks covering real tokens plus EOS."""

    source: np.ndarray
    source_mask: np.ndarray
    target: np.ndarray
    target_mask: np.ndarray

    def __len__(self):
        return self.source.shape[0]


def pad_sequences(sequences, max_len=None):
    """Truncate bodies to max_len (None keeps them whole), append EOS,
    and pad to the batch maximum. Returns (ids, mask)."""
    bodies = [list(seq) if max_len is None else list(seq)[:max_len] for seq in sequences]
    width = max(len(b) for b in bodies) + 1
    ids = np.full((len(bodies), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(bodies), width), dtype=np.float64)
    for r, body in enumerate(bodies):
        ids[r, : len(body)] = body
        ids[r, len(body)] = EOS_ID
        mask[r, : len(body) + 1] = 1.0
    return ids, mask


def pairs_to_batch(pairs, max_len=50):
    """Build one padded batch from encoded pairs."""
    src, src_mask = pad_sequences([p.source for p in pairs], max_len)
    tgt, tgt_mask = pad_sequences([p.target for p in pairs], max_len)
    return Batch(src, src_mask, tgt, tgt_mask)


def make_batches(pairs, batch_size=256, seed=0, epoch=0, max_len=50):
    """Shuffle, bucket by source length to limit padding, and batch.

    The shuffle and the batch-order shuffle both derive from (seed, epoch),
    so the same arguments always produce the same batch sequence.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1, got %d" % batch_size)
    if not pairs:
        return []
    rng = SplitMix64(derive_seed(seed, "batches", str(epoch)))
    order = rng.permutation(len(pairs))
    # stable sort by source length; equal lengths keep their shuffled order
    order = sorted(order, key=lambda i: len(pairs[i].source))
    groups = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    rng.shuffle(groups)
    return [pairs_to_batch([pairs[i] for i in g], max_len) for g in groups]

"""Seeded synthetic dialogue corpora for the benchmark workloads.

Both generators draw only from `random.Random(seed)`, so one seed always
gives the same pairs. The package never sees the generator: it receives
the TSV files written by `write_pairs`.
"""

import random


def topic_pairs(rng, n, topics, fillers, replies):
    """Each source hides one topic word among 3-7 filler words; the
    response is that topic's fixed reply. Short utterances over a large
    vocabulary, so the output softmax dominates a training step. With
    five equally likely source lengths, the middle of a length-sorted
    corpus falls inside one length, so every seed batches to the same
    padded widths."""
    return [_topic_pair(rng, topics, fillers, replies) for _ in range(n)]


def _topic_pair(rng, topics, fillers, replies):
    topic = rng.randrange(len(topics))
    source = [rng.choice(fillers) for _ in range(3 + rng.randrange(5))]
    source.insert(rng.randrange(len(source) + 1), topics[topic])
    return source, replies[topic]


def topic_tables(rng, n_topics, n_fillers, n_reply_words):
    """Word lists and one fixed 4-8 word reply per topic."""
    topics = ["t%04d" % i for i in range(n_topics)]
    fillers = ["f%04d" % i for i in range(n_fillers)]
    pool = ["r%04d" % i for i in range(n_reply_words)]
    replies = [[rng.choice(pool) for _ in range(4 + rng.randrange(5))] for _ in topics]
    return topics, fillers, replies


def mapped_prefix_pairs(rng, n, n_words, src_len=(20, 40), tgt_len=(15, 30)):
    """Long sources over a small vocabulary; the response maps each
    token of a source prefix through a fixed permutation, and the prefix
    length grows with the source length. Learnable, and long enough that
    the per-timestep recurrence dominates a training step."""
    words = ["w%03d" % i for i in range(n_words)]
    perm = list(range(n_words))
    rng.shuffle(perm)
    lo, hi = src_len
    t_lo, t_hi = tgt_len
    pairs = []
    for _ in range(n):
        length = lo + rng.randrange(hi - lo + 1)
        source = [rng.randrange(n_words) for _ in range(length)]
        keep = t_lo + (length - lo) * (t_hi - t_lo) // (hi - lo)
        pairs.append(([words[i] for i in source],
                      [words[perm[i]] for i in source[:keep]]))
    return pairs


def make_corpus(kind, seed, n_pairs, sizes):
    """All pairs for one workload, drawn from one seeded stream:
    `kind` is "topic" or "mapped_prefix", `sizes` its table sizes."""
    rng = random.Random(seed)
    if kind == "topic":
        tables = topic_tables(rng, *sizes)
        return topic_pairs(rng, n_pairs, *tables)
    if kind == "mapped_prefix":
        return mapped_prefix_pairs(rng, n_pairs, *sizes)
    raise ValueError("unknown corpus kind %r" % kind)


def write_pairs(path, pairs):
    with open(path, "w", encoding="utf-8") as f:
        for source, target in pairs:
            f.write("%s\t%s\n" % (" ".join(source), " ".join(target)))


def write_lines(path, sequences):
    with open(path, "w", encoding="utf-8") as f:
        for tokens in sequences:
            f.write(" ".join(tokens) + "\n")

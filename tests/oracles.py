"""Independent reimplementations used only to cross-check the metrics.

Counting goes through collections.Counter multiset intersection, one
order at a time, and exact Fractions, a different route from the
library's single pass over every order, so agreement is meaningful.
"""

import math
from collections import Counter
from fractions import Fraction


def _grams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_oracle(hypotheses, references, max_n=4):
    """Returns (scores, precisions as Fractions, brevity penalty)."""
    c = sum(map(len, hypotheses))
    r = sum(map(len, references))
    precisions = []
    for n in range(1, max_n + 1):
        num = 0
        den = 0
        for hyp, ref in zip(hypotheses, references):
            hgrams = _grams(hyp, n)
            num += sum((hgrams & _grams(ref, n)).values())
            den += sum(hgrams.values())
        precisions.append(Fraction(num, den) if den else Fraction(0))
    if c == 0:
        bp = 0.0
    elif c > r:
        bp = 1.0
    else:
        bp = math.exp(1.0 - r / c)
    scores = []
    for n in range(1, max_n + 1):
        ps = precisions[:n]
        if all(p > 0 for p in ps):
            scores.append(100.0 * bp * math.exp(sum(math.log(float(p)) for p in ps) / n))
        else:
            scores.append(0.0)
    return scores, precisions, bp


def distinct_oracle(sentences, n):
    """Distinct n-grams by enumerating joined-string keys."""
    grams = set()
    for sent in sentences:
        grams |= {"\x1f".join(map(str, sent[i : i + n]))
                  for i in range(max(0, len(sent) - n + 1))}
    return len(grams)


def random_corpus(rng, pairs=50, vocab=8, max_len=7):
    """Aligned random token-sequence lists for cross-checks."""
    hyps, refs = [], []
    for _ in range(pairs):
        hyps.append([rng.next_below(vocab) + 4 for _ in range(rng.next_below(max_len) + 1)])
        refs.append([rng.next_below(vocab) + 4 for _ in range(rng.next_below(max_len) + 1)])
    return hyps, refs

"""Automatic and human-evaluation arithmetic.

Corpus BLEU-1..4 with pooled clipped n-gram counts and no smoothing,
distinct n-gram counts over the generated corpus, the geometric-mean
G-Score of fluency and coherence, and Pearson correlation for
inter-annotator agreement.
"""

import csv
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np


def _ngrams(tokens, max_n):
    """Every n-gram of one sentence at orders 1..max_n, as tuples, so
    n-grams of different orders never compare equal."""
    shifted = [tokens[i:] for i in range(max_n)]
    return chain.from_iterable([zip(*shifted[:n]) for n in range(1, max_n + 1)])


@dataclass
class BleuReport:
    """Pooled corpus BLEU at orders 1..max_n, scores scaled to [0, 100]."""

    scores: tuple
    precisions: tuple
    brevity_penalty: float
    hyp_len: int
    ref_len: int

    @property
    def bleu1(self):
        return self.scores[0]

    @property
    def bleu2(self):
        return self.scores[1]

    @property
    def bleu3(self):
        return self.scores[2]

    @property
    def bleu4(self):
        return self.scores[3]


def corpus_bleu(hypotheses, references, max_n=4):
    """Corpus BLEU with clipped counts pooled over all pairs.

    BP = exp(1 - r/c) when the hypothesis corpus is no longer than the
    reference corpus, else 1. An order whose pooled precision is zero
    zeroes every BLEU-n at that order and above.
    """
    if len(hypotheses) != len(references):
        raise ValueError("got %d hypotheses for %d references"
                         % (len(hypotheses), len(references)))
    if not hypotheses:
        raise ValueError("empty corpus")
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)

    # one pass over the pairs, every order at once: each hypothesis n-gram
    # its reference holds counts once toward order len(gram), then a
    # repeated one gives back what exceeds the reference's count (clipping)
    clipped = [0] * max_n
    for hyp, ref in zip(hypotheses, references):
        ref_grams = list(_ngrams(ref, max_n))
        hits = list(filter(set(ref_grams).__contains__, _ngrams(hyp, max_n)))
        for gram in hits:
            clipped[len(gram) - 1] += 1
        if len(set(hits)) < len(hits):
            # only an n-gram the hypothesis repeats can exceed its reference count
            hit_counts = Counter(hits)
            ref_counts = Counter(filter(hit_counts.__contains__, ref_grams))
            for gram, count in hit_counts.items():
                clipped[len(gram) - 1] -= max(count - ref_counts[gram], 0)
    precisions = []
    for n in range(1, max_n + 1):
        total = sum(max(len(hyp) - n + 1, 0) for hyp in hypotheses)
        precisions.append(clipped[n - 1] / total if total else 0.0)

    if hyp_len == 0:
        # a corpus of empty hypotheses matches nothing
        bp = 0.0
    elif hyp_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)

    scores = []
    for n in range(1, max_n + 1):
        ps = precisions[:n]
        if all(p > 0 for p in ps):
            scores.append(100.0 * bp * math.exp(sum(math.log(p) for p in ps) / n))
        else:
            scores.append(0.0)
    return BleuReport(tuple(scores), tuple(precisions), bp, hyp_len, ref_len)


@dataclass
class DiversityReport:
    """Counts of distinct n-grams over the whole generated output."""

    dist1: int
    dist2: int
    dist3: int


def distinct_ngrams(sentences, n):
    """Number of distinct n-grams anywhere in the corpus; n-grams never
    cross sentence boundaries."""
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    seen = set()
    for sent in sentences:
        seen.update(zip(*(sent[i:] for i in range(n))))
    return len(seen)


def diversity(sentences):
    return DiversityReport(*(distinct_ngrams(sentences, n) for n in (1, 2, 3)))


def g_score(fluency, coherence):
    """Geometric mean of the two human-evaluation axes."""
    if fluency <= 0 or coherence <= 0:
        raise ValueError("g_score needs positive scores, got (%r, %r)"
                         % (fluency, coherence))
    return math.sqrt(fluency * coherence)


def pearson(xs, ys):
    """Sample Pearson correlation; rejects degenerate inputs."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("pearson needs two aligned vectors of length >= 2")
    if np.std(xs) == 0.0 or np.std(ys) == 0.0:
        raise ValueError("pearson is undefined for zero-variance input")
    return float(np.corrcoef(xs, ys)[0, 1])


class HumanEvalTable:
    """Per-item, per-annotator fluency and coherence scores in 1..10.

    Cells may be missing; means skip them and agreement drops them
    pairwise.
    """

    def __init__(self):
        self.fluency = {}
        self.coherence = {}
        self.rows = set()
        self.items = set()
        self.annotators = set()

    def add(self, item, annotator, fluency, coherence):
        for name, score in (("fluency", fluency), ("coherence", coherence)):
            if score is not None and not 1 <= score <= 10:
                raise ValueError("%s score %r for item %r is outside 1..10"
                                 % (name, score, item))
        key = (item, annotator)
        if key in self.rows:
            raise ValueError("duplicate cell for item %r, annotator %r" % (item, annotator))
        self.rows.add(key)
        if fluency is not None:
            self.fluency[key] = float(fluency)
        if coherence is not None:
            self.coherence[key] = float(coherence)
        self.items.add(item)
        self.annotators.add(annotator)

    def mean(self, field):
        cells = getattr(self, field)
        if not cells:
            raise ValueError("no %s scores" % field)
        return sum(cells.values()) / len(cells)

    def agreement(self, field):
        """Mean pairwise Pearson between annotators over shared items."""
        cells = getattr(self, field)
        annotators = sorted(self.annotators)
        correlations = []
        for i, a in enumerate(annotators):
            for b in annotators[i + 1 :]:
                shared = [item for item in sorted(self.items)
                          if (item, a) in cells and (item, b) in cells]
                if len(shared) < 2:
                    continue
                xs = [cells[(item, a)] for item in shared]
                ys = [cells[(item, b)] for item in shared]
                try:
                    correlations.append(pearson(xs, ys))
                except ValueError:
                    continue  # constant scorer; correlation undefined
        if not correlations:
            raise ValueError("no annotator pair with enough shared %s scores" % field)
        return sum(correlations) / len(correlations)

    def summary(self):
        """The human-score part of eval_report: both means, their G-Score
        and both agreements."""
        fluency, coherence = self.mean("fluency"), self.mean("coherence")
        return {
            "fluency": fluency,
            "coherence": coherence,
            "g_score": g_score(fluency, coherence),
            "agreement_fluency": self.agreement("fluency"),
            "agreement_coherence": self.agreement("coherence"),
        }


HUMAN_HEADER = ["item_id", "annotator_id", "fluency", "coherence"]


def load_human_scores(path):
    """Read the score CSV: header then item_id,annotator_id,fluency,coherence.
    Empty score fields mark explicitly missing cells. Errors name the file
    and line."""
    table = HumanEvalTable()
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != HUMAN_HEADER:
            raise ValueError("%s line 1: expected header %s" % (path, ",".join(HUMAN_HEADER)))
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != 4:
                    raise ValueError("expected 4 fields, got %d" % len(row))
                item, annotator = row[0].strip(), row[1].strip()
                scores = [_score(name, cell) for name, cell in zip(HUMAN_HEADER[2:], row[2:])]
                table.add(item, annotator, scores[0], scores[1])
            except ValueError as exc:
                raise ValueError("%s line %d: %s" % (path, reader.line_num, exc)) from None
    return table


def _score(name, cell):
    """One score field: None when empty, else its number."""
    if cell.strip() == "":
        return None
    try:
        return float(cell)
    except ValueError:
        raise ValueError("%s score %r is not a number" % (name, cell)) from None


def eval_report(hypotheses, references, human=None):
    """Assemble every metric for a generated corpus.

    `hypotheses` and `references` are aligned token-sequence lists;
    `human` is an optional HumanEvalTable.summary(). Returns one flat
    dict of numbers: bleu1..4, p1..4, brevity_penalty, hyp_len, ref_len
    and dist1..3, plus the human-score means, G-Score and agreements.
    """
    bleu = corpus_bleu(hypotheses, references)
    report = {"bleu%d" % n: score for n, score in enumerate(bleu.scores, start=1)}
    report.update(("p%d" % n, p) for n, p in enumerate(bleu.precisions, start=1))
    report.update(brevity_penalty=bleu.brevity_penalty, hyp_len=bleu.hyp_len,
                  ref_len=bleu.ref_len)
    report.update(("dist%d" % n, distinct_ngrams(hypotheses, n)) for n in (1, 2, 3))
    report.update(human or {})
    return report


def format_report(report):
    """Human-readable table followed by one machine-readable line."""
    lines = ["BLEU-%d  %6.2f   (p%d=%.4f)" % (n, report["bleu%d" % n], n, report["p%d" % n])
             for n in (1, 2, 3, 4)]
    lines.append("brevity penalty %(brevity_penalty).4f  "
                 "(hyp %(hyp_len)d tokens, ref %(ref_len)d tokens)" % report)
    lines += ["dist-%d  %d" % (n, report["dist%d" % n]) for n in (1, 2, 3)]
    machine = ["bleu%d=%.4f" % (n, report["bleu%d" % n]) for n in (1, 2, 3, 4)]
    machine += ["dist%d=%d" % (n, report["dist%d" % n]) for n in (1, 2, 3)]
    if "fluency" in report:
        lines.append("fluency %(fluency).2f  coherence %(coherence).2f  g-score %(g_score).2f"
                     % report)
        lines.append("agreement: fluency %(agreement_fluency).2f  "
                     "coherence %(agreement_coherence).2f" % report)
        machine += ["%s=%.4f" % (k, report[k]) for k in ("fluency", "coherence", "g_score",
                                                          "agreement_fluency",
                                                          "agreement_coherence")]
    lines.append(" ".join(machine))
    return "\n".join(lines)

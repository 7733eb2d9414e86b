import math
import re
from pathlib import Path

import numpy as np
import pytest

from aem.metrics import (
    HumanEvalTable,
    corpus_bleu,
    distinct_ngrams,
    diversity,
    eval_report,
    format_report,
    g_score,
    load_human_scores,
    pearson,
)
from aem.rng import SplitMix64
from oracles import bleu_oracle, distinct_oracle, random_corpus


def toks(text):
    return text.split()


def test_identity_bleu_is_100():
    hyps = [toks("a b c d"), toks("x y")]
    report = corpus_bleu(hyps, [list(h) for h in hyps])
    for n in (1, 2, 3, 4):
        assert report.scores[n - 1] == 100.0
    assert report.brevity_penalty == 1.0


def test_hand_case_short_hypothesis():
    report = corpus_bleu([toks("a b c")], [toks("a b c d")])
    assert report.precisions[:3] == (1.0, 1.0, 1.0)
    np.testing.assert_allclose(report.brevity_penalty, math.exp(1 - 4 / 3), rtol=1e-12)
    assert round(report.bleu3, 2) == 71.65
    assert report.bleu4 == 0.0  # no 4-grams in a 3-token hypothesis


def test_hand_case_clipping():
    report = corpus_bleu([toks("the the the")], [toks("the cat")])
    assert report.precisions[0] == 1 / 3
    assert report.brevity_penalty == 1.0
    assert round(report.bleu1, 2) == 33.33


def test_bleu_rejects_bad_inputs():
    with pytest.raises(ValueError, match="hypotheses"):
        corpus_bleu([toks("a")], [])
    with pytest.raises(ValueError, match="empty"):
        corpus_bleu([], [])


def test_bleu_pair_order_invariant():
    rng = SplitMix64(4)
    hyps, refs = random_corpus(rng, pairs=20)
    a = corpus_bleu(hyps, refs)
    order = list(reversed(range(20)))
    b = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
    assert a == b


def test_bleu_100_only_on_exact_match():
    hyps = [toks("a b c"), toks("d e")]
    refs = [list(h) for h in hyps]
    refs[1][0] = "x"
    report = corpus_bleu(hyps, refs)
    assert report.bleu1 < 100.0
    # surplus hypothesis tokens also break the identity even with BP = 1
    report = corpus_bleu([toks("a b c c")], [toks("a b c")])
    assert report.brevity_penalty == 1.0
    assert all(s < 100.0 for s in report.scores)


def test_bleu_tolerates_empty_hypotheses():
    report = corpus_bleu([[], toks("a b")], [toks("a"), toks("a b")])
    assert 0.0 < report.bleu1 <= 100.0
    report = corpus_bleu([[], []], [toks("a"), toks("b")])
    assert report.scores == (0.0, 0.0, 0.0, 0.0)


def test_bleu_matches_brute_force_oracle_exactly():
    rng = SplitMix64(99)
    hyps, refs = random_corpus(rng, pairs=50)
    report = corpus_bleu(hyps, refs)
    scores, precisions, bp = bleu_oracle(hyps, refs)
    assert list(report.scores) == scores
    assert report.brevity_penalty == bp
    for mine, frac in zip(report.precisions, precisions):
        assert mine == float(frac)


# every case the counting must get right: repeated tokens (clipped at each
# order), hypotheses shorter than 4, an empty hypothesis, an empty
# reference, int tokens, and int and str tokens in one sentence ("1" is
# not 1)
GOLDEN_HYPS = [
    toks("the the cat sat on the mat the"),
    toks("a b"),
    [],
    toks("hello there"),
    [1, 2, 3, 1, 2, 3, 4],
    ["1", 2, "3", 2, "1"],
    toks("x"),
    toks("go go go go go"),
    toks("i am fine thanks i am"),
]
GOLDEN_REFS = [
    toks("the cat sat on the mat"),
    toks("a b c d e f"),
    toks("x y z"),
    [],
    [1, 2, 3, 4, 1, 2],
    [1, "2", "3", 2, "1"],
    toks("x"),
    toks("go go"),
    toks("i am fine thanks and you i am"),
]
GOLDEN_REPORT = Path(__file__).with_name("golden") / "eval_report.txt"


def test_eval_report_matches_golden_text():
    # the golden text was written by the one-dict-per-order-and-sentence
    # counting this module used before; the report must not move by a byte
    text = format_report(eval_report(GOLDEN_HYPS, GOLDEN_REFS))
    assert text + "\n" == GOLDEN_REPORT.read_text(encoding="utf-8")


@pytest.mark.parametrize("max_n", [1, 2, 4, 6])
def test_bleu_matches_oracle_at_every_max_n(max_n):
    rng = SplitMix64(5)
    hyps, refs = random_corpus(rng, pairs=60, vocab=3, max_len=9)
    for h, r in ((hyps, refs), (GOLDEN_HYPS, GOLDEN_REFS)):
        report = corpus_bleu(h, r, max_n=max_n)
        scores, precisions, bp = bleu_oracle(h, r, max_n=max_n)
        assert list(report.scores) == scores
        assert report.brevity_penalty == bp
        assert list(report.precisions) == [float(p) for p in precisions]


def test_distinct_examples():
    assert distinct_ngrams([toks("a a a")], 1) == 1
    sents = [toks("i am fine"), toks("i am good")]
    assert distinct_ngrams(sents, 1) == 4
    assert distinct_ngrams(sents, 2) == 3
    assert distinct_ngrams(sents, 3) == 2
    assert distinct_ngrams([toks("a")], 2) == 0
    with pytest.raises(ValueError):
        distinct_ngrams(sents, 0)


def test_distinct_matches_enumeration_oracle():
    rng = SplitMix64(123)
    sents, _ = random_corpus(rng, pairs=40)
    for n in (1, 2, 3):
        assert distinct_ngrams(sents, n) == distinct_oracle(sents, n)


def test_distinct_monotone_under_append():
    rng = SplitMix64(7)
    sents, _ = random_corpus(rng, pairs=30)
    for n in (1, 2, 3):
        counts = [distinct_ngrams(sents[:k], n) for k in range(1, len(sents) + 1)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_diversity_report():
    d = diversity([toks("i am fine"), toks("i am good")])
    assert (d.dist1, d.dist2, d.dist3) == (4, 3, 2)


@pytest.mark.parametrize("f,c,want", [
    (6.97, 3.51, 4.95),
    (8.11, 4.18, 5.82),
    (5.11, 3.30, 4.10),
    (7.92, 4.97, 6.27),
])
def test_g_score_table_values(f, c, want):
    assert abs(g_score(f, c) - want) <= 0.01


def test_g_score_properties():
    assert g_score(3.0, 7.0) == g_score(7.0, 3.0)
    assert g_score(4.2, 4.2) == pytest.approx(4.2, rel=1e-12)
    with pytest.raises(ValueError):
        g_score(0.0, 5.0)
    with pytest.raises(ValueError):
        g_score(5.0, -1.0)


def test_pearson_hand_cases():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84), rel=1e-12)


def test_pearson_affine_property():
    rng = SplitMix64(11)
    xs = [rng.uniform(-5, 5) for _ in range(20)]
    ys_up = [3.5 * x + 2.0 for x in xs]
    ys_down = [-0.25 * x + 1.0 for x in xs]
    assert pearson(xs, ys_up) == pytest.approx(1.0, abs=1e-9)
    assert pearson(xs, ys_down) == pytest.approx(-1.0, abs=1e-9)


def test_pearson_rejects_degenerate():
    with pytest.raises(ValueError):
        pearson([1.0], [1.0])
    with pytest.raises(ValueError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])


def scores_csv(tmp_path, text):
    p = tmp_path / "scores.csv"
    p.write_text(text, encoding="utf-8")
    return p


def test_human_table_means_and_agreement(tmp_path):
    path = scores_csv(tmp_path, "\n".join([
        "item_id,annotator_id,fluency,coherence",
        "1,a,2,4", "2,a,4,6", "3,a,6,8",
        "",  # a blank row is skipped
        "1,b,1,8", "2,b,2,6", "3,b,3,4",
        "",
    ]))
    table = load_human_scores(path)
    assert len(table.rows) == 6
    assert table.mean("fluency") == pytest.approx((2 + 4 + 6 + 1 + 2 + 3) / 6)
    assert table.agreement("fluency") == pytest.approx(1.0, abs=1e-12)
    assert table.agreement("coherence") == pytest.approx(-1.0, abs=1e-12)


def test_human_table_drops_missing_pairwise(tmp_path):
    path = scores_csv(tmp_path, "\n".join([
        "item_id,annotator_id,fluency,coherence",
        "1,a,2,", "2,a,4,5", "3,a,6,5",
        "1,b,4,5", "2,b,8,5", "3,b,,5",
        # c shares only one fluency item with each; contributes no pair
        "1,c,9,9",
    ]))
    table = load_human_scores(path)
    # a/b share fluency items 1 and 2: [2,4] vs [4,8]
    assert table.agreement("fluency") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        table.agreement("coherence")  # b constant, a has one missing: no valid pair


def test_human_table_validation(tmp_path):
    with pytest.raises(ValueError, match="header"):
        load_human_scores(scores_csv(tmp_path, "item,rater,f,c\n1,a,2,3\n"))
    with pytest.raises(ValueError, match="1..10"):
        load_human_scores(scores_csv(
            tmp_path, "item_id,annotator_id,fluency,coherence\n1,a,11,3\n"))
    with pytest.raises(ValueError, match="duplicate"):
        load_human_scores(scores_csv(
            tmp_path, "item_id,annotator_id,fluency,coherence\n1,a,3,3\n1,a,4,4\n"))
    with pytest.raises(ValueError, match="line 2"):
        load_human_scores(scores_csv(
            tmp_path, "item_id,annotator_id,fluency,coherence\n1,a,3\n"))


HEADER = "item_id,annotator_id,fluency,coherence\n"


@pytest.mark.parametrize("rows", ["1,a,,4\n1,a,,9\n", "1,a,4,\n1,a,,9\n", "1,a,,\n1,a,5,\n"],
                         ids=["coherence_only", "fluency_then_coherence", "empty_then_fluency"])
def test_human_table_repeated_row_names_its_line(tmp_path, rows):
    path = scores_csv(tmp_path, HEADER + rows)
    with pytest.raises(ValueError, match="^" + re.escape(
            "%s line 3: duplicate cell for item '1', annotator 'a'" % path)):
        load_human_scores(path)


@pytest.mark.parametrize("text, message", [
    ("item,rater,f,c\n1,a,2,3\n", "line 1: expected header"),
    (HEADER + "1,a,3,3\n2,a,3\n", "line 3: expected 4 fields, got 3"),
    (HEADER + "1,a,3,3\n2,a,x,3\n", "line 3: fluency score 'x' is not a number"),
], ids=["header", "field_count", "non_numeric"])
def test_human_score_errors_name_file_and_line(tmp_path, text, message):
    path = scores_csv(tmp_path, text)
    with pytest.raises(ValueError, match="^" + re.escape("%s %s" % (path, message))):
        load_human_scores(path)


def test_eval_report_keys_and_degenerate_model():
    fixed = toks("i do not know")
    hyps = [list(fixed) for _ in range(5)]
    refs = [[*"abcde"][: i + 1] for i in range(5)]
    report = eval_report(hyps, refs)
    assert report["dist3"] == distinct_ngrams([fixed], 3) == 2
    assert set(report) >= {"bleu1", "bleu4", "p1", "p4", "brevity_penalty", "hyp_len",
                           "ref_len", "dist1", "dist3"}
    assert all(isinstance(value, (int, float)) for value in report.values())
    with pytest.raises(ValueError):
        eval_report(hyps[:4], refs)


def test_eval_report_with_human_scores(tmp_path):
    path = scores_csv(tmp_path, "\n".join([
        "item_id,annotator_id,fluency,coherence",
        "1,a,8,4", "2,a,9,5",
        "1,b,7,4", "2,b,8,5",
    ]))
    hyps = [toks("a b c d"), toks("c d e f")]
    report = eval_report(hyps, [list(h) for h in hyps], load_human_scores(path).summary())
    assert report["g_score"] == pytest.approx(
        math.sqrt(report["fluency"] * report["coherence"]), rel=1e-12)
    text = format_report(report)
    assert "BLEU-4" in text and "g-score" in text
    assert "bleu4=100.0000" in text.splitlines()[-1]

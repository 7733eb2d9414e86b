"""Release gate: one test per shipping requirement, each with its
tolerance pinned in the assertion.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
requirement. The scaled trend comparison (criterion 9) needs hours of
CPU, is informational rather than binding, and therefore only runs when
AEM_SCALED=1 is set in the environment.
"""

import math
import os
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from aem.autograd import (Tape, Tensor, add, add_bias, attend, backward,
                          batched_dot, concat_cols, embedding_lookup,
                          lerp_mask, masked_softmax, matmul, mul, reshape,
                          scale, sigmoid, slice_cols, softmax_cross_entropy,
                          stack_steps, sub, sum_all, tanh)
from aem.checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from aem.cli import fit, main
from aem.config import RunConfig
from aem.data import DialoguePair, build_vocab, encode_pairs, make_batches, pairs_to_batch
from aem.gradcheck import check_gradients, max_relative_error, numeric_gradient
from aem.metrics import corpus_bleu, distinct_ngrams, g_score
from aem.model import DialogueModel, build_baseline, total_loss
from aem.rng import SplitMix64, derive_seed

from helpers import tiny_config, toy_batch
from oracles import bleu_oracle, distinct_oracle, random_corpus


# ---------------------------------------------------------------------------
# 1. gradient correctness: finite differences on every op and on the
#    full weighted loss of a tiny joint model, in under a minute


def _op_cases(rng):
    """(name, watched leaves, scalar loss builder) for every op.

    Non-scalar outputs are contracted against a fixed random weight so
    no gradient entry can hide behind a uniform reduction.
    """

    def leaf(*shape):
        return Tensor(rng.normal(size=shape))

    def weighted(out_fn, *shape):
        w = Tensor(rng.normal(size=shape))
        return lambda: sum_all(mul(out_fn(), w))

    a34, b34 = leaf(3, 4), leaf(3, 4)
    m_a, m_b = leaf(3, 4), leaf(4, 5)
    bias_x, bias_b = leaf(6, 4), leaf(4)
    act_x, act_y = leaf(3, 4), leaf(3, 4)
    cat_a, cat_b = leaf(3, 2), leaf(3, 4)
    sl_x = leaf(3, 7)
    rs_x = leaf(3, 4)
    table = Tensor(rng.normal(size=(5, 3)))
    ids = np.array([[0, 2, 2], [4, 0, 1]])  # repeats force grad accumulation
    steps = [leaf(2, 4) for _ in range(3)]
    lm_new, lm_prev = leaf(3, 4), leaf(3, 4)
    keep = np.array([[1.0], [0.0], [1.0]])
    q, states = leaf(2, 4), leaf(2, 3, 4)
    att_w = leaf(2, 3)
    sm_scores = leaf(2, 4)
    sm_mask = np.array([[1.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0]])
    sum_x = leaf(3, 4)
    ce_logits = leaf(6, 5)
    ce_targets = np.array([1, 4, 0, 2, 3, 0])
    ce_mask = np.array([1, 1, 0, 1, 1, 0])

    return [
        ("matmul", [m_a, m_b], weighted(lambda: matmul(m_a, m_b), 3, 5)),
        ("add", [a34, b34], weighted(lambda: add(a34, b34), 3, 4)),
        ("sub", [a34, b34], weighted(lambda: sub(a34, b34), 3, 4)),
        ("mul", [a34, b34], weighted(lambda: mul(a34, b34), 3, 4)),
        ("add_bias", [bias_x, bias_b], weighted(lambda: add_bias(bias_x, bias_b), 6, 4)),
        ("scale", [act_x], weighted(lambda: scale(act_x, -1.7), 3, 4)),
        ("sigmoid", [act_x], weighted(lambda: sigmoid(act_x), 3, 4)),
        ("tanh", [act_y], weighted(lambda: tanh(act_y), 3, 4)),
        ("concat_cols", [cat_a, cat_b], weighted(lambda: concat_cols(cat_a, cat_b), 3, 6)),
        ("slice_cols", [sl_x], weighted(lambda: slice_cols(sl_x, 2, 5), 3, 3)),
        ("reshape", [rs_x], weighted(lambda: reshape(rs_x, (2, 6)), 2, 6)),
        ("embedding_lookup", [table],
         weighted(lambda: embedding_lookup(table, ids), 2, 3, 3)),
        ("stack_steps", steps, weighted(lambda: stack_steps(steps), 2, 3, 4)),
        ("lerp_mask", [lm_new, lm_prev],
         weighted(lambda: lerp_mask(lm_new, lm_prev, keep), 3, 4)),
        ("batched_dot", [q, states], weighted(lambda: batched_dot(q, states), 2, 3)),
        ("attend", [att_w, states], weighted(lambda: attend(att_w, states), 2, 4)),
        ("masked_softmax", [sm_scores],
         weighted(lambda: masked_softmax(sm_scores, sm_mask), 2, 4)),
        ("sum_all", [sum_x], lambda: scale(sum_all(sum_x), 1.3)),
        ("softmax_cross_entropy", [ce_logits],
         lambda: softmax_cross_entropy(ce_logits, ce_targets, ce_mask)[0]),
    ]


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(17)
    for name, leaves, loss_fn in _op_cases(rng):
        err = check_gradients(loss_fn, leaves)
        assert err < 1e-4, "op %s: max relative gradient error %.3g" % (name, err)

    # full weighted loss, joint (non-detached) so J3 reaches every branch
    cfg = tiny_config(seed=5, detach_j3=False)
    pairs = [DialoguePair([4, 5], [6, 4]), DialoguePair([5, 4], [6])]
    batch = pairs_to_batch(pairs)
    assert batch.source.shape == (2, 3) and batch.target.shape == (2, 3)
    model = DialogueModel("aem", cfg, dtype=np.float64)
    loss_fn = lambda: model.loss_graph(batch)[0]
    tensors = model.store.tensors()
    with Tape() as tape:
        tape.watch(tensors)
        loss = loss_fn()
    backward(tape, loss)
    analytic = {t.name: t.grad.copy() for t in tensors}
    model.store.zero_grads()
    # central differences resolve this loss to ~1e-10 absolute, so the
    # relative bound applies above 1e-6 and a 1e-8 absolute bound below
    for t in tensors:
        numeric = numeric_gradient(lambda: loss_fn().values, t, delta=3e-5)
        abs_err = float(np.abs(analytic[t.name] - numeric).max())
        assert abs_err < 1e-8, "%s: absolute gradient error %.3g" % (t.name, abs_err)
        rel = max_relative_error(analytic[t.name], numeric, atol=1e-6)
        assert rel < 1e-4, "%s: relative gradient error %.3g" % (t.name, rel)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "gradient check took %.1fs" % elapsed
    print("criterion 1: all ops and the full loss within 1e-4 (%.1fs)" % elapsed)


# ---------------------------------------------------------------------------
# 2. loss composition: reported total is lambda1*(J1+J2) + lambda2*J3
#    + lambda3*J4, and the concrete case 1,2,5,3 / (1, 0.01, 1) is 6.05


def test_criterion_2_loss_composition():
    rng = np.random.default_rng(20)
    for _ in range(300):
        l1, l2, l3 = rng.uniform(0.0, 2.0, size=3)
        j1, j2, j3, j4 = rng.uniform(0.0, 10.0, size=4)
        cfg = RunConfig(lambda1=float(l1), lambda2=float(l2), lambda3=float(l3))
        got = total_loss(j1, j2, j3, j4, cfg)
        want = math.fsum([l1 * j1, l1 * j2, l2 * j3, l3 * j4])
        assert abs(got - want) <= 1e-6 * max(abs(want), 1e-12)

    # the same identity through an actual model's reported breakdown
    cfg = tiny_config(lambda1=0.7, lambda2=0.3, lambda3=1.9)
    parts = DialogueModel("aem", cfg).evaluate_batch(toy_batch())
    want = math.fsum([cfg.lambda1 * parts.j1, cfg.lambda1 * parts.j2,
                      cfg.lambda2 * parts.j3, cfg.lambda3 * parts.j4])
    assert abs(parts.total - want) <= 1e-6 * abs(want)

    exact = total_loss(1.0, 2.0, 5.0, 3.0,
                       RunConfig(lambda1=1.0, lambda2=0.01, lambda3=1.0))
    assert exact == 6.05
    print("criterion 2: composition within 1e-6 relative; 1,2,5,3 -> 6.05 exactly")


# ---------------------------------------------------------------------------
# 3. overfit: 32-pair toy corpus, H=32, E=16, 500 Adam steps at lr 0.002
#    drive per-token J1, J2, J4 under 0.1 and greedy generation
#    reproduces at least 90% of the targets, in under 5 minutes


def _overfit_corpus():
    firsts = ["a%d" % i for i in range(8)]
    seconds = ["b%d" % j for j in range(4)]
    pairs = [DialoguePair([a, b], [b, a, b, a, b, a])
             for a in firsts for b in seconds]
    vocab = build_vocab((side for p in pairs for side in (p.source, p.target)),
                        max_size=100)
    return encode_pairs(pairs, vocab), vocab


def test_criterion_3_overfit():
    t0 = time.monotonic()
    pairs, _ = _overfit_corpus()
    assert len(pairs) == 32
    cfg = RunConfig(hidden_size=32, embed_size=16, vocab_size=16,
                    batch_size=32, learning_rate=0.002, seed=0).validate()
    model = DialogueModel("aem", cfg)
    adam = model.make_optimizer()
    steps = 0
    while steps < 500:
        for batch in make_batches(pairs, cfg.batch_size, seed=cfg.seed, epoch=steps):
            parts = model.train_step(batch, adam)
            steps += 1
            if steps >= 500:
                break
    assert steps == 500
    assert parts.j1 < 0.1, "per-token J1 %.4f" % parts.j1
    assert parts.j2 < 0.1, "per-token J2 %.4f" % parts.j2
    assert parts.j4 < 0.1, "per-token J4 %.4f" % parts.j4

    outputs = model.generate([p.source for p in pairs])
    matches = sum(out == p.target for out, p in zip(outputs, pairs))
    assert matches >= math.ceil(0.9 * len(pairs)), "only %d/32 exact" % matches

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, "overfit run took %.1fs" % elapsed
    print("criterion 3: j1=%.4f j2=%.4f j4=%.4f, %d/32 exact (%.1fs)"
          % (parts.j1, parts.j2, parts.j4, matches, elapsed))


# ---------------------------------------------------------------------------
# 4. baseline equivalence: with lambda1=lambda2=0 and the mapping frozen
#    to identity, the joint model walks the plain encoder-decoder's loss
#    trajectory step for step


def test_criterion_4_baseline_equivalence():
    pairs, _ = _overfit_corpus()
    shared = dict(hidden_size=16, embed_size=8, vocab_size=16,
                  batch_size=8, learning_rate=0.002, seed=9)
    aem = DialogueModel("aem", RunConfig(lambda1=0.0, lambda2=0.0, **shared).validate(),
                        identity_map=True)
    s2s = build_baseline("seq2seq", RunConfig(**shared).validate())
    adam_a, adam_s = aem.make_optimizer(), s2s.make_optimizer()

    steps = 0
    epoch = 0
    while steps < 50:
        for batch in make_batches(pairs, 8, seed=9, epoch=epoch):
            pa = aem.train_step(batch, adam_a)
            ps = s2s.train_step(batch, adam_s)
            rel = abs(pa.total - ps.total) / max(abs(ps.total), 1e-12)
            assert rel <= 1e-5, "step %d: totals %.10f vs %.10f" % (steps, pa.total, ps.total)
            steps += 1
            if steps >= 50:
                break
        epoch += 1
    print("criterion 4: 50 steps within 1e-5 relative")


# ---------------------------------------------------------------------------
# 5. mapping-loss detachment: detached, the matching loss moves only the
#    mapping; joint, it reaches both encoders


def _mapping_loss_grads(model, batch, detach):
    model.store.zero_grads()
    with Tape() as tape:
        tape.watch(model.store.tensors())
        _, h = model.encode_source(batch)
        s, _, _ = model.encode_target_ae(batch)
        _, j3 = model.map_representation(h, s, detach_states=detach)
        backward(tape, j3)
    by_side = {"theta": 0.0, "phi": 0.0, "gamma": 0.0}
    for name, t in model.store.items():
        side = name.split(".", 1)[0]
        if side in by_side:
            by_side[side] = max(by_side[side], float(np.abs(t.grad).max()))
    return by_side


def test_criterion_5_detachment():
    model = DialogueModel("aem", tiny_config(seed=11))
    batch = toy_batch()

    detached = _mapping_loss_grads(model, batch, detach=True)
    assert detached["theta"] == 0.0
    assert detached["phi"] == 0.0
    assert detached["gamma"] > 0.0  # the loss still trains the mapping

    joint = _mapping_loss_grads(model, batch, detach=False)
    assert joint["theta"] > 1e-8
    assert joint["phi"] > 1e-8
    print("criterion 5: detached max |grad| theta=phi=0 exactly; "
          "joint theta=%.3g phi=%.3g" % (joint["theta"], joint["phi"]))


# ---------------------------------------------------------------------------
# 6. metric oracles: BLEU equals an independent Counter/Fraction
#    implementation exactly; the two hand-computable cases land on
#    71.65 and 33.33; dist-n equals set enumeration


def test_criterion_6_metric_oracles():
    rng = SplitMix64(derive_seed(99, "acceptance", "bleu"))
    hyps, refs = random_corpus(rng, pairs=50)
    report = corpus_bleu(hyps, refs)
    oracle_scores, oracle_precisions, oracle_bp = bleu_oracle(hyps, refs)
    assert list(report.scores) == oracle_scores
    assert report.brevity_penalty == oracle_bp
    for got, want in zip(report.precisions, oracle_precisions):
        assert got == float(want)

    perfect = corpus_bleu(refs, refs)
    assert perfect.scores == (100.0, 100.0, 100.0, 100.0)

    # every n-gram matches, hypothesis one word short: BP = exp(-1/3)
    short = corpus_bleu([["a", "b", "c"]], [["a", "b", "c", "d"]])
    assert round(short.bleu3, 2) == 71.65
    assert abs(short.bleu3 - 100.0 * math.exp(-1.0 / 3.0)) < 1e-9

    # clipping: three copies of a word the reference holds once
    clipped = corpus_bleu([["a", "a", "a"]], [["a", "b", "c"]])
    assert round(clipped.bleu1, 2) == 33.33

    sentences = hyps + refs
    for n in (1, 2, 3):
        assert distinct_ngrams(sentences, n) == distinct_oracle(sentences, n)
    print("criterion 6: BLEU and dist-n match oracles exactly; "
          "hand cases 71.65 / 33.33 reproduce")


# ---------------------------------------------------------------------------
# 7. published-table arithmetic: the geometric-mean column recomputes
#    from its fluency and coherence columns within 0.01


def test_criterion_7_score_table_arithmetic():
    table = [(6.97, 3.51, 4.95), (8.11, 4.18, 5.82),
             (5.11, 3.30, 4.10), (7.92, 4.97, 6.27)]
    for fluency, coherence, expected in table:
        got = g_score(fluency, coherence)
        assert abs(got - expected) <= 0.01, \
            "g(%.2f, %.2f) = %.4f, expected %.2f" % (fluency, coherence, got, expected)
    print("criterion 7: all 4 table entries within 0.01")


# ---------------------------------------------------------------------------
# 8. determinism and persistence: same seed gives bit-identical logs and
#    outputs; a checkpoint round trip changes nothing


CHAT_LINES = [
    ("hello there", "hi how are you"),
    ("how are you", "i am fine thanks"),
    ("what is your name", "my name is sam"),
    ("where do you live", "i live in town"),
    ("do you like tea", "yes i like tea"),
    ("see you later", "bye for now"),
    ("nice to meet you", "nice to meet you too"),
    ("good morning", "good morning to you"),
]


def _write_corpus(path):
    with open(path, "w", encoding="utf-8") as f:
        for src, tgt in CHAT_LINES * 2:  # every token reaches the count cutoff
            f.write("%s\t%s\n" % (src, tgt))


def test_criterion_8_determinism_and_persistence(tmp_path, capsys):
    corpus = tmp_path / "train.tsv"
    _write_corpus(corpus)
    inputs = tmp_path / "inputs.txt"
    inputs.write_text("".join(src + "\n" for src, _ in CHAT_LINES), encoding="utf-8")

    logs = {}
    outs = {}
    for run in ("one", "two"):
        ckpt_dir = tmp_path / run
        manifest = tmp_path / ("%s.cfg" % run)
        manifest.write_text(
            "kind = aem\n"
            "train_path = %s\n"
            "ckpt_dir = %s\n"
            "hidden_size = 16\n"
            "embed_size = 8\n"
            "vocab_size = 64\n"
            "batch_size = 4\n"
            "epochs = 3\n"
            "seed = 13\n" % (corpus, ckpt_dir), encoding="utf-8")
        assert main(["train", "--config", str(manifest)]) == 0
        out_path = tmp_path / ("%s.out" % run)
        assert main(["generate", "--ckpt", str(ckpt_dir / "last.ckpt"),
                     "--in", str(inputs), "--out", str(out_path)]) == 0
        logs[run] = (ckpt_dir / "metrics.log").read_bytes()
        outs[run] = out_path.read_bytes()
    capsys.readouterr()
    assert logs["one"] == logs["two"], "loss logs differ between identical runs"
    assert outs["one"] == outs["two"], "generated outputs differ between identical runs"

    # checkpoint round trip: generate, save, load, generate again
    pairs, vocab = _overfit_corpus()
    cfg = RunConfig(hidden_size=16, embed_size=8, vocab_size=len(vocab),
                    batch_size=8, seed=13).validate()
    model = DialogueModel("aem", cfg)
    adam = model.make_optimizer()
    for epoch in range(5):
        for batch in make_batches(pairs, cfg.batch_size, seed=cfg.seed, epoch=epoch):
            model.train_step(batch, adam)
    sources = [p.source for p in pairs]
    before = model.generate(sources)
    path = tmp_path / "round.ckpt"
    save_checkpoint(str(path), model, vocab, adam, epoch=5)
    restored = model_from_checkpoint(load_checkpoint(str(path)))
    assert restored.generate(sources) == before
    print("criterion 8: identical runs bit-identical; checkpoint round trip exact")


# ---------------------------------------------------------------------------
# 9. scaled trend (informational): on a 5K-pair synthetic corpus at
#    H=128 E=64, the joint model should reach at least the plain
#    encoder-decoder's validation BLEU-4 on 2 of 3 seeds, with and
#    without attention. A miss warns instead of failing, because BLEU
#    at this scale is sensitive to corpus texture.


def _synthetic_dialogues(n_train, n_valid, rng):
    """Topic-keyed replies with filler noise; both splits share one
    reply table so the mapping generalizes from train to valid."""
    topics = ["t%03d" % i for i in range(300)]
    fillers = ["f%04d" % i for i in range(1500)]
    reply_words = ["r%04d" % i for i in range(2000)]
    replies = {t: [reply_words[rng.next_below(len(reply_words))] for _ in range(6)]
               for t in topics}

    def draw(n):
        pairs = []
        for _ in range(n):
            topic = topics[rng.next_below(len(topics))]
            source = [fillers[rng.next_below(len(fillers))]
                      for _ in range(3 + rng.next_below(4))]
            source.insert(rng.next_below(len(source) + 1), topic)
            pairs.append(DialoguePair(source, list(replies[topic])))
        return pairs

    return draw(n_train), draw(n_valid)


def _train_to_early_stop(kind, cfg, train_pairs, valid_batches):
    # stop and select on the per-token generation loss, the one quantity
    # the kinds share: the joint model's total folds in reconstruction
    # terms the baselines do not have, so stopping on total would pick
    # each kind's snapshot by a different yardstick
    model = DialogueModel(kind, cfg)
    best_values = {}

    def keep_best(epoch, train_mean, val_mean, best, stale):
        if stale == 0:
            best_values.update((n, t.values.copy()) for n, t in model.store.items())

    epoch = fit(model, model.make_optimizer(), train_pairs, valid_batches, cfg,
                keep_best, select="j4")
    for name, values in best_values.items():
        model.store[name].values[...] = values
    return model, epoch


@pytest.mark.skipif(not os.environ.get("AEM_SCALED"),
                    reason="informational scaled comparison (~1-2h CPU); set AEM_SCALED=1 to run")
def test_criterion_9_scaled_trend():
    t0 = time.monotonic()
    data_rng = SplitMix64(derive_seed(7, "scaled", "corpus"))
    train_tok, valid_tok = _synthetic_dialogues(5000, 400, data_rng)
    vocab = build_vocab((side for p in train_tok for side in (p.source, p.target)),
                        max_size=8000)
    train_pairs = encode_pairs(train_tok, vocab)
    valid_pairs = encode_pairs(valid_tok, vocab)

    bleu4 = {}
    for seed in (0, 1, 2):
        # the plain model takes off around epoch 30-40 on this corpus
        # and the joint one later, so the cap is the time budget's guard
        # while early stopping trims runs that plateau sooner
        cfg = RunConfig(hidden_size=128, embed_size=64, vocab_size=len(vocab),
                        batch_size=256, learning_rate=0.002, seed=seed,
                        epochs=60, patience=4).validate()
        valid_batches = make_batches(valid_pairs, cfg.batch_size, seed=seed, epoch=0)
        for kind in ("seq2seq", "aem", "seq2seq_attention", "aem_attention"):
            model, stop_epoch = _train_to_early_stop(kind, cfg, train_pairs, valid_batches)
            hyps = model.generate([p.source for p in valid_pairs])
            refs = [p.target for p in valid_pairs]
            bleu4[seed, kind] = corpus_bleu(hyps, refs).bleu4
            print("seed %d %-18s valid BLEU-4 %6.2f (stopped epoch %d)"
                  % (seed, kind, bleu4[seed, kind], stop_epoch))

    plain_wins = sum(bleu4[s, "aem"] >= bleu4[s, "seq2seq"] for s in (0, 1, 2))
    attn_wins = sum(bleu4[s, "aem_attention"] >= bleu4[s, "seq2seq_attention"]
                    for s in (0, 1, 2))
    elapsed = time.monotonic() - t0
    print("criterion 9: joint model wins %d/3 plain, %d/3 with attention (%.0fs)"
          % (plain_wins, attn_wins, elapsed))
    if plain_wins < 2 or attn_wins < 2:
        warnings.warn("scaled trend not reproduced: plain %d/3, attention %d/3; "
                      "BLEU at this scale depends on corpus texture, so this is "
                      "reported, not enforced" % (plain_wins, attn_wins))
    assert elapsed < 7200.0, "scaled run took %.0fs" % elapsed

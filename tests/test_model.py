import numpy as np
import pytest

from aem.autograd import Tape, Tensor, backward
from aem.data import DialoguePair, pairs_to_batch
from aem.layers import greedy_decode
from aem.model import DialogueModel, LossBreakdown, build_baseline, total_loss
from helpers import tiny_config, toy_batch, toy_pairs


def zero_projections(model):
    for proj in (model.src_proj, model.tgt_proj):
        proj.W.values[:] = 0.0
        proj.b.values[:] = 0.0


def test_untrained_zero_projection_per_token_losses_are_log_v():
    model = DialogueModel("aem", tiny_config())
    zero_projections(model)
    parts = model.evaluate_batch(toy_batch())
    for name in ("j1", "j2", "j4"):
        np.testing.assert_allclose(getattr(parts, name), np.log(7), rtol=1e-6)


def test_j1_ignores_target_side_and_j2_ignores_source_side():
    model = DialogueModel("aem", tiny_config())
    batch_a = toy_batch()
    pairs = toy_pairs()
    pairs[0] = DialoguePair(pairs[0].source, [5, 5])
    batch_b = pairs_to_batch(pairs)
    a, b = model.evaluate_batch(batch_a), model.evaluate_batch(batch_b)
    assert a.j1 == b.j1
    pairs = toy_pairs()
    pairs[1] = DialoguePair([6, 6, 6], pairs[1].target)
    c = model.evaluate_batch(pairs_to_batch(pairs))
    assert a.j2 == c.j2
    assert a.j4 != b.j4


def identity_model():
    return DialogueModel("aem", tiny_config(hidden_size=1), identity_map=True,
                         dtype=np.float64)


def test_map_representation_hand_case():
    model = identity_model()
    h = Tensor(np.array([[3.0, 0.0]]))
    s = Tensor(np.array([[0.0, 4.0]]))
    t, j3 = model.map_representation(h, s)
    assert float(j3.values) == 12.5
    np.testing.assert_array_equal(t.values, h.values)


def test_map_representation_zero_when_equal():
    model = identity_model()
    v = np.array([[1.0, -2.0], [0.5, 3.0]])
    _, j3 = model.map_representation(Tensor(v.copy()), Tensor(v.copy()))
    assert float(j3.values) == 0.0


def test_map_representation_rejects_mismatched_dims():
    model = identity_model()
    with pytest.raises(ValueError, match="shapes"):
        model.map_representation(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 4))))


def test_generate_rejects_non_finite_source_state():
    model = DialogueModel("aem", tiny_config())
    model.store["theta.src_enc.W"].values[0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        model.generate([[4, 5]])


def j3_grads(detach_states):
    model = DialogueModel("aem", tiny_config(), dtype=np.float64)
    batch = toy_batch()
    with Tape() as tape:
        tape.watch(model.store.tensors())
        h, _, _, _ = model.encode_source_ae(batch)
        s, _, _ = model.encode_target_ae(batch)
        _, j3 = model.map_representation(h, s, detach_states=detach_states)
        backward(tape, j3)
    return model.store


def test_j3_detached_touches_only_mapping():
    store = j3_grads(detach_states=True)
    for name, p in store.items():
        if name.startswith("gamma."):
            continue
        assert np.all(p.grad == 0.0), name
    assert any(np.abs(p.grad).max() > 1e-8 for _, p in store.subset("gamma").items())


def test_j3_joint_reaches_encoders():
    store = j3_grads(detach_states=False)
    assert any(np.abs(p.grad).max() > 1e-8 for _, p in store.subset("theta").items())
    assert any(np.abs(p.grad).max() > 1e-8 for _, p in store.subset("phi").items())


def test_total_loss_hand_values():
    cfg = tiny_config()
    assert total_loss(1.0, 2.0, 5.0, 3.0, cfg) == 6.05
    cfg2 = tiny_config(lambda2=0.0)
    assert total_loss(1.0, 2.0, 5.0, 3.0, cfg2) == 1.0 * (1.0 + 2.0) + 1.0 * 3.0
    cfg3 = tiny_config(lambda1=0.0, lambda2=0.0, lambda3=0.0)
    assert total_loss(1.0, 2.0, 5.0, 3.0, cfg3) == 0.0


def test_all_lambda_zero_step_moves_nothing():
    cfg = tiny_config(lambda1=0.0, lambda2=0.0, lambda3=0.0)
    model = DialogueModel("aem", cfg)
    adam = model.make_optimizer()
    before = {n: p.values.copy() for n, p in model.store.items()}
    parts = model.train_step(toy_batch(), adam)
    assert parts.total == 0.0
    assert adam.t == 1
    for name, p in model.store.items():
        np.testing.assert_array_equal(p.values, before[name])


def test_composition_identity_every_step():
    model = DialogueModel("aem", tiny_config())
    adam = model.make_optimizer()
    batch = toy_batch()
    for _ in range(5):
        parts = model.train_step(batch, adam)
        want = total_loss(parts.j1, parts.j2, parts.j3, parts.j4, model.config)
        assert abs(parts.total - want) <= 1e-6 * abs(want)


def test_training_decreases_loss_on_fixed_batch():
    model = DialogueModel("aem", tiny_config(hidden_size=8, embed_size=4, vocab_size=10))
    adam = model.make_optimizer()
    pairs = [DialoguePair([4, 5, 6, 7], [8, 9, 4]), DialoguePair([5, 4], [9, 8])]
    batch = pairs_to_batch(pairs)
    totals = [model.train_step(batch, adam).total for _ in range(50)]
    rises = sum(1 for a, b in zip(totals, totals[1:]) if b > a)
    assert rises <= 5
    assert totals[-1] < totals[0]


def test_fixed_seed_identical_breakdowns():
    runs = []
    for _ in range(2):
        model = DialogueModel("aem", tiny_config())
        adam = model.make_optimizer()
        batch = toy_batch()
        runs.append([model.train_step(batch, adam) for _ in range(4)])
    assert runs[0] == runs[1]


def test_identity_aem_matches_seq2seq_trajectory():
    cfg = tiny_config(lambda1=0.0, lambda2=0.0)
    batch = toy_batch()
    aem = DialogueModel("aem", cfg, identity_map=True)
    s2s = DialogueModel("seq2seq", cfg)
    adam_a, adam_b = aem.make_optimizer(), s2s.make_optimizer()
    for _ in range(10):
        pa = aem.train_step(batch, adam_a)
        pb = s2s.train_step(batch, adam_b)
        assert pa.j4 == pb.j4
        assert pa.total == pb.total


def test_shared_parameter_names_start_identical_across_kinds():
    cfg = tiny_config()
    stores = {k: DialogueModel(k, cfg).store for k in ("aem", "seq2seq", "seq2seq_attention")}
    shared = set(stores["seq2seq"].names()) & set(stores["aem"].names())
    assert "theta.embed.W" in shared and "phi.tgt_dec.proj.W" in shared
    for name in shared:
        np.testing.assert_array_equal(stores["aem"][name].values,
                                      stores["seq2seq"][name].values)
    np.testing.assert_array_equal(stores["seq2seq_attention"]["theta.embed.W"].values,
                                  stores["seq2seq"]["theta.embed.W"].values)


def test_generate_respects_length_cap_and_bans():
    model = DialogueModel("aem", tiny_config())
    model.tgt_proj.b.values[2] = -50.0  # keep EOS out of reach
    out = model.generate([[4, 5], [6]], max_len=15)
    for row in out:
        assert len(row) == 15
        assert all(tok not in (0, 1, 2) for tok in row)
        assert all(0 <= tok < 7 for tok in row)


def test_generate_uses_config_cap_by_default():
    model = DialogueModel("aem", tiny_config(max_gen_len=6))
    model.tgt_proj.b.values[2] = -50.0
    assert all(len(row) == 6 for row in model.generate([[4, 5, 6]]))


def test_generate_rejects_empty_source():
    model = DialogueModel("aem", tiny_config())
    with pytest.raises(ValueError, match="empty"):
        model.generate([[4], []])


def test_generate_never_reads_target_encoder_or_source_decoder():
    model = DialogueModel("aem", tiny_config())
    sources = [[4, 5, 6], [6, 4]]
    before = model.generate(sources)
    for name, p in model.store.items():
        if name.startswith(("phi.tgt_enc", "theta.src_dec")):
            p.values[:] = np.nan
    assert model.generate(sources) == before


def test_single_pair_overfit_reproduces_both_sides():
    cfg = tiny_config(hidden_size=24, embed_size=12, vocab_size=10, seed=1)
    model = DialogueModel("aem", cfg)
    adam = model.make_optimizer()
    x, y = [4, 5, 6, 7], [8, 9, 4]
    batch = pairs_to_batch([DialoguePair(x, y)])
    parts = None
    for _ in range(500):
        parts = model.train_step(batch, adam)
        if max(parts.j1, parts.j2, parts.j4) < 0.05:
            break
    assert parts.j1 < 0.1 and parts.j2 < 0.1 and parts.j4 < 0.1
    assert model.generate([x]) == [y]
    _, h = model.encode_source(pairs_to_batch([DialoguePair(x, y)]))
    rebuilt = greedy_decode(model.src_dec, model.src_embed, model.src_proj,
                            h, bos_id=1, eos_id=2, pad_id=0, max_len=15)
    assert rebuilt == [x]


def test_nan_loss_aborts_step_and_names_term():
    model = DialogueModel("aem", tiny_config())
    adam = model.make_optimizer()
    model.src_proj.b.values[0] = np.nan
    with pytest.raises(FloatingPointError, match="j1"):
        model.train_step(toy_batch(), adam)
    assert adam.t == 0


def test_padding_neutrality():
    model = DialogueModel("aem", tiny_config(), dtype=np.float64)
    batch = toy_batch()
    wide = toy_batch()
    for side in ("source", "target"):
        ids = getattr(wide, side)
        mask = getattr(wide, side + "_mask")
        setattr(wide, side, np.pad(ids, ((0, 0), (0, 3))))
        setattr(wide, side + "_mask", np.pad(mask, ((0, 0), (0, 3))))
    a, b = model.evaluate_batch(batch), model.evaluate_batch(wide)
    for name in ("j1", "j2", "j3", "j4", "total"):
        np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=1e-12)


def test_batched_loss_equals_sum_of_per_pair_losses():
    model = DialogueModel("aem", tiny_config(), dtype=np.float64)
    pairs = toy_pairs()
    whole = model.evaluate_batch(pairs_to_batch(pairs))
    single = [model.evaluate_batch(pairs_to_batch([p])) for p in pairs]
    for name in ("j1_sum", "j2_sum", "j4_sum"):
        np.testing.assert_allclose(getattr(whole, name),
                                   sum(getattr(s, name) for s in single), rtol=1e-12)


def test_loss_graph_records_no_vocabulary_wide_tensor():
    # each output head and each LSTM sequence is one fused record
    cfg = tiny_config()
    model = DialogueModel("aem", cfg)
    with Tape() as tape:
        model.loss_graph(toy_batch())
    shapes = [t.shape for outs, _ in tape._records for t in outs]
    assert not [s for s in shapes if s and s[-1] == cfg.vocab_size]
    assert len(tape) <= 39


def loss_graph_tape_length(kind, pairs):
    with Tape() as tape:
        DialogueModel(kind, tiny_config()).loss_graph(pairs_to_batch(pairs))
    return len(tape)


@pytest.mark.parametrize("kind", ["aem", "seq2seq", "aem_attention", "seq2seq_attention"])
def test_loss_graph_tape_length_does_not_grow_with_sequence_length(kind):
    # attention runs as one record, so each kind's tape equals its plain kind's
    doubled = [DialoguePair(p.source * 2, p.target * 2) for p in toy_pairs()]
    length = loss_graph_tape_length(kind, toy_pairs())
    assert loss_graph_tape_length(kind, doubled) == length
    assert length == loss_graph_tape_length(kind.removesuffix("_attention"), toy_pairs())


def test_train_step_reports_pre_clip_gradient_norm():
    batch = toy_batch()
    for clip_norm, clipped in ((1e-3, True), (1e6, False)):
        model = DialogueModel("aem", tiny_config(clip_norm=clip_norm), dtype=np.float64)
        with Tape() as tape:
            tape.watch(model.store.tensors())
            total, _ = model.loss_graph(batch)
        backward(tape, total)
        expected = np.sqrt(sum(float((t.grad ** 2).sum()) for t in model.store.tensors()))
        model.store.zero_grads()
        parts = model.train_step(batch, model.make_optimizer())
        assert parts.clipped is clipped
        np.testing.assert_allclose(parts.grad_norm, expected, rtol=1e-12)


def test_build_baseline_kinds():
    cfg = tiny_config()
    with pytest.raises(ValueError, match="baseline"):
        build_baseline("aem", cfg)
    s2s = build_baseline("seq2seq", cfg)
    assert not any(n.startswith(("gamma.", "phi.tgt_enc", "theta.src_dec", "attn."))
                   for n in s2s.store.names())
    attn = build_baseline("seq2seq_attention", cfg)
    assert any(n.startswith("attn.") for n in attn.store.names())


def test_attention_baseline_single_token_reduction():
    # with one source position the context is always that annotation, so a
    # decode step reduces to logits = tanh([h1; h_dec] W_c) W_p + b
    cfg = tiny_config()
    model = build_baseline("seq2seq_attention", cfg, dtype=np.float64)
    from aem.data import Batch
    batch = Batch(np.array([[4]]), np.ones((1, 1)), np.array([[5, 2]]), np.ones((1, 2)))
    states, h = model.encode_source(batch)
    from aem.layers import decode_teacher_forced
    features = decode_teacher_forced(model.tgt_dec, model.tgt_embed, h,
                                     batch.target, bos_id=1,
                                     attention=model.attention, encoder_states=states,
                                     encoder_mask=batch.source_mask)
    logits = model.tgt_proj.logits(features).values.reshape(1, 2, cfg.vocab_size)
    # hand-stepped first decode position
    def sig(v):
        return 0.5 * (np.tanh(0.5 * v) + 1.0)
    x = model.tgt_embed.table.values[1][None, :]
    H = cfg.hidden_size
    h0, c0 = h.values[:, :H], h.values[:, H:]
    pre = x @ model.tgt_dec.W.values + h0 @ model.tgt_dec.U.values + model.tgt_dec.b.values
    i, f, g, o = (sig(pre[:, :H]), sig(pre[:, H:2 * H]),
                  np.tanh(pre[:, 2 * H:3 * H]), sig(pre[:, 3 * H:]))
    c1 = f * c0 + i * g
    h1 = o * np.tanh(c1)
    annot = states.values[:, 0, :]
    h_tilde = np.tanh(np.concatenate([annot, h1], axis=1) @ model.attention.W_c.values)
    want = h_tilde @ model.tgt_proj.W.values + model.tgt_proj.b.values
    np.testing.assert_allclose(logits[:, 0, :], want, rtol=1e-10)


def test_attention_generate_zeroed_weights_degenerates_to_uniform():
    model = DialogueModel("aem_attention", tiny_config())
    model.attention.W_a.values[:] = 0.0
    model.attention.W_c.values[:] = 0.0
    model.tgt_proj.W.values[:] = 0.0
    model.tgt_proj.b.values[:] = 0.0
    # uniform logits, PAD/BOS banned: argmax falls to EOS and output is empty
    assert model.generate([[4, 5], [6]]) == [[], []]


def test_attention_generate_respects_length_cap():
    out = DialogueModel("aem_attention", tiny_config()).generate([[4, 5]])
    assert len(out) == 1 and len(out[0]) <= 15

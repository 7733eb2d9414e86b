import sys
import threading

import numpy as np
import pytest

import aem.autograd
import aem.layers
import aem.model
from aem.autograd import AttentionMask, Tape, Tensor, backward
from aem.config import MODEL_KINDS
from aem.data import DialoguePair, pairs_to_batch
from aem.layers import LuongAttention, greedy_decode
from aem.model import DialogueModel, LossBreakdown, build_baseline, total_loss
from helpers import (assert_halves_equal_whole, assert_same_bits_on_one_and_two_cpus, run_on_cpus,
                     tiny_config, toy_batch, toy_pairs, traced_bytes)


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
        _, h = model.encode_source(batch)
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


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_train_steps_same_bits_on_one_and_two_cpus(kind):
    def run():
        model = DialogueModel(kind, tiny_config(kind=kind))
        adam = model.make_optimizer()
        parts = [model.train_step(toy_batch(), adam) for _ in range(3)]
        losses = [np.array([getattr(p, f) for f in ("j1", "j2", "j3", "j4", "total", "grad_norm",
                                                   "clipped")]) for p in parts]
        return losses + [t.values for _, t in model.store.items()] + [
            moments[name] for moments in (adam.m, adam.v) for name in model.store.names()]

    assert_same_bits_on_one_and_two_cpus(run)


@pytest.mark.parametrize("kind", ["seq2seq", "aem_attention"])
def test_generate_same_bits_on_one_and_two_cpus(kind):
    # five sources: the encoder and every greedy token run rows 0-1 and 2-4
    model = DialogueModel(kind, tiny_config(kind=kind, vocab_size=12))
    sources = [[4, 5, 6], [7], [8, 9, 10, 11], [5, 5], [6, 11, 4]]

    def run():
        replies = model.generate(sources, max_len=6)
        assert any(replies)
        return [np.array(reply, dtype=np.int64) for reply in replies]

    assert_same_bits_on_one_and_two_cpus(run)


def benchmark_replies(kind):
    """A thunk: seeded `generate` of 256 sources at H = 128, E = 64,
    V = 3000 (`aem generate` in the benchmark), as one id array per reply.
    The untrained model never emits EOS, so every row decodes every token."""
    config = tiny_config(kind=kind, hidden_size=128, embed_size=64, vocab_size=3000,
                         batch_size=256)
    model = DialogueModel(kind, config)
    rng = np.random.default_rng(11)
    sources = [rng.integers(3, 3000, rng.integers(4, 9)).tolist() for _ in range(256)]
    return lambda: [np.array(reply, dtype=np.int64) for reply in model.generate(sources, max_len=6)]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_generate_halves_equal_whole_at_benchmark_shape(kind):
    """The encoder recurrence over two row halves, then the reply's rows
    split once into two halves that decode every token on their own, pick
    the ids of the whole pass. This pins the row-partition invariance of
    numpy's BLAS (OpenBLAS in numpy's wheels) at these shapes."""
    assert assert_halves_equal_whole(benchmark_replies(kind)) == [256 * 4 * 128, 256 * 3000]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_generate_same_bits_on_one_and_two_cpus_at_benchmark_shape(kind):
    assert_same_bits_on_one_and_two_cpus(benchmark_replies(kind))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_generate_same_bits_under_a_short_switch_interval(kind):
    # both threads switch every microsecond: each half must still read and
    # write only its own rows of the reply's buffers
    run = benchmark_replies(kind)
    want, _ = run_on_cpus(1, run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got, on_worker = run_on_cpus(2, run, split_min=aem.autograd._SPLIT_MIN)
            assert on_worker == [True, True]  # the encoder's steps and the decode loop
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["seq2seq", "aem_attention"])
def test_a_splitting_reply_hands_its_decode_loop_to_the_worker_once(kind, monkeypatch):
    # one _both call for all the tokens of a 256-source reply, none for one source
    calls, decoding = [], []
    both, decode = aem.autograd._both, aem.model.greedy_decode

    def counted(first, second, size):
        calls.append((bool(decoding), size))
        return both(first, second, size)

    def flagged(*args, **kwargs):
        decoding.append(True)
        try:
            return decode(*args, **kwargs)
        finally:
            decoding.clear()

    monkeypatch.setattr(aem.autograd, "_both", counted)
    monkeypatch.setattr(aem.model, "greedy_decode", flagged)
    replies = benchmark_replies(kind)()
    assert [len(reply) for reply in replies] == [6] * 256
    assert [size for in_decode, size in calls if in_decode] == [256 * 3000]
    calls.clear()
    config = tiny_config(kind=kind, hidden_size=128, embed_size=64, vocab_size=3000)
    DialogueModel(kind, config).generate([[4, 5, 6, 7]], max_len=6)
    assert calls == []


@pytest.mark.parametrize("kind", ["aem", "aem_attention"])
def test_grouped_train_steps_same_bits_on_one_and_two_cpus_at_benchmark_width(kind):
    """B = 32, H = 128 (the recurrence_bound training shape): no LSTM run
    splits by rows, so at the real _SPLIT_MIN the two encoders, then the
    three decoders, run side by side on two CPUs. Losses, gradient norms,
    parameters and moments are the bytes of one CPU."""
    rng = np.random.default_rng(8)
    V = 60
    batch = pairs_to_batch([DialoguePair(rng.integers(3, V, rng.integers(8, 16)).tolist(),
                                         rng.integers(3, V, rng.integers(6, 12)).tolist())
                            for _ in range(32)])
    lstm_runs = []
    forward = aem.autograd._Recurrence.forward

    def run():
        model = DialogueModel(kind, tiny_config(kind=kind, hidden_size=128, embed_size=64,
                                                vocab_size=V, batch_size=32))
        adam = model.make_optimizer()
        parts = [model.train_step(batch, adam) for _ in range(2)]
        return [np.array([getattr(p, f) for f in ("j1", "j2", "j3", "j4", "total", "grad_norm")]
                         + [p.group_norms[g] for g in sorted(p.group_norms)]) for p in parts] \
            + arrays(model, adam)

    def traced(self):
        lstm_runs.append(threading.current_thread() is threading.main_thread())
        return forward(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aem.autograd._Recurrence, "forward", traced)
        one, _ = run_on_cpus(1, run, split_min=aem.autograd._SPLIT_MIN)
        assert len(lstm_runs) == 10 and all(lstm_runs)
        lstm_runs.clear()
        two, on_worker = run_on_cpus(2, run, split_min=aem.autograd._SPLIT_MIN)
    # per step, the worker ran the target encoder and the J2 and J4 decoders
    assert lstm_runs.count(False) == 2 * 3 and any(on_worker)
    for a, b in zip(one, two, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_one_source_generate_and_tiny_train_step_send_nothing_to_the_worker():
    # at the real _SPLIT_MIN these passes are too small to pay for the
    # worker: they run whole in the caller, even where two CPUs are free
    def run():
        for kind in MODEL_KINDS:
            model = DialogueModel(kind, tiny_config(kind=kind))
            model.train_step(toy_batch(), model.make_optimizer())
            big = DialogueModel(kind, tiny_config(kind=kind, hidden_size=128, embed_size=64,
                                                  vocab_size=3000))
            big.generate([[4, 5, 6, 7]], max_len=4)

    _, on_worker = run_on_cpus(2, run, split_min=aem.autograd._SPLIT_MIN)
    assert not any(on_worker)


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


def test_generate_no_sources_gives_no_responses():
    assert DialogueModel("aem", tiny_config()).generate([]) == []


def test_generate_never_reads_target_encoder_or_source_decoder():
    model = DialogueModel("aem", tiny_config())
    sources = [[4, 5, 6], [6, 4]]
    before = model.generate(sources)
    for name, p in model.store.items():
        if name.startswith(("phi.tgt_enc", "theta.src_dec")):
            p.values[:] = np.nan
    assert model.generate(sources) == before


# ten sources of 1-11 tokens, so chunks of four pad to different lengths
MIXED_SOURCES = [[4, 5, 6], [7], [8, 9, 10, 11, 4, 5, 6, 7, 8], [5, 5], [6, 11, 4],
                 [9, 8, 7, 6, 5], [10], [11, 10, 9, 8, 7, 6, 5, 4, 3, 9, 10], [4, 4, 4, 4], [7, 8]]


def four_source_chunks(kind, monkeypatch):
    """A model whose generate runs chunks of four sources: _BLOCK_LOGITS
    patched to four rows of its V = 200 logits."""
    model = DialogueModel(kind, tiny_config(kind=kind, hidden_size=32, embed_size=16,
                                            vocab_size=200))
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 4 * 200)
    return model


@pytest.mark.parametrize("kind", ["aem", "aem_attention"])
def test_generate_decodes_in_chunks_in_input_order(kind, monkeypatch):
    model = four_source_chunks(kind, monkeypatch)
    rows, decode = [], aem.model.greedy_decode

    def counted(cell, table, proj, init, **kwargs):
        rows.append(init.shape[0])
        return decode(cell, table, proj, init, **kwargs)

    monkeypatch.setattr(aem.model, "greedy_decode", counted)
    replies = model.generate(MIXED_SOURCES, max_len=8)
    assert rows == [4, 4, 2]
    alone = [reply for start in (0, 4, 8)
             for reply in model.generate(MIXED_SOURCES[start : start + 4], max_len=8)]
    assert replies == alone and any(replies)
    # at this shape a chunk padded to its own longest source picks the ids
    # of one batch padded to the longest of all ten, attention included
    rows.clear()
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 4 * 1024 * 1024)
    assert model.generate(MIXED_SOURCES, max_len=8) == replies
    assert rows == [10]


@pytest.mark.parametrize("kind", ["aem", "aem_attention"])
def test_generate_memory_stays_flat_in_the_source_count(kind, monkeypatch):
    # four times the sources add four times the chunks, each freed before
    # the next: the peak grows by no more than the replies it returns
    model = four_source_chunks(kind, monkeypatch)
    run = lambda n: traced_bytes(lambda: model.generate(MIXED_SOURCES * n, max_len=8))
    (_, _, peak), (replies, held, peak_4x) = run(1), run(4)
    assert len(replies) == 40
    assert peak_4x <= peak + held
    # one batch of all 40 sources holds about four times as much
    monkeypatch.setattr(aem.autograd, "_BLOCK_LOGITS", 4 * 1024 * 1024)
    assert run(4)[2] > 3 * peak


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
                            h, max_len=15)
    assert rebuilt == [x]


def test_nan_loss_aborts_step_and_names_term():
    model = DialogueModel("aem", tiny_config())
    adam = model.make_optimizer()
    model.src_proj.b.values[0] = np.nan
    with pytest.raises(FloatingPointError, match="j1"):
        model.train_step(toy_batch(), adam)
    assert adam.t == 0


def test_non_finite_gradient_stops_the_step_and_names_the_parameter(monkeypatch):
    # finite losses but a NaN gradient: the step must stop before Adam
    # writes NaN into every parameter and moment
    model = DialogueModel("aem", tiny_config())
    adam = model.make_optimizer()
    model.train_step(toy_batch(), adam)
    real_backward = aem.model.backward

    def poisoned(tape, loss):
        real_backward(tape, loss)
        model.store["theta.src_enc.U"].grad[0, 1] = np.inf
        model.store["phi.tgt_dec.W"].grad[2, 0] = np.nan

    monkeypatch.setattr(aem.model, "backward", poisoned)
    before = [a.copy() for a in arrays(model, adam)]
    # phi.tgt_dec.W comes first in store order
    with pytest.raises(FloatingPointError, match=r"non-finite gradient in phi\.tgt_dec\.W$"):
        model.train_step(toy_batch(), adam)
    assert adam.t == 1
    for a, b in zip(before, arrays(model, adam), strict=True):
        assert a.tobytes() == b.tobytes()


def arrays(model, adam):
    return [t.values for t in model.store.tensors()] + [
        moments[name] for moments in (adam.m, adam.v) for name in model.store.names()]


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

    def summed(pairs):
        # per-token means times token counts; every sequence gains an EOS
        parts = model.evaluate_batch(pairs_to_batch(pairs))
        n_src = sum(len(p.source) + 1 for p in pairs)
        n_tgt = sum(len(p.target) + 1 for p in pairs)
        return np.array([parts.j1 * n_src, parts.j2 * n_tgt, parts.j4 * n_tgt])

    np.testing.assert_allclose(summed(pairs), sum(summed([p]) for p in pairs), rtol=1e-12)


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
        groups = {side: np.sqrt(sum(float((t.grad ** 2).sum())
                                    for name, t in model.store.items() if name.startswith(side)))
                  for side in ("theta.", "phi.", "gamma.")}
        model.store.zero_grads()
        parts = model.train_step(batch, model.make_optimizer())
        assert parts.clipped is clipped
        np.testing.assert_allclose(parts.grad_norm, expected, rtol=1e-12)
        # pre-clip norms per parameter group, from the same sums
        assert sorted(parts.group_norms) == ["gamma", "phi", "theta"]
        for side, norm in groups.items():
            np.testing.assert_allclose(parts.group_norms[side.rstrip(".")], norm, rtol=1e-12)
        np.testing.assert_allclose(np.hypot.reduce(list(parts.group_norms.values())),
                                   parts.grad_norm, rtol=1e-12)


def param_dtypes(model):
    return {p.values.dtype for p in model.store.tensors()}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_model_dtype_reaches_every_parameter(kind):
    # float32 by default; the store's dtype covers every layer and subset
    cfg = tiny_config()
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert param_dtypes(DialogueModel(kind, cfg)) == {f32}
    wide = DialogueModel(kind, cfg, dtype=np.float64)
    assert param_dtypes(wide) == {f64}
    assert wide.store.subset("phi").dtype == np.float64
    if kind.startswith("seq2seq"):
        assert param_dtypes(build_baseline(kind, cfg)) == {f32}
        assert param_dtypes(build_baseline(kind, cfg, dtype=np.float64)) == {f64}


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
    features = decode_teacher_forced(
        model.tgt_dec, model.tgt_embed, h, batch.target,
        attend=(model.attention, states,
                AttentionMask(batch.source_mask, states.shape[:2], states.dtype)))
    logits = model.tgt_proj.logits(features).values.reshape(1, 2, cfg.vocab_size)
    # hand-stepped first decode position
    def sig(v):
        return 0.5 * (np.tanh(0.5 * v) + 1.0)
    x = model.tgt_embed.values[1][None, :]
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


@pytest.mark.parametrize("kind", ["seq2seq_attention", "aem_attention"])
def test_attention_generate_runs_one_fused_attention_op_per_token(kind, monkeypatch):
    # greedy decoding attends through attention_sequence's forward alone,
    # once per token; context is kept for reading attention weights and
    # must not be on the path
    def refuse(*args):
        raise AssertionError("greedy decoding called LuongAttention.context")

    calls = []
    forward = aem.autograd._attention_forward

    def counted(*args):
        calls.append(args[0].shape)
        return forward(*args)

    monkeypatch.setattr(LuongAttention, "context", refuse)
    monkeypatch.setattr(aem.autograd, "_attention_forward", counted)
    model = DialogueModel(kind, tiny_config())
    model.tgt_proj.b.values[2] = -50.0  # EOS unreachable: every row runs to the cap
    out = model.generate([[4, 5], [6]], max_len=5)
    assert [len(row) for row in out] == [5, 5]
    assert calls == [(2, 1, 4)] * 5


@pytest.mark.parametrize("kind", ["seq2seq_attention", "aem_attention"])
def test_attention_generate_checks_the_encoder_mask_once(kind, monkeypatch):
    # the encoder mask is the same for every token of a reply: it is read
    # (converted and checked) once per chunk of sources, not once per token
    reads = []

    class CountedMask:
        def __init__(self, mask):
            self.mask = mask

        def __array__(self, dtype=None, copy=None):
            reads.append(dtype)
            return np.asarray(self.mask, dtype=dtype)

    build = DialogueModel._attend
    monkeypatch.setattr(DialogueModel, "_attend",
                        lambda self, states, mask: build(self, states, CountedMask(mask)))
    model = DialogueModel(kind, tiny_config())
    model.tgt_proj.b.values[2] = -50.0  # EOS unreachable: every row runs to the cap
    out = model.generate([[4, 5], [6]], max_len=5)
    assert [len(row) for row in out] == [5, 5]
    assert len(reads) == 1


def test_attention_generate_respects_length_cap():
    out = DialogueModel("aem_attention", tiny_config()).generate([[4, 5]])
    assert len(out) == 1 and len(out[0]) <= 15

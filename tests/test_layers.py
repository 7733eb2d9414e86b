import numpy as np
import pytest

from aem.autograd import (Tape, Tensor, backward, mul, reshape, softmax_cross_entropy,
                          stack_steps, sum_all)
from aem.gradcheck import check_gradients
from aem.layers import (
    Embedding,
    LSTMCell,
    LuongAttention,
    MappingMLP,
    OutputProjection,
    decode_teacher_forced,
    encode_sequence,
    greedy_decode,
    shifted_inputs,
    split_state,
    zero_state,
)
from aem.params import ParamStore, uniform_init
from helpers import composite_lstm, composite_lstm_step

RNG = np.random.default_rng(7)


def make_cell(E=3, H=4, seed=None):
    store = ParamStore()
    cell = LSTMCell(store, "cell", E, H, dtype=np.float64)
    if seed is not None:
        uniform_init(store, -0.5, 0.5, seed=seed)
    return store, cell


def test_lstm_zero_weights_gives_zero_state():
    _, cell = make_cell()
    x = Tensor(RNG.standard_normal((2, 3)))
    h, c = cell.step(x, zero_state(2, 4, np.float64), zero_state(2, 4, np.float64))
    np.testing.assert_array_equal(h.values, np.zeros((2, 4)))
    np.testing.assert_array_equal(c.values, np.zeros((2, 4)))


def test_lstm_zero_weights_gate_values():
    # zero preactivations: sigmoid gates 0.5, candidate tanh 0
    store, cell = make_cell()
    x = Tensor(np.zeros((1, 3)))
    c_prev = Tensor(RNG.standard_normal((1, 4)))
    h, c = cell.step(x, zero_state(1, 4, np.float64), c_prev)
    np.testing.assert_allclose(c.values, 0.5 * c_prev.values, rtol=1e-12)
    np.testing.assert_allclose(h.values, 0.5 * np.tanh(0.5 * c_prev.values), rtol=1e-12)


def test_lstm_forget_bias_carries_cell_state():
    store, cell = make_cell()
    cell.b.values[4:8] = 10.0  # forget gate block
    x = Tensor(np.zeros((1, 3)))
    c_prev = Tensor(np.array([[1.0, -2.0, 0.5, 3.0]]))
    _, c = cell.step(x, zero_state(1, 4, np.float64), c_prev)
    np.testing.assert_allclose(c.values, c_prev.values, rtol=1e-4)


def test_lstm_gradient_vs_finite_differences():
    store, cell = make_cell(seed=11)
    x = Tensor(RNG.standard_normal((2, 3)))
    h0 = Tensor(RNG.standard_normal((2, 4)))
    c0 = Tensor(RNG.standard_normal((2, 4)))

    def loss():
        h, _ = cell.step(x, h0, c0)
        return sum_all(mul(h, h))

    assert check_gradients(loss, store) < 1e-4


def embedding_with(store, V=6, E=3, seed=5):
    emb = Embedding(store, "embed", V, E, dtype=np.float64)
    uniform_init(store.subset("embed"), -0.5, 0.5, seed=seed)
    return emb


def test_encode_length_one_equals_single_step():
    store, cell = make_cell(seed=3)
    emb = embedding_with(store)
    tokens = np.array([[4], [2]])
    mask = np.ones((2, 1))
    states, final = encode_sequence(cell, emb, tokens, mask)
    x = emb.lookup(tokens[:, 0])
    h, c = cell.step(x, zero_state(2, 4, np.float64), zero_state(2, 4, np.float64))
    np.testing.assert_array_equal(states.values[:, 0, :], h.values)
    np.testing.assert_array_equal(final.values, np.concatenate([h.values, c.values], axis=1))


def test_encode_batched_equals_unbatched():
    store, cell = make_cell(seed=9)
    emb = embedding_with(store)
    tokens = np.array([[1, 2, 0, 0], [3, 4, 5, 1]])
    mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    _, final = encode_sequence(cell, emb, tokens, mask)
    _, final_a = encode_sequence(cell, emb, tokens[:1, :2], mask[:1, :2])
    _, final_b = encode_sequence(cell, emb, tokens[1:], mask[1:])
    # separate runs hit different BLAS kernels, so allow rounding-level slack
    np.testing.assert_allclose(final.values[0], final_a.values[0], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(final.values[1], final_b.values[0], rtol=1e-12, atol=1e-15)


def test_encode_final_state_read_at_last_unmasked():
    store, cell = make_cell(seed=9)
    emb = embedding_with(store)
    # identical rows, one padded longer; padding must not move the state
    tokens = np.array([[1, 2, 0], [1, 2, 5]])
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    states, final = encode_sequence(cell, emb, tokens, mask)
    np.testing.assert_array_equal(states.values[0, 2, :], states.values[0, 1, :])
    _, short = encode_sequence(cell, emb, tokens[:1, :2], mask[:1, :2])
    np.testing.assert_allclose(final.values[0], short.values[0], rtol=1e-12, atol=1e-15)
    assert not np.array_equal(final.values[1], final.values[0])


def test_encode_zero_weights_zero_final():
    store, cell = make_cell()
    emb = embedding_with(store)
    _, final = encode_sequence(cell, emb, np.array([[1, 2, 3]]), np.ones((1, 3)))
    np.testing.assert_array_equal(final.values, np.zeros((1, 8)))


def test_encode_gradients():
    store, cell = make_cell(E=2, H=3, seed=13)
    emb = Embedding(store, "embed", 5, 2, dtype=np.float64)
    uniform_init(store.subset("embed"), -0.5, 0.5, seed=1)
    tokens = np.array([[1, 2], [3, 4]])
    mask = np.array([[1.0, 0.0], [1.0, 1.0]])

    def loss():
        _, final = encode_sequence(cell, emb, tokens, mask)
        return sum_all(mul(final, final))

    assert check_gradients(loss, store) < 1e-4


def decoder_fixture(V=5, E=3, H=4, seed=21, dtype=np.float64):
    store = ParamStore()
    cell = LSTMCell(store, "dec", E, H, dtype=dtype)
    emb = Embedding(store, "embed", V, E, dtype=dtype)
    proj = OutputProjection(store, "proj", H, V, dtype=dtype)
    if seed is not None:
        uniform_init(store, -0.5, 0.5, seed=seed)
    return store, cell, emb, proj


def teacher_forced_logits(cell, emb, proj, init, targets, **attention):
    """(B, T, V) logits over the decoder's (B*T, H) features."""
    features = decode_teacher_forced(cell, emb, init, targets, bos_id=1, **attention)
    return reshape(proj.logits(features), targets.shape + (proj.W.values.shape[1],))


def test_decode_zero_weights_uniform_logits():
    store, cell, emb, proj = decoder_fixture(seed=None)
    init = Tensor(np.zeros((2, 8)))
    targets = np.array([[3, 4, 2], [4, 3, 2]])
    logits = teacher_forced_logits(cell, emb, proj, init, targets)
    np.testing.assert_array_equal(logits.values, np.zeros((2, 3, 5)))
    flat = reshape(logits, (6, 5))
    loss, n = softmax_cross_entropy(flat, targets.reshape(-1), np.ones(6))
    np.testing.assert_allclose(float(loss.values) / n, np.log(5), rtol=1e-12)


def test_decode_is_causal():
    store, cell, emb, proj = decoder_fixture()
    init = Tensor(RNG.standard_normal((1, 8)))
    targets = np.array([[3, 4, 2, 3]])
    base = teacher_forced_logits(cell, emb, proj, init, targets).values
    for k in range(4):
        perturbed = targets.copy()
        perturbed[0, k] = (perturbed[0, k] + 1) % 5
        got = teacher_forced_logits(cell, emb, proj, init, perturbed).values
        np.testing.assert_array_equal(got[:, : k + 1], base[:, : k + 1])


def test_shifted_inputs_starts_with_bos():
    targets = np.array([[5, 6, 2], [7, 2, 0]])
    np.testing.assert_array_equal(shifted_inputs(targets, 1), [[1, 5, 6], [1, 7, 2]])


def test_split_state_roundtrip():
    s = Tensor(RNG.standard_normal((3, 8)))
    h, c = split_state(s, 4)
    np.testing.assert_array_equal(np.concatenate([h.values, c.values], axis=1), s.values)
    with pytest.raises(ValueError):
        split_state(s, 3)


def test_mlp_zero_weights_returns_bias():
    store = ParamStore()
    mlp = MappingMLP(store, "map", 4, dtype=np.float64)
    mlp.b2.values[:] = [1.0, -2.0, 3.0, 0.5]
    out = mlp.forward(Tensor(RNG.standard_normal((3, 4))))
    np.testing.assert_array_equal(out.values, np.tile(mlp.b2.values, (3, 1)))


def test_mlp_small_signal_identity():
    store = ParamStore()
    mlp = MappingMLP(store, "map", 4, dtype=np.float64)
    mlp.W1.values[:] = np.eye(4)
    mlp.W2.values[:] = np.eye(4)
    x = Tensor(RNG.standard_normal((5, 4)) * 1e-3)
    out = mlp.forward(x)
    assert np.abs(out.values - x.values).max() <= 1e-3 * 1e-3


def test_mlp_rejects_wrong_width():
    store = ParamStore()
    mlp = MappingMLP(store, "map", 4, dtype=np.float64)
    with pytest.raises(ValueError):
        mlp.forward(Tensor(np.zeros((2, 3))))


def test_mlp_gradient():
    store = ParamStore()
    mlp = MappingMLP(store, "map", 3, dtype=np.float64)
    uniform_init(store, -0.5, 0.5, seed=2)
    x = Tensor(RNG.standard_normal((2, 3)))
    assert check_gradients(lambda: sum_all(mul(mlp.forward(x), mlp.forward(x))), store) < 1e-4


def attention_fixture(H=3, seed=4):
    store = ParamStore()
    attn = LuongAttention(store, "attn", H, dtype=np.float64)
    if seed is not None:
        uniform_init(store, -0.5, 0.5, seed=seed)
    return store, attn


def test_attention_single_position():
    store, attn = attention_fixture()
    states = Tensor(RNG.standard_normal((2, 1, 3)))
    dec_h = Tensor(RNG.standard_normal((2, 3)))
    context, weights = attn.context(dec_h, states, np.ones((2, 1)))
    np.testing.assert_array_equal(weights.values, np.ones((2, 1)))
    np.testing.assert_array_equal(context.values, states.values[:, 0, :])


def test_attention_identical_states():
    store, attn = attention_fixture()
    one = RNG.standard_normal((1, 1, 3))
    states = Tensor(np.repeat(one, 4, axis=1))
    dec_h = Tensor(RNG.standard_normal((1, 3)))
    context, weights = attn.context(dec_h, states, np.ones((1, 4)))
    np.testing.assert_allclose(weights.values.sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(context.values, one[:, 0, :], rtol=1e-12)


def test_attention_hand_softmax_with_identity_score():
    store, attn = attention_fixture(seed=None)
    attn.W_a.values[:] = np.eye(3)
    dec_h = Tensor(np.array([[1.0, 0.0, 2.0]]))
    states = Tensor(np.array([[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]]))
    _, weights = attn.context(dec_h, states, np.ones((1, 2)))
    dots = np.array([1.0, 2.0])  # dec_h . enc_t
    expected = np.exp(dots - dots.max())
    expected /= expected.sum()
    np.testing.assert_allclose(weights.values[0], expected, rtol=1e-12)


def test_attention_weights_sum_to_one_over_unmasked():
    store, attn = attention_fixture()
    states = Tensor(RNG.standard_normal((3, 5, 3)))
    dec_h = Tensor(RNG.standard_normal((3, 3)))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 1, 0, 1]], dtype=float)
    _, weights = attn.context(dec_h, states, mask)
    np.testing.assert_allclose(weights.values.sum(axis=1), np.ones(3), atol=1e-6)
    assert np.all(weights.values >= 0)
    assert np.all(weights.values[mask == 0] == 0)


def test_attention_gradient():
    store, attn = attention_fixture(seed=8)
    states = Tensor(RNG.standard_normal((2, 3, 3)))
    dec_h = Tensor(RNG.standard_normal((2, 3)))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

    def loss():
        context, _ = attn.context(dec_h, states, mask)
        h_tilde = attn.attentional_hidden(context, dec_h)
        return sum_all(mul(h_tilde, h_tilde))

    assert check_gradients(loss, store) < 1e-4


def test_decode_with_attention_gradient():
    store, cell, emb, proj = decoder_fixture(seed=31)
    attn = LuongAttention(store, "attn", 4, dtype=np.float64)
    uniform_init(store.subset("attn"), -0.5, 0.5, seed=32)
    enc_states = Tensor(RNG.standard_normal((2, 3, 4)))
    enc_mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    init = Tensor(RNG.standard_normal((2, 8)))
    targets = np.array([[3, 2], [4, 2]])

    def loss():
        logits = teacher_forced_logits(cell, emb, proj, init, targets,
                                       attention=attn, encoder_states=enc_states,
                                       encoder_mask=enc_mask)
        flat = reshape(logits, (4, 5))
        out, _ = softmax_cross_entropy(flat, targets.reshape(-1), np.ones(4))
        return out

    assert check_gradients(loss, store) < 1e-4


def test_greedy_decode_zeroed_model_stops_on_lowest_id():
    # bias-only logits are uniform; PAD/BOS banned, so the tie breaks to
    # EOS (the lowest remaining id) and the output is empty
    store, cell, emb, proj = decoder_fixture(seed=None)
    init = Tensor(np.zeros((2, 8)))
    out = greedy_decode(cell, emb, proj, init, bos_id=1, eos_id=2, pad_id=0, max_len=5)
    assert out == [[], []]


def test_greedy_decode_respects_max_len_and_bans():
    store, cell, emb, proj = decoder_fixture(seed=41)
    proj.b.values[2] = -50.0  # make EOS unreachable
    init = Tensor(RNG.standard_normal((3, 8)))
    out = greedy_decode(cell, emb, proj, init, bos_id=1, eos_id=2, pad_id=0, max_len=7)
    for row in out:
        assert len(row) == 7
        assert all(tok not in (0, 1) for tok in row)


def test_float32_sequences_and_greedy_ids_bit_equal_to_composite(monkeypatch):
    rng = np.random.default_rng(3)
    B, T, T2, V, E, H = 32, 35, 25, 60, 64, 128
    store = ParamStore()
    cell = LSTMCell(store, "enc", E, H)
    dec = LSTMCell(store, "dec", E, H)
    emb = Embedding(store, "embed", V, E)
    proj = OutputProjection(store, "proj", H, V)
    attn = LuongAttention(store, "attn", H)
    uniform_init(store, -0.4, 0.4, seed=12)
    lengths = rng.integers(1, T + 1, B)
    mask = (np.arange(T) < lengths[:, None]).astype(np.float32)
    tokens = rng.integers(3, V, (B, T)) * mask.astype(np.int64)
    targets = rng.integers(2, V, (B, T2))

    states, final = encode_sequence(cell, emb, tokens, mask)
    zero = Tensor(np.zeros((B, 2 * H), dtype=np.float32))
    ref_states, ref_final = composite_lstm(emb.table, tokens, zero, cell.W, cell.U, cell.b, mask)
    assert states.dtype == final.dtype == np.float32
    assert states.values.tobytes() == ref_states.values.tobytes()
    assert final.values.tobytes() == ref_final.values.tobytes()

    ref_hiddens, _ = composite_lstm(emb.table, shifted_inputs(targets, 1), final,
                                    dec.W, dec.U, dec.b)
    plain = decode_teacher_forced(dec, emb, final, targets, bos_id=1)
    assert plain.values.tobytes() == ref_hiddens.values.reshape(B * T2, H).tobytes()
    attended = decode_teacher_forced(dec, emb, final, targets, bos_id=1, attention=attn,
                                     encoder_states=states, encoder_mask=mask)
    feeds = []
    for t in range(T2):
        h = Tensor(ref_hiddens.values[:, t].copy())
        context, _ = attn.context(h, ref_states, mask)
        feeds.append(attn.attentional_hidden(context, h))
    assert attended.values.tobytes() == stack_steps(feeds).values.reshape(B * T2, H).tobytes()

    kwargs = dict(bos_id=1, eos_id=2, pad_id=0, max_len=12, attention=attn,
                  encoder_states=states, encoder_mask=mask)
    fused_ids = greedy_decode(dec, emb, proj, final, **kwargs)
    monkeypatch.setattr(LSTMCell, "step", lambda c, x, h, cp: composite_lstm_step(
        x, h, cp, c.W, c.U, c.b))
    assert greedy_decode(dec, emb, proj, final, **kwargs) == fused_ids

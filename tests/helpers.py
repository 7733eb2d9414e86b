"""Small fixtures shared across test modules."""

from aem.autograd import (add, add_bias, attend, batched_dot, concat_cols, embedding_lookup,
                          lerp_mask, masked_softmax, matmul, mul, reshape, sigmoid, slice_cols,
                          stack_steps, tanh)
from aem.config import RunConfig
from aem.data import DialoguePair, pairs_to_batch


def tiny_config(**overrides):
    base = dict(hidden_size=4, embed_size=3, vocab_size=7, batch_size=2,
                seed=3, epochs=1)
    base.update(overrides)
    return RunConfig(**base).validate()


def toy_pairs():
    return [DialoguePair([4, 5, 6], [6, 4]), DialoguePair([5, 4], [4, 5, 6])]


def toy_batch():
    return pairs_to_batch(toy_pairs())


def composite_lstm_step(x, h, c, w, u, b):
    """One LSTM step as the per-step gate chain that lstm_sequence fuses."""
    H = u.shape[0]
    pre = add_bias(add(matmul(x, w), matmul(h, u)), b)
    i = sigmoid(slice_cols(pre, 0, H))
    f = sigmoid(slice_cols(pre, H, 2 * H))
    g = tanh(slice_cols(pre, 2 * H, 3 * H))
    o = sigmoid(slice_cols(pre, 3 * H, 4 * H))
    c = add(mul(f, c), mul(i, g))
    return mul(o, tanh(c)), c


def composite_lstm(table, ids, init, w, u, b, keep=None):
    """lstm_sequence(embedding_lookup(table, ids), init, w, u, b, keep)
    built from per-step composite ops: (hiddens (B, T, H), final [h; c])."""
    H = u.shape[0]
    h, c = slice_cols(init, 0, H), slice_cols(init, H, 2 * H)
    steps = []
    for t in range(ids.shape[1]):
        h_new, c_new = composite_lstm_step(embedding_lookup(table, ids[:, t]), h, c, w, u, b)
        if keep is None:
            h, c = h_new, c_new
        else:
            h = lerp_mask(h_new, h, keep[:, t : t + 1])
            c = lerp_mask(c_new, c, keep[:, t : t + 1])
        steps.append(h)
    return stack_steps(steps), concat_cols(h, c)


def composite_attention(hiddens, states, mask, w_a, w_c):
    """attention_sequence(hiddens, states, mask, w_a, w_c) built from the
    per-step ops that greedy decoding runs: (B*T, H) rows b*T + t."""
    B, T, H = hiddens.shape
    rows = reshape(hiddens, (B, T * H))
    feeds = []
    for t in range(T):
        h = slice_cols(rows, t * H, (t + 1) * H)
        weights = masked_softmax(batched_dot(matmul(h, w_a), states), mask)
        feeds.append(tanh(matmul(concat_cols(attend(weights, states), h), w_c)))
    return reshape(stack_steps(feeds), (B * T, H))

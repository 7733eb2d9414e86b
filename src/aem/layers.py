"""Neural building blocks: embeddings, LSTM cell and sequence runners,
the representation-mapping MLP, output projection, and Luong-style
attention.

Every LSTM, whether encoder, teacher-forced decoder or one greedy
decoding step, runs through the single fused `lstm_sequence` op, which
holds the only copy of the gate math.

All parameters are registered in a ParamStore under the prefix given at
construction, so layer code never owns arrays directly and checkpoints
are a flat name -> array map.
"""

from __future__ import annotations

import numpy as np

from .autograd import (
    Tensor,
    add_bias,
    attend,
    attention_sequence,
    batched_dot,
    concat_cols,
    embedding_lookup,
    linear_softmax_cross_entropy,
    lstm_sequence,
    masked_softmax,
    matmul,
    reshape,
    slice_cols,
    tanh,
)
from .params import ParamStore


class Embedding:
    def __init__(self, store: ParamStore, prefix: str, vocab_size: int, embed_size: int,
                 dtype=np.float32):
        self.table = store.add(f"{prefix}.W", (vocab_size, embed_size), dtype=dtype)

    def lookup(self, ids: np.ndarray) -> Tensor:
        return embedding_lookup(self.table, ids)


class LSTMCell:
    """LSTM weights W (E, 4H), U (H, 4H) and b (4H,), run by lstm_sequence
    over whole sequences or, through `step`, one step at a time.

    The 4H gate axis is ordered [input, forget, cell candidate, output];
    this order is part of the checkpoint format and must not change.
    """

    def __init__(self, store: ParamStore, prefix: str, input_size: int, hidden_size: int,
                 dtype=np.float32):
        self.hidden_size = hidden_size
        self.W = store.add(f"{prefix}.W", (input_size, 4 * hidden_size), dtype=dtype)
        self.U = store.add(f"{prefix}.U", (hidden_size, 4 * hidden_size), dtype=dtype)
        self.b = store.add(f"{prefix}.b", (4 * hidden_size,), dtype=dtype)

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        """One step from (B, E) inputs: lstm_sequence over a length-1 sequence."""
        B, E = x.values.shape
        _, state = lstm_sequence(reshape(x, (B, 1, E)), concat_cols(h_prev, c_prev),
                                 self.W, self.U, self.b)
        return split_state(state, self.hidden_size)


class OutputProjection:
    def __init__(self, store: ParamStore, prefix: str, hidden_size: int, vocab_size: int,
                 dtype=np.float32):
        self.W = store.add(f"{prefix}.W", (hidden_size, vocab_size), dtype=dtype)
        self.b = store.add(f"{prefix}.b", (vocab_size,), dtype=dtype)

    def logits(self, h: Tensor) -> Tensor:
        return add_bias(matmul(h, self.W), self.b)

    def loss(self, h: Tensor, targets: np.ndarray, mask: np.ndarray) -> tuple[Tensor, int]:
        """Summed cross-entropy of logits(h) over mask==1 rows, fused so the
        logits are never recorded; returns (loss_sum, n_tokens)."""
        return linear_softmax_cross_entropy(h, self.W, self.b, targets, mask)


class MappingMLP:
    """Transforms one utterance representation into another: a tanh
    hidden layer then a linear output, both the full state width."""

    def __init__(self, store: ParamStore, prefix: str, state_size: int, dtype=np.float32):
        self.W1 = store.add(f"{prefix}.W1", (state_size, state_size), dtype=dtype)
        self.b1 = store.add(f"{prefix}.b1", (state_size,), dtype=dtype)
        self.W2 = store.add(f"{prefix}.W2", (state_size, state_size), dtype=dtype)
        self.b2 = store.add(f"{prefix}.b2", (state_size,), dtype=dtype)

    def forward(self, h: Tensor) -> Tensor:
        if h.values.ndim != 2 or h.values.shape[1] != self.W1.values.shape[0]:
            raise ValueError(
                f"mapping input must be (B, {self.W1.values.shape[0]}), got {h.values.shape}")
        hidden = tanh(add_bias(matmul(h, self.W1), self.b1))
        return add_bias(matmul(hidden, self.W2), self.b2)


class LuongAttention:
    """General-score attention over encoder annotations."""

    def __init__(self, store: ParamStore, prefix: str, hidden_size: int, dtype=np.float32):
        self.W_a = store.add(f"{prefix}.W_a", (hidden_size, hidden_size), dtype=dtype)
        self.W_c = store.add(f"{prefix}.W_c", (2 * hidden_size, hidden_size), dtype=dtype)

    def context(self, decoder_h: Tensor, encoder_states: Tensor,
                mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Scores are decoder_h . W_a . enc_t over all positions; returns
        (context, weights) with weights a masked softmax over positions."""
        proj = matmul(decoder_h, self.W_a)
        weights = masked_softmax(batched_dot(proj, encoder_states), mask)
        return attend(weights, encoder_states), weights

    def attentional_hidden(self, context: Tensor, decoder_h: Tensor) -> Tensor:
        return tanh(matmul(concat_cols(context, decoder_h), self.W_c))

    def attentional_sequence(self, decoder_hiddens: Tensor, encoder_states: Tensor,
                             mask: np.ndarray) -> Tensor:
        """attentional_hidden(context(h_t), h_t) for every step of (B, T, H)
        decoder hiddens at once, as (B*T, H) rows b*T + t."""
        return attention_sequence(decoder_hiddens, encoder_states, mask, self.W_a, self.W_c)


def zero_state(batch_size: int, hidden_size: int, dtype) -> Tensor:
    return Tensor(np.zeros((batch_size, hidden_size), dtype=dtype))


def encode_sequence(cell: LSTMCell, embedding: Embedding, tokens: np.ndarray,
                    mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Run the cell left to right from a zero state.

    Padded positions carry the previous state through unchanged, so the
    state after the last step is the state at each sequence's final
    unmasked position. Returns (per-step hiddens (B, T, H), final
    [h; c] of width 2H).
    """
    init = zero_state(tokens.shape[0], 2 * cell.hidden_size, cell.W.values.dtype)
    return lstm_sequence(embedding.lookup(tokens), init, cell.W, cell.U, cell.b, mask)


def split_state(state: Tensor, hidden_size: int) -> tuple[Tensor, Tensor]:
    """Undo the [h; c] concatenation."""
    if state.values.shape[1] != 2 * hidden_size:
        raise ValueError(f"state width {state.values.shape[1]} != 2*{hidden_size}")
    return slice_cols(state, 0, hidden_size), slice_cols(state, hidden_size, 2 * hidden_size)


def shifted_inputs(targets: np.ndarray, bos_id: int) -> np.ndarray:
    """Teacher-forcing inputs: BOS then the gold tokens, dropping the last."""
    inputs = np.empty_like(targets)
    inputs[:, 0] = bos_id
    inputs[:, 1:] = targets[:, :-1]
    return inputs


def decode_teacher_forced(cell: LSTMCell, embedding: Embedding, init: Tensor,
                          targets: np.ndarray, bos_id: int,
                          attention: LuongAttention | None = None,
                          encoder_states: Tensor | None = None,
                          encoder_mask: np.ndarray | None = None) -> Tensor:
    """Output-projection inputs (B*T, H), row b*T + t predicting gold token
    targets[b, t] from the ones before it, starting the recurrence from
    `init` ([h; c], width 2H).

    With attention, each step's projection input is the attentional
    hidden state built from the decoder state and encoder annotations.
    The recurrence never reads attention (there is no input feeding), so
    the whole decoder LSTM runs first and attention covers all its
    hiddens in one op.
    """
    B, T = targets.shape
    x = embedding.lookup(shifted_inputs(targets, bos_id))
    hiddens, _ = lstm_sequence(x, init, cell.W, cell.U, cell.b)
    if attention is None:
        return reshape(hiddens, (B * T, cell.hidden_size))
    return attention.attentional_sequence(hiddens, encoder_states, encoder_mask)


def greedy_decode(cell: LSTMCell, embedding: Embedding, proj: OutputProjection,
                  init: Tensor, bos_id: int, eos_id: int, pad_id: int, max_len: int,
                  attention: LuongAttention | None = None,
                  encoder_states: Tensor | None = None,
                  encoder_mask: np.ndarray | None = None) -> list[list[int]]:
    """Argmax decoding from `init`, at most max_len tokens per sequence,
    stopping at EOS. PAD and BOS are never emitted; argmax ties break
    toward the lowest token id."""
    B = init.values.shape[0]
    h, c = split_state(init, cell.hidden_size)
    current = np.full(B, bos_id, dtype=np.int64)
    finished = np.zeros(B, dtype=bool)
    columns = []
    for _ in range(max_len):
        x = embedding.lookup(current)
        h, c = cell.step(x, h, c)
        if attention is not None:
            context, _ = attention.context(h, encoder_states, encoder_mask)
            feed = attention.attentional_hidden(context, h)
        else:
            feed = h
        logits = proj.logits(feed).values.copy()
        logits[:, pad_id] = -np.inf
        logits[:, bos_id] = -np.inf
        chosen = logits.argmax(axis=1)
        chosen = np.where(finished, pad_id, chosen)
        columns.append(chosen)
        finished |= chosen == eos_id
        current = chosen
        if finished.all():
            break
    out: list[list[int]] = []
    matrix = np.stack(columns, axis=1) if columns else np.zeros((B, 0), dtype=np.int64)
    for row in matrix:
        ids = []
        for tok in row:
            if tok == eos_id or tok == pad_id:
                break
            ids.append(int(tok))
        out.append(ids)
    return out

"""Neural building blocks: LSTM cell and sequence runners, the
representation-mapping MLP, output projection, and Luong-style
attention. The sequence runners take an embedding as its (V, E)
table, a ParamStore tensor, and gather its rows by token id.

Every LSTM and every attention, whether over a whole sequence (encoder,
teacher-forced decoder) or one greedy decoding step, runs through one
fused op, `lstm_sequence` or `attention_sequence`, which holds the only
copy of its math; each is reached through one method, `LSTMCell.step`
or `LuongAttention.attentional_hidden`. LSTM state is always one [h; c]
tensor of width 2H.

All parameters are registered in a ParamStore under the prefix given at
construction, in the store's dtype, so layer code never owns arrays
directly and checkpoints are a flat name -> array map. The training
loss head is `linear_softmax_cross_entropy` over an OutputProjection's
W and b; greedy decoding computes `logits`' h W + b straight from the
arrays, with no op records.
"""

from __future__ import annotations

import numpy as np

from . import autograd
from .autograd import (
    AttentionMask,
    Tensor,
    add_bias,
    attend,
    attention_sequence,
    batched_dot,
    embedding_lookup,
    lstm_sequence,
    masked_softmax,
    matmul,
    reshape,
    tanh,
)
from .data import BOS_ID, EOS_ID, PAD_ID
from .params import ParamStore


class LSTMCell:
    """LSTM weights W (E, 4H), U (H, 4H) and b (4H,), run by `step`.

    The 4H gate axis is ordered [input, forget, cell candidate, output];
    this order is part of the checkpoint format and must not change.
    """

    def __init__(self, store: ParamStore, prefix: str, input_size: int, hidden_size: int):
        self.hidden_size = hidden_size
        self.W = store.add(f"{prefix}.W", (input_size, 4 * hidden_size))
        self.U = store.add(f"{prefix}.U", (hidden_size, 4 * hidden_size))
        self.b = store.add(f"{prefix}.b", (4 * hidden_size,))

    def step(self, x: Tensor, state: Tensor,
             lengths: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Step the cell through all T steps of (B, T, E) inputs from the
        [h; c] state (T = 1 for one greedy token), as one lstm_sequence
        record. Returns (hiddens (B, T, H), final [h; c]), the final state
        read after step lengths[r] of row r when lengths is given."""
        return lstm_sequence(x, state, self.W, self.U, self.b, lengths)


class OutputProjection:
    def __init__(self, store: ParamStore, prefix: str, hidden_size: int, vocab_size: int):
        self.W = store.add(f"{prefix}.W", (hidden_size, vocab_size))
        self.b = store.add(f"{prefix}.b", (vocab_size,))

    def logits(self, h: Tensor) -> Tensor:
        return add_bias(matmul(h, self.W), self.b)


class MappingMLP:
    """Transforms one utterance representation into another: a tanh
    hidden layer then a linear output, both the full state width."""

    def __init__(self, store: ParamStore, prefix: str, state_size: int):
        self.W1 = store.add(f"{prefix}.W1", (state_size, state_size))
        self.b1 = store.add(f"{prefix}.b1", (state_size,))
        self.W2 = store.add(f"{prefix}.W2", (state_size, state_size))
        self.b2 = store.add(f"{prefix}.b2", (state_size,))

    def forward(self, h: Tensor) -> Tensor:
        if h.values.ndim != 2 or h.values.shape[1] != self.W1.values.shape[0]:
            raise ValueError(
                f"mapping input must be (B, {self.W1.values.shape[0]}), got {h.values.shape}")
        hidden = tanh(add_bias(matmul(h, self.W1), self.b1))
        return add_bias(matmul(hidden, self.W2), self.b2)


class LuongAttention:
    """General-score attention over encoder annotations."""

    def __init__(self, store: ParamStore, prefix: str, hidden_size: int):
        self.W_a = store.add(f"{prefix}.W_a", (hidden_size, hidden_size))
        self.W_c = store.add(f"{prefix}.W_c", (2 * hidden_size, hidden_size))

    def context(self, decoder_h: Tensor, encoder_states: Tensor,
                mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Scores are decoder_h . W_a . enc_t over all positions; returns
        (context, weights) with weights a masked softmax over positions.
        The model never calls this: it exposes the attention weights that
        attentional_hidden keeps inside its op."""
        proj = matmul(decoder_h, self.W_a)
        weights = masked_softmax(batched_dot(proj, encoder_states), mask)
        return attend(weights, encoder_states), weights

    def attentional_hidden(self, decoder_hiddens: Tensor, encoder_states: Tensor,
                           mask: AttentionMask) -> Tensor:
        """tanh([c_t; h_t] W_c), c_t as in context(h_t), for every step of
        (B, T, H) decoder hiddens, as (B*T, H) rows b*T + t: one op for a
        whole teacher-forced target or one greedy step, over the encoder
        mask checked once as an AttentionMask."""
        return attention_sequence(decoder_hiddens, encoder_states, mask, self.W_a, self.W_c)


def encode_sequence(cell: LSTMCell, table: Tensor, tokens: np.ndarray,
                    mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Run the cell left to right from a zero state over the `table` rows
    of (B, T) tokens whose mask rows are ones up to each row's length,
    then zeros; a gap or a row with no real token raises ValueError.

    Returns (per-step hiddens (B, T, H), final [h; c] of width 2H read
    at each row's last unmasked position). Hiddens at padded positions
    run on over the padding; attention masks them out.
    """
    mask = np.asarray(mask)
    lengths = np.count_nonzero(mask, axis=1)
    gaps = (mask != 0) != (np.arange(tokens.shape[1]) < lengths[:, None])
    if gaps.any():
        raise ValueError(f"encode_sequence mask row {int(gaps.any(axis=1).argmax())} has a gap")
    if lengths.min() < 1:
        raise ValueError(f"encode_sequence mask row {int(lengths.argmin())} has no real token")
    init = Tensor(np.zeros((tokens.shape[0], 2 * cell.hidden_size), dtype=cell.W.values.dtype))
    return cell.step(embedding_lookup(table, tokens), init, lengths)


def shifted_inputs(targets: np.ndarray) -> np.ndarray:
    """Teacher-forcing inputs: BOS then the gold tokens, dropping the last."""
    inputs = np.empty_like(targets)
    inputs[:, 0] = BOS_ID
    inputs[:, 1:] = targets[:, :-1]
    return inputs


def decode_teacher_forced(cell: LSTMCell, table: Tensor, init: Tensor,
                          targets: np.ndarray, attend=None) -> Tensor:
    """Output-projection inputs (B*T, H), row b*T + t predicting gold token
    targets[b, t] from the ones before it, starting the recurrence from
    `init` ([h; c], width 2H).

    `attend`, when given, maps (B, T, H) decoder hiddens to the (B*T, H)
    attentional hiddens that replace them, as DialogueModel builds it from
    LuongAttention.attentional_hidden. The recurrence never reads
    attention (there is no input feeding), so the whole decoder LSTM runs
    first and attention covers all its hiddens in one call.
    """
    B, T = targets.shape
    hiddens, _ = cell.step(embedding_lookup(table, shifted_inputs(targets)), init)
    if attend is None:
        return reshape(hiddens, (B * T, cell.hidden_size))
    return attend(hiddens)


def greedy_decode(cell: LSTMCell, table: Tensor, proj: OutputProjection,
                  init: Tensor, max_len: int, attend=None) -> list[list[int]]:
    """Argmax decoding from `init`, at most max_len tokens per sequence,
    stopping at EOS, with `attend` as in decode_teacher_forced applied to
    each step's (B, 1, H) hiddens. PAD and BOS are never emitted; argmax
    ties break toward the lowest token id.

    Per reply the bias is copied once with -inf at PAD and BOS; per token
    only the recurrence runs: the cell's `step` over the (B, 1, E) embedding
    rows of the last ids (argmax ids, in range by construction), `attend`
    on its hiddens, and logits = feed @ W + bias with their argmax, over
    two row halves through autograd._halves when B x V logits are enough
    to pay for it. Finished rows are fed PAD. Per-reply work, such as
    checking the encoder mask, belongs in `attend`'s construction."""
    B = init.values.shape[0]
    W = proj.W.values
    bias = proj.b.values.copy()
    bias[[PAD_ID, BOS_ID]] = -np.inf
    logits = np.empty((B, W.shape[1]), dtype=W.dtype)
    best = np.empty(B, dtype=np.intp)

    def argmax_rows(rows):
        # rows `rows` of this token's feed
        z = np.matmul(feed[rows], W, out=logits[rows])
        z += bias
        z.argmax(axis=1, out=best[rows])

    state = init
    current = np.full((B, 1), BOS_ID, dtype=np.int64)
    tokens = np.empty((B, max_len), dtype=np.int64)
    lengths = np.full(B, max_len)
    finished = np.zeros(B, dtype=bool)
    for step in range(max_len):
        hiddens, state = cell.step(Tensor(table.values[current]), state)
        feed = hiddens.values.reshape(B, -1) if attend is None else attend(hiddens).values
        autograd._halves(argmax_rows, B, logits.size)
        chosen = np.where(finished, PAD_ID, best)
        tokens[:, step] = chosen
        # only non-finite logits pick the banned PAD or BOS: they end a reply too
        ended = ~finished & (chosen <= EOS_ID)
        lengths[ended] = step
        finished |= ended
        if finished.all():
            break
        current = chosen[:, None]
    return [row[:n].tolist() for row, n in zip(tokens, lengths)]

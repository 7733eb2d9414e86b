"""Neural building blocks: LSTM cell and sequence runners, the
representation-mapping MLP, output projection, and Luong-style
attention. The sequence runners take an embedding as its (V, E)
table, a ParamStore tensor, and gather its rows by token id.

Every LSTM and every attention over a whole sequence (encoder,
teacher-forced decoder) runs through one fused op, `lstm_sequence` or
`attention_sequence`, reached through one method, `LSTMCell.step` or
`LuongAttention.attentional_hidden`, and independent LSTM runs of
several cells through `step_cells`, one `lstm_sequences` group (see
`encode_sequences` and `decode_sequences`). Greedy decoding records
nothing: its loop drives the ops' own numpy, `autograd._lstm_steps` and
`autograd._attention_forward`, so each piece of math has one copy. LSTM
state is one [h; c] tensor of width 2H.

All parameters are registered in a ParamStore under the prefix given at
construction, in the store's dtype, so layer code never owns arrays
directly and checkpoints are a flat name -> array map. The training
loss head is `linear_softmax_cross_entropy` over an OutputProjection's
W and b; greedy decoding computes `logits`' h W + b straight from the
arrays.
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
    lstm_sequences,
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
        [h; c] state, as one lstm_sequence record. Returns (hiddens
        (B, T, H), final [h; c]), the final state read after step
        lengths[r] of row r when lengths is given."""
        return lstm_sequence(x, state, self.W, self.U, self.b, lengths)


def step_cells(runs) -> list[tuple[Tensor, Tensor]]:
    """cell.step(x, state, lengths) for each (cell, x, state, lengths) of
    `runs`, in order, as one lstm_sequences record: runs that take none of
    each other's outputs share both CPUs (see autograd.lstm_sequences)."""
    return lstm_sequences([(x, state, cell.W, cell.U, cell.b, lengths)
                           for cell, x, state, lengths in runs])


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
        whole teacher-forced target, over the encoder mask checked once as
        an AttentionMask."""
        return attention_sequence(decoder_hiddens, encoder_states, mask, self.W_a, self.W_c)


def _encoder_run(cell: LSTMCell, table: Tensor, tokens: np.ndarray, mask: np.ndarray):
    """(cell, x, zero [h; c], lengths): what encode_sequence steps the cell
    through, with the mask checked."""
    mask = np.asarray(mask)
    lengths = np.count_nonzero(mask, axis=1)
    gaps = (mask != 0) != (np.arange(tokens.shape[1]) < lengths[:, None])
    if gaps.any():
        raise ValueError(f"encode_sequence mask row {int(gaps.any(axis=1).argmax())} has a gap")
    if lengths.min() < 1:
        raise ValueError(f"encode_sequence mask row {int(lengths.argmin())} has no real token")
    init = Tensor(np.zeros((tokens.shape[0], 2 * cell.hidden_size), dtype=cell.W.values.dtype))
    return cell, embedding_lookup(table, tokens), init, lengths


def encode_sequence(cell: LSTMCell, table: Tensor, tokens: np.ndarray,
                    mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Run the cell left to right from a zero state over the `table` rows
    of (B, T) tokens whose mask rows are ones up to each row's length,
    then zeros; a gap or a row with no real token raises ValueError.

    Returns (per-step hiddens (B, T, H), final [h; c] of width 2H read
    at each row's last unmasked position). Hiddens at padded positions
    run on over the padding; attention masks them out.
    """
    cell, x, init, lengths = _encoder_run(cell, table, tokens, mask)
    return cell.step(x, init, lengths)


def encode_sequences(encoders) -> list[tuple[Tensor, Tensor]]:
    """encode_sequence for each (cell, table, tokens, mask) of `encoders`,
    their LSTMs run as one group by step_cells."""
    return step_cells([_encoder_run(*encoder) for encoder in encoders])


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

    `attend`, when given, is the (LuongAttention, encoder states,
    AttentionMask) that DialogueModel._attend builds: the (B*T, H)
    attentional hiddens of that attention over the (B, T, H) decoder
    hiddens replace them. The recurrence never reads attention (there is
    no input feeding), so the whole decoder LSTM runs first and attention
    covers all its hiddens in one call.
    """
    hiddens, _ = cell.step(embedding_lookup(table, shifted_inputs(targets)), init)
    return _features(hiddens, attend)


def decode_sequences(decoders) -> list[Tensor]:
    """decode_teacher_forced for each (cell, table, init, targets, attend)
    of `decoders`, their LSTMs run as one group by step_cells."""
    outs = step_cells([(cell, embedding_lookup(table, shifted_inputs(targets)), init, None)
                       for cell, table, init, targets, _ in decoders])
    return [_features(hiddens, decoder[4]) for (hiddens, _), decoder in zip(outs, decoders)]


def _features(hiddens: Tensor, attend) -> Tensor:
    """The (B*T, H) rows a decoder hands the output projection."""
    if attend is None:
        B, T, H = hiddens.shape
        return reshape(hiddens, (B * T, H))
    attention, states, mask = attend
    return attention.attentional_hidden(hiddens, states, mask)


def greedy_decode(cell: LSTMCell, table: Tensor, proj: OutputProjection,
                  init: Tensor, max_len: int, attend=None) -> list[list[int]]:
    """Argmax decoding from `init`, at most max_len tokens per sequence,
    stopping at EOS, attending as decode_teacher_forced does when `attend`
    is given. PAD and BOS are never emitted; argmax ties break toward the
    lowest token id.

    Greedy rows never read each other, so the rows split once per reply:
    through autograd._halves over B x V logits, as two row halves when
    those pay for the worker (as for 256 sources at V = 3000), else whole
    (one-source chat). Each part runs every token for its own rows with
    numpy only and no op records: it gathers the embedding rows of the
    last ids (in range by construction), projects them (x W), runs
    autograd._lstm_steps, then autograd._attention_forward when
    attending, and forms logits = feed @ W + bias and their argmax, the
    bias copied once per reply with -inf at PAD and BOS. A row that emits
    EOS is fed it once, then PAD; a part stops once all its rows have
    ended. Both parts write row views of buffers made here once per reply,
    so the worker allocates only per-token temporaries."""
    B, H = init.values.shape[0], cell.hidden_size
    W = proj.W.values
    dtype = W.dtype
    bias = proj.b.values.copy()
    bias[[PAD_ID, BOS_ID]] = -np.inf
    tv, wv, uv, bv = table.values, cell.W.values, cell.U.values, cell.b.values
    if attend is None:
        feed = lambda hidden, rows: hidden
    else:
        attention, states, mask = attend
        wa, wc = attention.W_a.values, attention.W_c.values
        feed = lambda hidden, rows: autograd._attention_forward(
            hidden[:, None], states.values[rows], mask.keep[rows], wa, wc)[3]
    # h and c before and after a token: the two slots swap roles every token
    hs, cs = np.empty((2, B, H), dtype=dtype), np.empty((2, B, H), dtype=dtype)
    hs[0], cs[0] = init.values[:, :H], init.values[:, H:]
    acts, tcs = np.empty((1, B, 4 * H), dtype=dtype), np.empty((1, B, H), dtype=dtype)
    logits = np.empty((B, W.shape[1]), dtype=dtype)
    ids = np.full(B, BOS_ID, dtype=np.intp)
    tokens = np.empty((B, max_len), dtype=np.int64)
    lengths = np.full(B, max_len)
    finished = np.zeros(B, dtype=bool)

    def decode_rows(rows):
        # every token of rows `rows`, through views of those rows alone
        last, z, out, ends, done = (a[rows] for a in (ids, logits, tokens, lengths, finished))
        for step in range(max_len):
            slots = slice(None, None, -1 if step % 2 else 1)
            h, c = hs[slots, rows], cs[slots, rows]
            autograd._lstm_steps(uv, bv, (tv[last] @ wv)[None], h, c, acts[:, rows], tcs[:, rows])
            np.matmul(feed(h[1], rows), W, out=z)
            z += bias
            z.argmax(axis=1, out=last)
            last[done] = PAD_ID
            out[:, step] = last
            # only non-finite logits pick the banned PAD or BOS: they end a reply too
            ended = ~done & (last <= EOS_ID)
            ends[ended] = step
            done |= ended
            if done.all():
                break

    autograd._halves(decode_rows, B, logits.size)
    return [row[:n].tolist() for row, n in zip(tokens, lengths)]

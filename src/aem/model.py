"""Dialogue models: matched auto-encoders and the plain encoder-decoder.

The full model runs two sequence auto-encoders, one per side of the
conversation, and learns a small MLP that maps the source representation
h into the target representation space. Four losses are combined:

  j1  reconstruction of the source utterance from h
  j2  reconstruction of the target utterance from s
  j3  0.5 * ||g(h) - s||^2, averaged over the batch
  j4  end-to-end: decode the target from t = g(h)

  total = lambda1 * (j1 + j2) + lambda2 * j3 + lambda3 * j4

j1, j2 and j4 are one teacher-forced cross-entropy taken through three
decoders, averaged per unmasked token. By default j3 updates only the
mapping parameters: h and s are detached before the mapping loss, and
the end-to-end path rebuilds t from the live h so j4 still reaches the
encoder. The `seq2seq` kinds drop the auto-encoding entirely and feed
the encoder state straight into the decoder, giving the comparison
systems; parameter names shared with the full model are initialized
from the same per-name streams, so shared pieces start bit-identical
across kinds.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import autograd
from .autograd import AttentionMask, Tape, add, backward, detach, linear_softmax_cross_entropy, \
    mul, scale, sub, sum_all
from .config import MODEL_KINDS
from .data import Batch, pad_sequences
# perfbench/spans.py patches encode_sequence and decode_teacher_forced in this module
# (tests/test_tooling.py pins both names), so both stay imported, called or not
from .layers import LSTMCell, LuongAttention, MappingMLP, OutputProjection, \
    decode_sequences, decode_teacher_forced, encode_sequence, encode_sequences, greedy_decode
from .optim import Adam, clip_grad_norm
from .params import ParamStore, uniform_init


@dataclass
class LossBreakdown:
    """Per-token j1/j2/j4, batch-mean j3, and their weighted total.
    After a train step, grad_norm is the global gradient norm before
    clipping, group_norms the same norm per parameter group (theta, phi,
    gamma, attn; the groups the kind has) and clipped whether grad_norm
    exceeded clip_norm."""

    j1: float = 0.0
    j2: float = 0.0
    j3: float = 0.0
    j4: float = 0.0
    total: float = 0.0
    grad_norm: float = 0.0
    group_norms: dict = field(default_factory=dict)
    clipped: bool = False


def total_loss(j1, j2, j3, j4, config):
    """Weighted combination of the four per-token losses."""
    return config.lambda1 * (j1 + j2) + config.lambda2 * j3 + config.lambda3 * j4


class DialogueModel:
    """One of four model kinds over a shared parameter store.

    kinds: "aem", "aem_attention" (the matched auto-encoders), "seq2seq",
    "seq2seq_attention" (the baselines). `identity_map` replaces the
    learned mapping with t = h, which together with lambda1 = lambda2 = 0
    makes the full model step-for-step equivalent to the baseline.

    `mapping` is None for the seq2seq kinds and under identity_map, and
    `attention` None for the kinds without it.

    Parameters start from the seeded per-name uniform draw or, given
    `values` (name -> array, as a checkpoint stores them), from copies of
    those arrays with nothing drawn; model_from_checkpoint checks their
    names and shapes.
    """

    def __init__(self, kind, config, identity_map=False, dtype=np.float32, values=None):
        if kind not in MODEL_KINDS:
            raise ValueError("unknown model kind %r, expected one of %s"
                             % (kind, ", ".join(MODEL_KINDS)))
        self.kind = kind
        self.config = config
        H, E, V = config.hidden_size, config.embed_size, config.vocab_size

        store = ParamStore(dtype)
        self.src_embed = store.add("theta.embed.W", (V, E))
        self.src_enc = LSTMCell(store, "theta.src_enc", E, H)
        self.tgt_embed = store.add("phi.embed.W", (V, E))
        self.tgt_dec = LSTMCell(store, "phi.tgt_dec", E, H)
        self.tgt_proj = OutputProjection(store, "phi.tgt_dec.proj", H, V)
        if self.is_aem:
            self.src_dec = LSTMCell(store, "theta.src_dec", E, H)
            self.src_proj = OutputProjection(store, "theta.src_dec.proj", H, V)
            self.tgt_enc = LSTMCell(store, "phi.tgt_enc", E, H)
        self.mapping = (MappingMLP(store, "gamma.map", 2 * H)
                        if self.is_aem and not identity_map else None)
        self.attention = LuongAttention(store, "attn", H) if kind.endswith("attention") else None
        self.store = store
        if values is None:
            uniform_init(store, -0.1, 0.1, seed=config.seed)
        else:
            store.assign(values)

    @property
    def is_aem(self):
        return self.kind.startswith("aem")

    # forward pieces ----------------------------------------------------

    def _source(self, batch):
        """The source encoder's (cell, table, tokens, mask)."""
        return self.src_enc, self.src_embed, batch.source, batch.source_mask

    def _target(self, batch):
        """The target encoder's (cell, table, tokens, mask)."""
        return self.tgt_enc, self.tgt_embed, batch.target, batch.target_mask

    def encode_source(self, batch):
        """Run the source encoder; returns (annotations, h)."""
        return encode_sequence(*self._source(batch))

    def encode_target_ae(self, batch):
        """Target auto-encoder: s plus the summed reconstruction loss."""
        _, s = encode_sequence(*self._target(batch))
        ((j2_sum, n),) = self._decode_losses([self._j2(batch, s)])
        return s, j2_sum, n

    def _map(self, h):
        """g(h), or h itself when there is no mapping."""
        return h if self.mapping is None else self.mapping.forward(h)

    def map_representation(self, h, s, detach_states=None):
        """t = g(h) and the matching loss 0.5 * ||t - s||^2 / batch.

        When detaching (the default), the loss is computed from copies of
        h and s cut out of the graph, so it moves only the mapping; the
        returned t stays live for the end-to-end path.
        """
        t = self._map(h)
        return t, self._matching_loss(h, s, t, detach_states)

    def _matching_loss(self, h, s, t, detach_states=None):
        """map_representation's loss, given its t = g(h)."""
        if h.shape != s.shape:
            raise ValueError("state shapes differ: %s vs %s" % (h.shape, s.shape))
        if detach_states is None:
            detach_states = self.config.detach_j3
        if detach_states:
            t, s = self._map(detach(h)), detach(s)
        diff = sub(t, s)
        return scale(sum_all(mul(diff, diff)), 0.5 / h.shape[0])

    def _attend(self, encoder_states, encoder_mask):
        """The decoders' `attend` over these annotations for attention
        kinds, (attention, states, AttentionMask), and None for the plain
        kinds. The mask is converted and checked here, once, however many
        steps the decoder attends."""
        if self.attention is None:
            return None
        mask = AttentionMask(encoder_mask, encoder_states.shape[:2], encoder_states.dtype)
        return self.attention, encoder_states, mask

    # the teacher-forced decoders, as (cell, table, proj, init, tokens, mask, attend)

    def _j1(self, batch, h):
        return self.src_dec, self.src_embed, self.src_proj, h, batch.source, batch.source_mask, None

    def _j2(self, batch, s):
        return self.tgt_dec, self.tgt_embed, self.tgt_proj, s, batch.target, batch.target_mask, None

    def _j4(self, batch, init, states):
        return (self.tgt_dec, self.tgt_embed, self.tgt_proj, init, batch.target,
                batch.target_mask, self._attend(states, batch.source_mask))

    def _decode_losses(self, decoders):
        """Decode each decoder's (B, T) tokens teacher-forced from its init
        and score them: (summed cross-entropy over mask == 1 positions,
        their count) per decoder. The decoders' LSTMs run as one
        decode_sequences group, a lone decoder as a group of one. The head
        is fused, so the (B*T, V) logits are never recorded."""
        features = decode_sequences([(cell, table, init, tokens, attend)
                                     for cell, table, _, init, tokens, _, attend in decoders])
        return [linear_softmax_cross_entropy(f, proj.W, proj.b, tokens.reshape(-1),
                                             mask.reshape(-1))
                for f, (_, _, proj, _, tokens, mask, _) in zip(features, decoders)]

    # training ----------------------------------------------------------

    def loss_graph(self, batch):
        """Build the weighted total under the ambient tape.

        Returns (total Tensor, LossBreakdown of the current values); the
        plain kinds leave j1, j2 and j3 at 0. Each LSTM group is one
        lstm_sequences record: the AEM kinds' two encoders, then, once h, s
        and t = g(h) exist, their three decoders, so independent recurrences
        share both CPUs; a plain kind runs groups of one.
        """
        cfg = self.config
        if self.is_aem:
            (states, h), (_, s) = encode_sequences([self._source(batch), self._target(batch)])
            t = self._map(h)
            (j1_sum, n_src), (j2_sum, n_tgt), (j4_sum, _) = self._decode_losses(
                [self._j1(batch, h), self._j2(batch, s), self._j4(batch, t, states)])
            # recorded after the decoders, so backward adds the matching
            # loss's gradient to t before the decoders add theirs: when t is
            # h itself (identity_map, detach_j3 off), h sums J4's and j3's
            # gradients before J1's, as a tape that runs the J4 decoder
            # after the matching loss does
            j3 = self._matching_loss(h, s, t)
            j1 = scale(j1_sum, 1.0 / n_src)
            j2 = scale(j2_sum, 1.0 / n_tgt)
            rest = add(scale(add(j1, j2), cfg.lambda1), scale(j3, cfg.lambda2))
            losses = dict(j1=j1, j2=j2, j3=j3)
        else:
            states, h = self.encode_source(batch)
            ((j4_sum, n_tgt),) = self._decode_losses([self._j4(batch, h, states)])
            rest, losses = None, {}
        j4 = scale(j4_sum, 1.0 / n_tgt)
        total = scale(j4, cfg.lambda3)
        total = total if rest is None else add(rest, total)
        losses.update(j4=j4, total=total)
        parts = LossBreakdown(**{name: float(t.values) for name, t in losses.items()})
        for name, value in losses.items():
            if not np.isfinite(value.values):
                raise FloatingPointError("non-finite %s" % name)
        return total, parts

    def train_step(self, batch, adam):
        """Forward all losses, backward the weighted total, clip, step. A
        non-finite gradient raises FloatingPointError before any parameter
        or moment changes.

        The step owns the parameter gradients: backward allocates each at
        its first contribution, and the step releases them all
        (`ParamStore.zero_grads`) when it returns or raises, so no
        gradient sits in memory between steps and a failed step leaves
        none behind for the next one to add to."""
        try:
            with Tape() as tape:
                tape.watch(self.store.tensors())
                total, parts = self.loss_graph(batch)
                backward(tape, total)
            norm = clip_grad_norm(self.store, self.config.clip_norm)
            parts.grad_norm, parts.group_norms = float(norm), norm.groups
            parts.clipped = parts.grad_norm > self.config.clip_norm
            adam.step()
        finally:
            self.store.zero_grads()
        return parts

    def evaluate_batch(self, batch):
        """Losses without recording gradients."""
        _, parts = self.loss_graph(batch)
        return parts

    def make_optimizer(self):
        cfg = self.config
        return Adam(self.store, lr=cfg.learning_rate, beta1=cfg.adam_beta1,
                    beta2=cfg.adam_beta2, epsilon=cfg.adam_epsilon)

    # generation ----------------------------------------------------------

    @property
    def _chunk_size(self) -> int:
        """The most sources one greedy batch of generate runs: the rows of
        one output-head block, max(1, autograd._BLOCK_LOGITS // V)."""
        return max(1, autograd._BLOCK_LOGITS // self.tgt_proj.W.shape[1])

    def generate(self, sources, max_len=None):
        """Greedy responses for a batch of source id sequences.

        Encodes each source, maps it into the target space (full model
        kinds), and decodes until EOS or the length cap. The target
        encoder is never touched: responses depend on the source alone.
        No sources give no responses.

        Sources run in chunks of at most max(1, autograd._BLOCK_LOGITS //
        V) (1,398 at V = 3000, the rows of one output-head block), in
        input order, each chunk padded to its own longest source, so a
        call holds one chunk's encoder arrays and logits however many
        sources it is given. Replies come back in input order, each what
        generating its chunk alone gives; up to one chunk of sources runs
        as one batch. Over several chunks the replies can differ from one
        whole batch's only where a product's last bits depend on its row
        count or padded length (OpenBLAS picks kernels by shape) and tip
        an argmax; the tests find none at their shapes, with attention or
        without.
        """
        _check_sources(sources)
        if max_len is None:
            max_len = self.config.max_gen_len
        chunk = self._chunk_size
        return [reply for start in range(0, len(sources), chunk)
                for reply in self._generate_chunk(sources[start : start + chunk], max_len)]

    def generate_chunks(self, sources, max_len=None):
        """generate's replies to `sources`, any iterable of id sequences,
        as one list per chunk of generate's size, each from one generate
        call. A chunk is read from `sources` only once the list before it
        has been taken, so a caller that writes each list before taking
        the next holds one chunk of sources and replies however many it
        is given. The replies equal generate's over all the sources; an
        empty one fails when its chunk is read, named by its index."""
        sources, start = iter(sources), 0
        while part := list(islice(sources, self._chunk_size)):
            _check_sources(part, start)
            yield self.generate(part, max_len)
            start += len(part)

    def _generate_chunk(self, sources, max_len):
        """generate's replies to one chunk of non-empty sources, as one
        padded batch; a frame of its own, so that a chunk's arrays are
        freed before the next chunk is encoded."""
        ids, mask = pad_sequences(sources)
        states, h = self.encode_source(Batch(ids, mask, ids, mask))
        # the losses guard training; generation has only this check
        if not np.isfinite(h.values).all():
            raise FloatingPointError("non-finite h state")
        init = self._map(h)
        return greedy_decode(self.tgt_dec, self.tgt_embed, self.tgt_proj, init,
                             max_len=max_len, attend=self._attend(states, mask))


def _check_sources(sources, start=0):
    """Fails naming the first empty source, numbering them from `start`."""
    for i, seq in enumerate(sources, start):
        if len(seq) == 0:
            raise ValueError("source %d is empty" % i)


def build_baseline(kind, config, dtype=np.float32):
    """The comparison systems: plain encoder-decoder, with or without
    attention, trained end-to-end only."""
    if kind not in ("seq2seq", "seq2seq_attention"):
        raise ValueError("unknown baseline kind %r" % kind)
    return DialogueModel(kind, config, dtype=dtype)

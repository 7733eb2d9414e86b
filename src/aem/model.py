"""Dialogue models: matched auto-encoders and the plain encoder-decoder.

The full model runs two sequence auto-encoders, one per side of the
conversation, and learns a small MLP that maps the source representation
h into the target representation space. Four losses are combined:

  j1  reconstruction of the source utterance from h
  j2  reconstruction of the target utterance from s
  j3  0.5 * ||g(h) - s||^2, averaged over the batch
  j4  end-to-end: decode the target from t = g(h)

  total = lambda1 * (j1 + j2) + lambda2 * j3 + lambda3 * j4

j1/j2/j4 are averaged per unmasked token for optimization; their summed
forms are reported alongside. By default j3 updates only the mapping
parameters: h and s are detached before the mapping loss, and the
end-to-end path rebuilds t from the live h so j4 still reaches the
encoder. The `seq2seq` kinds drop the auto-encoding entirely and feed
the encoder state straight into the decoder, giving the comparison
systems; parameter names shared with the full model are initialized
from the same per-name streams, so shared pieces start bit-identical
across kinds.
"""

from dataclasses import dataclass

import numpy as np

from .autograd import Tape, add, backward, detach, mul, scale, sub, sum_all
from .config import MODEL_KINDS
from .data import BOS_ID, EOS_ID, PAD_ID, Batch, pad_sequences
from .layers import Embedding, LSTMCell, LuongAttention, MappingMLP, OutputProjection, \
    decode_teacher_forced, encode_sequence, greedy_decode
from .optim import Adam, clip_grad_norm
from .params import ParamStore, uniform_init


@dataclass
class LossBreakdown:
    """Per-token j1/j2/j4, batch-mean j3, and their weighted total;
    the summed forms ride along for reporting. After a train step,
    grad_norm is the global gradient norm before clipping and clipped
    whether it exceeded clip_norm."""

    j1: float
    j2: float
    j3: float
    j4: float
    total: float
    j1_sum: float = 0.0
    j2_sum: float = 0.0
    j4_sum: float = 0.0
    grad_norm: float = 0.0
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
    """

    def __init__(self, kind, config, identity_map=False, dtype=np.float32):
        if kind not in MODEL_KINDS:
            raise ValueError("unknown model kind %r, expected one of %s"
                             % (kind, ", ".join(MODEL_KINDS)))
        self.kind = kind
        self.config = config
        self.identity_map = identity_map
        self.dtype = dtype
        H, E, V = config.hidden_size, config.embed_size, config.vocab_size

        store = ParamStore()
        self.src_embed = Embedding(store, "theta.embed", V, E, dtype=dtype)
        self.src_enc = LSTMCell(store, "theta.src_enc", E, H, dtype=dtype)
        self.tgt_embed = Embedding(store, "phi.embed", V, E, dtype=dtype)
        self.tgt_dec = LSTMCell(store, "phi.tgt_dec", E, H, dtype=dtype)
        self.tgt_proj = OutputProjection(store, "phi.tgt_dec.proj", H, V, dtype=dtype)
        if self.is_aem:
            self.src_dec = LSTMCell(store, "theta.src_dec", E, H, dtype=dtype)
            self.src_proj = OutputProjection(store, "theta.src_dec.proj", H, V, dtype=dtype)
            self.tgt_enc = LSTMCell(store, "phi.tgt_enc", E, H, dtype=dtype)
            if not identity_map:
                self.mapping = MappingMLP(store, "gamma.map", 2 * H, dtype=dtype)
        if self.has_attention:
            self.attention = LuongAttention(store, "attn", H, dtype=dtype)
        self.store = store
        uniform_init(store, -0.1, 0.1, seed=config.seed)

    @property
    def is_aem(self):
        return self.kind.startswith("aem")

    @property
    def has_attention(self):
        return self.kind.endswith("attention")

    # forward pieces ----------------------------------------------------

    def encode_source(self, batch):
        """Run the source encoder; returns (annotations, h)."""
        return encode_sequence(self.src_enc, self.src_embed, batch.source, batch.source_mask)

    def encode_source_ae(self, batch):
        """Source auto-encoder: h plus the summed reconstruction loss."""
        states, h = self.encode_source(batch)
        features = decode_teacher_forced(self.src_dec, self.src_embed, h,
                                         batch.source, BOS_ID)
        j1_sum, n = self._sequence_loss(self.src_proj, features, batch.source,
                                        batch.source_mask)
        return h, j1_sum, n, states

    def encode_target_ae(self, batch):
        """Target auto-encoder: s plus the summed reconstruction loss."""
        _, s = encode_sequence(self.tgt_enc, self.tgt_embed,
                               batch.target, batch.target_mask)
        features = decode_teacher_forced(self.tgt_dec, self.tgt_embed, s,
                                         batch.target, BOS_ID)
        j2_sum, n = self._sequence_loss(self.tgt_proj, features, batch.target,
                                        batch.target_mask)
        return s, j2_sum, n

    def _map(self, h):
        """g(h), or h itself under identity_map."""
        return h if self.identity_map else self.mapping.forward(h)

    def map_representation(self, h, s, detach_states=None):
        """t = g(h) and the matching loss 0.5 * ||t - s||^2 / batch.

        When detaching (the default), the loss is computed from copies of
        h and s cut out of the graph, so it moves only the mapping; the
        returned t stays live for the end-to-end path.
        """
        if h.shape != s.shape:
            raise ValueError("state shapes differ: %s vs %s" % (h.shape, s.shape))
        if detach_states is None:
            detach_states = self.config.detach_j3
        t = self._map(h)
        if detach_states:
            t_for_loss, s_for_loss = self._map(detach(h)), detach(s)
        else:
            t_for_loss, s_for_loss = t, s
        diff = sub(t_for_loss, s_for_loss)
        j3 = scale(sum_all(mul(diff, diff)), 0.5 / h.shape[0])
        return t, j3

    def _attention_kwargs(self, encoder_states, encoder_mask):
        """decode_teacher_forced / greedy_decode arguments for attention kinds."""
        if not self.has_attention:
            return {}
        return dict(attention=self.attention, encoder_states=encoder_states,
                    encoder_mask=encoder_mask)

    def end_to_end_loss(self, init, batch, encoder_states=None):
        """Decode the target teacher-forced from the given state."""
        features = decode_teacher_forced(
            self.tgt_dec, self.tgt_embed, init, batch.target, BOS_ID,
            **self._attention_kwargs(encoder_states, batch.source_mask))
        return self._sequence_loss(self.tgt_proj, features, batch.target, batch.target_mask)

    def _sequence_loss(self, proj, features, targets, mask):
        """Summed loss of (B*T, H) decoder features against (B, T) targets."""
        return proj.loss(features, targets.reshape(-1), mask.reshape(-1))

    # training ----------------------------------------------------------

    def loss_graph(self, batch):
        """Build the weighted total under the ambient tape.

        Returns (total Tensor, LossBreakdown of the current values).
        """
        cfg = self.config
        if self.is_aem:
            h, j1_sum, n_src, states = self.encode_source_ae(batch)
            s, j2_sum, n_tgt = self.encode_target_ae(batch)
            t, j3 = self.map_representation(h, s)
            j4_sum, _ = self.end_to_end_loss(t, batch, states)
            j1 = scale(j1_sum, 1.0 / n_src)
            j2 = scale(j2_sum, 1.0 / n_tgt)
            j4 = scale(j4_sum, 1.0 / n_tgt)
            total = add(add(scale(add(j1, j2), cfg.lambda1), scale(j3, cfg.lambda2)),
                        scale(j4, cfg.lambda3))
            parts = LossBreakdown(
                j1=float(j1.values), j2=float(j2.values), j3=float(j3.values),
                j4=float(j4.values), total=float(total.values),
                j1_sum=float(j1_sum.values), j2_sum=float(j2_sum.values),
                j4_sum=float(j4_sum.values))
        else:
            states, h = self.encode_source(batch)
            j4_sum, n_tgt = self.end_to_end_loss(h, batch, states)
            j4 = scale(j4_sum, 1.0 / n_tgt)
            total = scale(j4, cfg.lambda3)
            parts = LossBreakdown(j1=0.0, j2=0.0, j3=0.0, j4=float(j4.values),
                                  total=float(total.values),
                                  j4_sum=float(j4_sum.values))
        for name in ("j1", "j2", "j3", "j4", "total"):
            if not np.isfinite(getattr(parts, name)):
                raise FloatingPointError("non-finite %s" % name)
        return total, parts

    def train_step(self, batch, adam):
        """Forward all losses, backward the weighted total, clip, step."""
        with Tape() as tape:
            tape.watch(self.store.tensors())
            total, parts = self.loss_graph(batch)
            backward(tape, total)
        parts.grad_norm = clip_grad_norm(self.store, self.config.clip_norm)
        parts.clipped = parts.grad_norm > self.config.clip_norm
        adam.step()
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

    def generate(self, sources, max_len=None):
        """Greedy responses for a batch of source id sequences.

        Encodes each source, maps it into the target space (full model
        kinds), and decodes until EOS or the length cap. The target
        encoder is never touched: responses depend on the source alone.
        """
        for i, seq in enumerate(sources):
            if len(seq) == 0:
                raise ValueError("source %d is empty" % i)
        if max_len is None:
            max_len = self.config.max_gen_len
        ids, mask = pad_sequences(sources)
        states, h = self.encode_source(Batch(ids, mask, ids, mask))
        # the losses guard training; generation has only this check
        if not np.isfinite(h.values).all():
            raise FloatingPointError("non-finite h state")
        init = self._map(h) if self.is_aem else h
        return greedy_decode(self.tgt_dec, self.tgt_embed, self.tgt_proj, init,
                             bos_id=BOS_ID, eos_id=EOS_ID, pad_id=PAD_ID,
                             max_len=max_len, **self._attention_kwargs(states, mask))


def build_baseline(kind, config, dtype=np.float32):
    """The comparison systems: plain encoder-decoder, with or without
    attention, trained end-to-end only."""
    if kind not in ("seq2seq", "seq2seq_attention"):
        raise ValueError("unknown baseline kind %r" % kind)
    return DialogueModel(kind, config, dtype=dtype)

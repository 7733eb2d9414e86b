"""Spans recorded from outside the package, by wrapping its public names.

`Patches` replaces attributes and puts the originals back. `Tracer`
builds wrappers that append one span per call (name, start, end, parent
span, optional tag) to in-memory lists; `install_tracer` puts them on
every layer boundary of `aem`, including the names that `aem.layers`,
`aem.model` and `aem.cli` import directly, and on `Tape.record`, so each
backward closure is timed under its op's name.
"""

import gzip
import os
import time

import aem.autograd
import aem.checkpoint
import aem.cli
import aem.data
import aem.layers
import aem.metrics
import aem.model
import aem.optim

OPS = ("matmul", "add", "sub", "mul", "add_bias", "scale", "sigmoid", "tanh",
       "concat_cols", "slice_cols", "reshape", "embedding_lookup", "stack_steps",
       "lerp_mask", "batched_dot", "attend", "masked_softmax", "sum_all",
       "softmax_cross_entropy")

# span name -> (owners whose attribute is replaced, attribute)
FUNCTIONS = (
    ("cli.train", (aem.cli,), "cmd_train"),
    ("cli.generate", (aem.cli,), "cmd_generate"),
    ("cli.evaluate", (aem.cli,), "cmd_evaluate"),
    ("data.load_corpus", (aem.data, aem.cli), "load_corpus"),
    ("data.build_vocab", (aem.data, aem.cli), "build_vocab"),
    ("data.encode_pairs", (aem.data, aem.cli), "encode_pairs"),
    ("model.init", (aem.model.DialogueModel,), "__init__"),
    ("model.train_step", (aem.model.DialogueModel,), "train_step"),
    ("model.loss_graph", (aem.model.DialogueModel,), "loss_graph"),
    ("model.evaluate_batch", (aem.model.DialogueModel,), "evaluate_batch"),
    ("layers.encode_sequence", (aem.layers, aem.model), "encode_sequence"),
    ("layers.decode_teacher_forced", (aem.layers, aem.model), "decode_teacher_forced"),
    ("layers.greedy_decode", (aem.layers, aem.model), "greedy_decode"),
    ("layers.lstm_step", (aem.layers.LSTMCell,), "step"),
    ("layers.output_projection", (aem.layers.OutputProjection,), "logits"),
    ("layers.attention", (aem.layers.LuongAttention,), "context"),
    ("layers.attention", (aem.layers.LuongAttention,), "attentional_hidden"),
    ("layers.mapping", (aem.layers.MappingMLP,), "forward"),
    ("autograd.backward", (aem.autograd, aem.model), "backward"),
    ("optim.adam_step", (aem.optim.Adam,), "step"),
    ("checkpoint.load", (aem.checkpoint, aem.cli), "load_checkpoint"),
    ("metrics.eval_report", (aem.metrics, aem.cli), "eval_report"),
)

ROOTS = ("model.train_step", "model.generate")


class Patches:
    """Attribute replacements that `undo` reverts in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Spans kept as parallel lists; a span's index is its id."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tags = []
        self.stack = []
        self.clipped = []        # per clip_grad_norm call: pre-clip norm > max_norm
        self.saved_bytes = []    # per save_checkpoint call
        self.batch_tokens = [0, 0]  # real tokens, padded positions over made batches

    def wrap(self, name, fn, tag=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, tags, stack = self.parents, self.tags, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            tags.append(tag(args) if tag else None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def mark(self, name):
        """A zero-length span: an event counted under the current span."""
        now = time.perf_counter()
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.tags.append(None)
        self.starts.append(now)
        self.ends.append(now)

    def root_of(self):
        """Per span, the id of its nearest enclosing ROOTS span (or -1)."""
        roots = []
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name in ROOTS:
                roots.append(i)
            else:
                roots.append(roots[parent] if parent >= 0 else -1)
        return roots

    def self_times(self):
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def write(self, path):
        """Spans as gzip TSV: id, name, start, end, parent, step id, tag."""
        roots = self.root_of()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("id\tname\tstart\tend\tparent\tstep\ttag\n")
            for i, name in enumerate(self.names):
                f.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\t%s\n" % (
                    i, name, self.starts[i], self.ends[i], self.parents[i],
                    roots[i], "" if self.tags[i] is None else self.tags[i]))


def install_tracer(tracer, patches):
    """Wrap every layer boundary named in FUNCTIONS and OPS."""
    for name, owners, attr in FUNCTIONS:
        tag = _kind_tag if name == "model.train_step" else None
        wrapped = tracer.wrap(name, getattr(owners[0], attr), tag)
        for owner in owners:
            patches.set(owner, attr, wrapped)

    wrapped = tracer.wrap("model.generate", aem.model.DialogueModel.generate,
                          lambda args: "%s/%d" % (args[0].kind, len(args[1])))
    patches.set(aem.model.DialogueModel, "generate", wrapped)

    for op in OPS:
        wrapped = tracer.wrap("autograd.fwd." + op, getattr(aem.autograd, op))
        for module in (aem.autograd, aem.layers, aem.model):
            if hasattr(module, op):
                patches.set(module, op, wrapped)

    record = aem.autograd.Tape.record

    def traced_record(tape, out, backward_fn):
        tracer.mark("autograd.record")
        op = backward_fn.__qualname__.split(".", 1)[0]
        record(tape, out, tracer.wrap("autograd.bwd." + op, backward_fn))

    patches.set(aem.autograd.Tape, "record", traced_record)

    make_batches = tracer.wrap("data.make_batches", aem.data.make_batches)

    def counted_make_batches(*args, **kwargs):
        batches = make_batches(*args, **kwargs)
        for b in batches:
            tracer.batch_tokens[0] += int(b.source_mask.sum() + b.target_mask.sum())
            tracer.batch_tokens[1] += b.source.size + b.target.size
        return batches

    for owner in (aem.data, aem.cli):
        patches.set(owner, "make_batches", counted_make_batches)

    clip = tracer.wrap("optim.clip_grad_norm", aem.optim.clip_grad_norm)

    def counted_clip(store, max_norm):
        norm = clip(store, max_norm)
        tracer.clipped.append(norm > max_norm)
        return norm

    for owner in (aem.optim, aem.model):
        patches.set(owner, "clip_grad_norm", counted_clip)

    save = tracer.wrap("checkpoint.save", aem.checkpoint.save_checkpoint)

    def counted_save(path, *args, **kwargs):
        save(path, *args, **kwargs)
        tracer.saved_bytes.append(os.path.getsize(path))

    for owner in (aem.checkpoint, aem.cli):
        patches.set(owner, "save_checkpoint", counted_save)


def _kind_tag(args):
    return args[0].kind


# per-layer metric -> span name; per selected root, self time of leaf
# ops and of the decoder loop, whose LSTM, attention and projection
# calls are layers of their own
SELF_PER_ROOT = {
    "layers.decode_teacher_forced_s": "layers.decode_teacher_forced",
}
# inclusive time per selected root
INCLUSIVE_PER_ROOT = {
    "model.loss_graph_s": "model.loss_graph",
    "autograd.backward_s": "autograd.backward",
    "layers.encode_sequence_s": "layers.encode_sequence",
    "layers.lstm_step_s": "layers.lstm_step",
    "layers.output_projection_s": "layers.output_projection",
    "layers.attention_s": "layers.attention",
    "layers.mapping_s": "layers.mapping",
    "layers.greedy_decode_s": "layers.greedy_decode",
}
# calls per selected root
CALLS_PER_ROOT = {
    "layers.lstm_step_calls": "layers.lstm_step",
    "layers.mapping_calls": "layers.mapping",
    "autograd.tape_records": "autograd.record",
}
# inclusive time per call, wherever the call happens
PER_CALL = {
    "data.load_corpus_s": "data.load_corpus",
    "data.build_vocab_s": "data.build_vocab",
    "data.make_batches_s": "data.make_batches",
    "model.init_s": "model.init",
    "model.evaluate_batch_s": "model.evaluate_batch",
    "model.generate_s": "model.generate",    # one-source calls only, see Summary.add
    "optim.clip_grad_norm_s": "optim.clip_grad_norm",
    "optim.adam_step_s": "optim.adam_step",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "metrics.eval_report_s": "metrics.eval_report",
}
for _op in OPS:
    SELF_PER_ROOT["autograd.fwd_s." + _op] = "autograd.fwd." + _op
    SELF_PER_ROOT["autograd.bwd_s." + _op] = "autograd.bwd." + _op
    CALLS_PER_ROOT["autograd.calls." + _op] = "autograd.fwd." + _op


class Summary:
    """Sums over the spans of one or more traced runs."""

    def __init__(self):
        self.roots = 0
        self.self_s = {}
        self.incl_s = {}
        self.calls = {}
        self.n_calls = {}
        self.call_s = {}
        # self time of the layer and op spans under any root; a root's own
        # self time is what no layer or op claims and is left out
        self.claimed_s = 0.0
        self.clipped = []
        self.saved_bytes = []
        self.batch_tokens = [0, 0]

    def add(self, tracer, selected):
        """Fold in one tracer; `selected(name, tag)` picks the roots that
        per-root metrics are divided by."""
        own = tracer.self_times()
        roots = tracer.root_of()
        names, tags = tracer.names, tracer.tags
        chosen = {i for i, n in enumerate(names) if n in ROOTS and selected(n, tags[i])}
        self.roots += len(chosen)
        for i, name in enumerate(names):
            dur = tracer.ends[i] - tracer.starts[i]
            # model.generate_s is the one-source (chat) call
            if name != "model.generate" or tags[i].endswith("/1"):
                _bump(self.call_s, name, dur)
                _bump(self.n_calls, name, 1)
            r = roots[i]
            if r < 0:
                continue
            if r != i:
                self.claimed_s += own[i]
            if r in chosen:
                _bump(self.self_s, name, own[i])
                _bump(self.incl_s, name, dur)
                _bump(self.calls, name, 1)
        self.clipped += tracer.clipped
        self.saved_bytes += tracer.saved_bytes
        self.batch_tokens[0] += tracer.batch_tokens[0]
        self.batch_tokens[1] += tracer.batch_tokens[1]

    def metrics(self):
        n = max(self.roots, 1)
        out = {}
        for metric, name in SELF_PER_ROOT.items():
            out[metric] = self.self_s.get(name, 0.0) / n
        for metric, name in INCLUSIVE_PER_ROOT.items():
            out[metric] = self.incl_s.get(name, 0.0) / n
        for metric, name in CALLS_PER_ROOT.items():
            out[metric] = self.calls.get(name, 0) / n
        for metric, name in PER_CALL.items():
            out[metric] = _mean(self.call_s.get(name, 0.0), self.n_calls.get(name, 0))
        out["optim.clip_frac"] = _mean(sum(self.clipped), len(self.clipped))
        out["checkpoint.bytes"] = _mean(sum(self.saved_bytes), len(self.saved_bytes))
        out["data.real_token_frac"] = _mean(*self.batch_tokens)
        return out


def _bump(table, key, value):
    table[key] = table.get(key, 0) + value


def _mean(total, count):
    return total / count if count else 0.0

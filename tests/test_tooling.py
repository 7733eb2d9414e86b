import importlib.util
import threading
from pathlib import Path

import aem.autograd
from aem.config import MODEL_KINDS
from aem.model import DialogueModel
from helpers import run_on_cpus, tiny_config, toy_batch

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# wrapped layer methods that no model kind calls in training or generation
OFF_PATH = {"OutputProjection.logits", "LuongAttention.context"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_name_the_benchmark_tracer_wraps_exists():
    # the traced benchmark wraps these names by getattr; a rename here
    # would otherwise surface only as a crash in a traced run
    spans = load_spans()
    missing = ["%s.%s" % (owner.__name__, attr)
               for _, owners, attr in spans.FUNCTIONS for owner in owners
               if not hasattr(owner, attr)]
    missing += ["aem.autograd.%s" % op for op in spans.OPS if not hasattr(aem.autograd, op)]
    assert not missing


def counted(name, method, calls):
    def wrapper(self, *args, **kwargs):
        calls.append((name, args[0].shape))
        return method(self, *args, **kwargs)
    return wrapper


def test_the_layer_methods_the_tracer_wraps_are_on_the_model_path(monkeypatch):
    # a layer method the model stops calling reads 0 in every traced run
    calls, wrapped, reached = [], set(), set()
    for _, owners, attr in load_spans().FUNCTIONS:
        for owner in owners:
            if isinstance(owner, type) and owner.__module__ == "aem.layers":
                name = "%s.%s" % (owner.__name__, attr)
                wrapped.add(name)
                monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr), calls))
    assert OFF_PATH < wrapped and "LSTMCell.step" in wrapped
    for kind in MODEL_KINDS:
        model = DialogueModel(kind, tiny_config(kind=kind))
        E = model.config.embed_size
        model.train_step(toy_batch(), model.make_optimizer())
        steps = [shape for name, shape in calls if name == "LSTMCell.step"]
        # aem: source and target encoders, their two decoders and the
        # end-to-end decoder; seq2seq: one encoder and one decoder
        assert len(steps) == (5 if model.is_aem else 2), kind
        reached.update(name for name, _ in calls)
        calls.clear()

        (reply,) = model.generate([[4, 5, 6]])
        # the encoder once over the source and its EOS, then one T = 1
        # step per decoded token, EOS included
        tokens = min(len(reply) + 1, model.config.max_gen_len)
        steps = [shape for name, shape in calls if name == "LSTMCell.step"]
        assert steps == [(1, 4, E)] + [(1, 1, E)] * tokens, kind
        reached.update(name for name, _ in calls)
        calls.clear()
    assert reached == wrapped - OFF_PATH


def test_every_call_the_tracer_wraps_runs_on_the_main_thread():
    # the tracer keeps one span stack: a wrapped call on autograd's worker
    # thread would nest its span under whatever the main thread has open
    spans = load_spans()
    off_main = []

    class CheckingTracer(spans.Tracer):
        def wrap(self, name, fn, tag=None):
            traced = super().wrap(name, fn, tag)

            def checked(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(name)
                return traced(*args, **kwargs)
            return checked

    def run():
        tracer, patches = CheckingTracer(), spans.Patches()
        spans.install_tracer(tracer, patches)
        try:
            for kind in MODEL_KINDS:
                model = DialogueModel(kind, tiny_config(kind=kind))
                model.train_step(toy_batch(), model.make_optimizer())
                model.generate([[4, 5, 6]])
        finally:
            patches.undo()
        return tracer

    tracer, on_worker = run_on_cpus(2, run)
    assert on_worker and all(on_worker)
    assert off_main == [] and tracer.stack == []
    assert {"model.train_step", "model.generate", "autograd.backward", "layers.lstm_step",
            "autograd.bwd.lstm_sequence", "autograd.bwd.linear_softmax_cross_entropy",
            "autograd.fwd.embedding_lookup"} < set(tracer.names)

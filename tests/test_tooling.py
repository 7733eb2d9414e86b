import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import aem.autograd
import aem.layers
from aem.config import MODEL_KINDS
from aem.model import DialogueModel
from helpers import run_on_cpus, tiny_config, toy_batch

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"

# wrapped layer methods that no model kind calls in training or generation:
# every LSTM of the model runs in an autograd.lstm_sequences group
OFF_PATH = {"OutputProjection.logits", "LuongAttention.context", "LSTMCell.step"}


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
    assert OFF_PATH < wrapped
    groups = []
    lstm_sequences = aem.layers.lstm_sequences
    monkeypatch.setattr(aem.layers, "lstm_sequences",
                        lambda runs: groups.append([run[0].shape for run in runs])
                        or lstm_sequences(runs))
    for kind in MODEL_KINDS:
        model = DialogueModel(kind, tiny_config(kind=kind))
        E = model.config.embed_size
        batch = toy_batch()
        source, target = batch.source.shape + (E,), batch.target.shape + (E,)
        model.train_step(batch, model.make_optimizer())
        if model.is_aem:
            # the source and target encoders as one group, then the J1, J2
            # and J4 decoders as another
            assert groups == [[source, target], [source, target, target]], kind
        else:
            # one encoder and one decoder, each a group of one
            assert groups == [[source], [target]], kind
        reached.update(name for name, _ in calls)
        calls.clear()
        groups.clear()

        model.generate([[4, 5, 6]])
        # the encoder once over the source and its EOS; greedy decoding
        # runs its tokens' LSTM steps inside layers.greedy_decode
        assert groups == [[(1, 4, E)]], kind
        reached.update(name for name, _ in calls)
        calls.clear()
        groups.clear()
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

    # per LSTM run's forward and backward: whether it ran on the main thread
    on_main = {"forward": [], "backward": []}
    # per _both call: the span open on the main thread, and whether its
    # second thunk ran on the worker
    halves = []
    floor = aem.autograd._SPLIT_MIN

    def run():
        tracer, patches = CheckingTracer(), spans.Patches()
        spans.install_tracer(tracer, patches)
        both = aem.autograd._both

        def spied(first, second, size):
            span = tracer.names[tracer.stack[-1]] if tracer.stack else None
            where = lambda: halves.append(
                (span, threading.current_thread() is not threading.main_thread())) or second()
            return both(first, where, size)

        patches.set(aem.autograd, "_both", spied)
        for name, where in on_main.items():
            method = getattr(aem.autograd._Recurrence, name)

            def noted(self, *args, method=method, where=where, **kwargs):
                where.append(threading.current_thread() is threading.main_thread())
                return method(self, *args, **kwargs)

            patches.set(aem.autograd._Recurrence, name, noted)
        try:
            for kind in MODEL_KINDS:
                model = DialogueModel(kind, tiny_config(kind=kind))
                model.train_step(toy_batch(), model.make_optimizer())
                # four sources: the reply's rows split into two halves
                model.generate([[4, 5, 6], [5, 4], [6], [4, 4]])
            # a store above the real floor, whose Adam and clipping split at any floor
            big = DialogueModel("aem", tiny_config(vocab_size=3000, hidden_size=16,
                                                   embed_size=8))
            assert big.store.num_values() >= floor
            big.train_step(toy_batch(), big.make_optimizer())
        finally:
            patches.undo()
        return tracer

    tracer, on_worker = run_on_cpus(2, run)
    assert on_worker and all(on_worker)
    # the wrapped optimizer calls and greedy decoding returned on the main
    # thread (off_main below), while their halves ran on the worker
    assert {span for span, worker in halves if worker} >= {"optim.adam_step",
                                                           "optim.clip_grad_norm",
                                                           "layers.greedy_decode"}
    # the two-row toy batch never splits by rows, so the AEM kinds' grouped
    # runs go side by side: some ran on the worker, both ways
    assert not all(on_main["forward"]) and not all(on_main["backward"])
    assert off_main == [] and tracer.stack == []
    assert {"model.train_step", "model.generate", "autograd.backward",
            "autograd.bwd.lstm_sequences", "autograd.bwd.linear_softmax_cross_entropy",
            "autograd.fwd.embedding_lookup"} < set(tracer.names)
    # every LSTM runs in an lstm_sequences group, none through the cell's step
    assert not {"layers.lstm_step", "autograd.bwd.lstm_sequence"} & set(tracer.names)


def test_peak_memory_fails_when_a_step_keeps_its_gradients():
    # the tool in a child process, on the smallest workload shape, with a
    # store whose zero_grads keeps every gradient
    code = ("import runpy, sys, aem.params\n"
            "aem.params.ParamStore.zero_grads = lambda self: None\n"
            "tool = runpy.run_path(sys.argv[1])\n"
            "for name in list(tool['WORKLOADS']):\n"
            "    if name != 'recurrence_bound':\n"
            "        del tool['WORKLOADS'][name]\n"
            "sys.exit(tool['main']([]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools" / "peak_memory.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert len(done.stdout.splitlines()) == len(MODEL_KINDS)
    assert done.stderr.count("train_step returned with gradients allocated") == len(MODEL_KINDS)
    assert "theta.src_enc.W" in done.stderr

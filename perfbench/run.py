"""Benchmark of the aem package: training throughput, generation latency,
and a traced per-layer / per-op breakdown.

    python3 perfbench/run.py --workload vocab_bound --seed 1 --seconds 40 --trace 0

Run it from the repository root. It imports the package from `src/`,
writes its seeded inputs under `perfbench/_work/` (removed at exit), and
drives the package through `aem.cli.main` and `DialogueModel.generate`,
in one process, one call at a time. The last stdout line is the result
object; the line before it is the full report (settings, sample counts,
tail percentiles, failures). See perfbench/README.md.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads its BLAS

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KINDS = ("seq2seq", "seq2seq_attention", "aem", "aem_attention")
GEN_TAIL = 95   # every workload makes over 200 chat calls; p99 would need 1000
SETUPS = 5      # set-ups per run; setup_s is their median
# Calibrator kernel times on a quiet 2-core host (see README)
CAL_REFERENCE_S = 0.010       # numeric kernel
CAL_PY_REFERENCE_S = 0.0035   # interpreter kernel


@dataclass(frozen=True)
class Workload:
    corpus: str         # corpora.make_corpus kind
    sizes: tuple        # and its table sizes
    n_corpus: int       # pairs the generation vocabulary is built from
    n_train: int        # leading corpus pairs that `aem train` trains on
    n_valid: int
    n_gen: int          # sources in the `aem generate` input file
    batch_size: int
    epochs: int
    hidden: int
    embed: int
    vocab_cap: int
    chat_per_kind: int  # one-source generate calls per round
    step_tail: int      # step_s_tail.aem percentile: the highest with ten of the
                        # usual sample count beyond it, fixed so runs compare
    focus: str          # per-layer metrics are per aem-family "train_step" or per "generate" call


# Three training batches per epoch, so that with equal step counts per
# batch the median and p75 step fall inside one batch's steps, not in the
# gap between two batch widths.
WORKLOADS = {
    "vocab_bound": Workload("topic", (300, 2500, 2000), n_corpus=768, n_train=768,
                            n_valid=256, n_gen=256, batch_size=256, epochs=2,
                            hidden=128, embed=64, vocab_cap=3000,
                            chat_per_kind=32, step_tail=50, focus="train_step"),
    "recurrence_bound": Workload("mapped_prefix", (396,), n_corpus=96, n_train=96,
                                 n_valid=64, n_gen=32, batch_size=32, epochs=2,
                                 hidden=128, embed=64, vocab_cap=400,
                                 chat_per_kind=32, step_tail=75, focus="train_step"),
    "generate": Workload("topic", (300, 2500, 2000), n_corpus=768, n_train=192,
                         n_valid=32, n_gen=256, batch_size=64, epochs=2,
                         hidden=128, embed=64, vocab_cap=3000,
                         chat_per_kind=16, step_tail=75, focus="generate"),
}

# --size tiny: the same flow at toy dimensions, for the smoke test
TINY = dict(n_corpus=48, n_train=32, n_valid=16, n_gen=16, batch_size=16,
            hidden=16, embed=8, chat_per_kind=2)
TINY_SIZES = {"topic": (20, 60, 80), "mapped_prefix": (40,)}


def import_package():
    """Import `aem` from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "aem" / "__init__.py").is_file():
        raise SystemExit("perfbench: no package source at %s" % (src / "aem"))
    sys.path.insert(0, str(src))
    import aem
    if Path(aem.__file__).resolve().parent != (src / "aem").resolve():
        raise SystemExit("perfbench: imported aem from %s, not %s" % (aem.__file__, src))


def percentile(values, p):
    return float(np.percentile(values, p))


def file_digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class TrainRun:
    """What the probe saw during one `aem train` call."""

    def __init__(self):
        self.steps = []        # train_step seconds
        self.tokens = 0        # real source + target tokens (EOS included) stepped on
        self.epoch_j4 = []     # per epoch, the validation batches' j4
        self._last = None

    def step(self, seconds, tokens):
        self.steps.append(seconds)
        self.tokens += tokens
        self._last = "step"

    def validation(self, j4):
        if self._last != "val":
            self.epoch_j4.append([])
        self.epoch_j4[-1].append(j4)
        self._last = "val"


class Probe:
    """Light wrappers on for every cycle: time each train_step and
    generate call, count operations, and check their outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.run = None
        self.calls = []        # seconds per train_step and generate call

    def fail(self, message):
        self.failures.append(message)

    def install(self, patches):
        import math
        import aem.data
        from aem.model import DialogueModel
        probe, clock = self, time.perf_counter
        train_step = DialogueModel.train_step
        evaluate_batch = DialogueModel.evaluate_batch
        generate = DialogueModel.generate

        def checked(kind, what, parts):
            for name in ("j1", "j2", "j3", "j4", "total"):
                if not math.isfinite(getattr(parts, name)):
                    probe.fail("%s %s: non-finite %s" % (kind, what, name))
                    return

        def probed_train_step(model, batch, adam):
            probe.attempted += 1
            t0 = clock()
            try:
                parts = train_step(model, batch, adam)
            except Exception as exc:
                probe.fail("%s train_step raised %r" % (model.kind, exc))
                raise
            seconds = clock() - t0
            probe.calls.append(seconds)
            checked(model.kind, "train_step", parts)
            if probe.run is not None:
                probe.run.step(seconds, int(batch.source_mask.sum() + batch.target_mask.sum()))
            return parts

        def probed_evaluate_batch(model, batch):
            probe.attempted += 1
            try:
                parts = evaluate_batch(model, batch)
            except Exception as exc:
                probe.fail("%s evaluate_batch raised %r" % (model.kind, exc))
                raise
            checked(model.kind, "evaluate_batch", parts)
            if probe.run is not None:
                probe.run.validation(parts.j4)
            return parts

        def probed_generate(model, sources, max_len=None):
            probe.attempted += 1
            t0 = clock()
            try:
                out = generate(model, sources, max_len=max_len)
            except Exception as exc:
                probe.fail("%s generate raised %r" % (model.kind, exc))
                raise
            probe.calls.append(clock() - t0)
            cap = model.config.max_gen_len if max_len is None else max_len
            banned = (aem.data.PAD_ID, aem.data.BOS_ID)
            ok = len(out) == len(sources) and all(
                isinstance(ids, list) and len(ids) <= cap
                and all(isinstance(i, int) and i not in banned for i in ids)
                for ids in out)
            if not ok:
                probe.fail("%s generate returned a malformed response" % model.kind)
            return out

        patches.set(DialogueModel, "train_step", probed_train_step)
        patches.set(DialogueModel, "evaluate_batch", probed_evaluate_batch)
        patches.set(DialogueModel, "generate", probed_generate)


class Bench:
    def __init__(self, workload, seed, work):
        self.w = workload
        self.seed = seed
        self.work = work
        self.probe = Probe()
        self.reference = {}        # output key -> digest of its first run
        self.log = open(work / "cli.log", "w", encoding="utf-8")
        self.calibrator = Calibrator()
        # durations as (raw seconds, slowdown), see Calibrator
        self.slowdowns = []
        self.setup_s = []
        self.train_runs = {k: [] for k in KINDS}   # (tokens, wall, slowdown)
        self.aem_steps = []
        self.final_j4 = {}
        self.latencies = []
        self.gen_runs = []                          # (tokens, seconds, slowdown)
        self.eval_s = []

    def close(self):
        self.log.close()

    # inputs ---------------------------------------------------------------

    def write_inputs(self):
        """Seeded corpus files, train manifests and untrained checkpoints."""
        import corpora
        from aem.checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
        from aem.config import RunConfig
        from aem.data import build_vocab
        from aem.model import DialogueModel

        w, work = self.w, self.work
        pairs = corpora.make_corpus(w.corpus, self.seed,
                                    w.n_corpus + w.n_valid + w.n_gen, w.sizes)
        corpus = pairs[:w.n_corpus]
        valid = pairs[w.n_corpus:w.n_corpus + w.n_valid]
        gen = pairs[w.n_corpus + w.n_valid:]
        self.corpus_path = work / "corpus.tsv"
        corpora.write_pairs(self.corpus_path, corpus)
        corpora.write_pairs(work / "train.tsv", corpus[:w.n_train])
        corpora.write_pairs(work / "valid.tsv", valid)
        self.gen_src = work / "gen_src.txt"
        self.gen_ref = work / "gen_ref.txt"
        corpora.write_lines(self.gen_src, [s for s, _ in gen])
        corpora.write_lines(self.gen_ref, [t for _, t in gen])

        self.manifest = work / "train.cfg"
        self.manifest.write_text(
            "train_path=%s\nvalid_path=%s\nhidden_size=%d\nembed_size=%d\n"
            "vocab_size=%d\nbatch_size=%d\nepochs=%d\npatience=%d\nseed=%d\n"
            % (work / "train.tsv", work / "valid.tsv", w.hidden, w.embed,
               w.vocab_cap, w.batch_size, w.epochs, w.epochs, self.seed),
            encoding="utf-8")

        self.vocab = build_vocab((side for p in corpus for side in p), max_size=w.vocab_cap)
        self.untrained, self.models = {}, {}
        for kind in KINDS:
            cfg = RunConfig(kind=kind, hidden_size=w.hidden, embed_size=w.embed,
                            vocab_size=len(self.vocab), batch_size=w.batch_size,
                            seed=self.seed).validate()
            path = work / ("untrained_%s.ckpt" % kind)
            save_checkpoint(str(path), DialogueModel(kind, cfg), self.vocab)
            self.untrained[kind] = path
            self.models[kind] = model_from_checkpoint(load_checkpoint(str(path)))
        self.chat_sources = [self.vocab.encode(s) for s, _ in gen]

    def setup_once(self):
        """Seconds from starting a fresh interpreter to the point where the
        program could make its first timed call: interpreter start, package
        imports, reading and batching the corpus, building the vocabulary
        and loading every checkpoint (see startup.py)."""
        spec = {"corpus": str(self.corpus_path), "vocab_cap": self.w.vocab_cap,
                "batch_size": self.w.batch_size, "seed": self.seed,
                "checkpoints": [str(self.untrained[kind]) for kind in KINDS]}
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, str(HERE / "startup.py"), json.dumps(spec)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise SystemExit("perfbench: set-up exited %d: %s"
                             % (out.returncode, out.stderr[-2000:]))
        child = json.loads(out.stdout.splitlines()[-1])
        if child["vocab"] != vocab_digest(self.vocab):
            self.probe.fail("set-up rebuilt a different vocabulary")
        return child["ready"] - t0

    # work units -----------------------------------------------------------

    def cli(self, argv):
        import aem.cli
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
            return aem.cli.main(argv)

    def expect(self, key, digest):
        """Every run of the same work must write the same bytes."""
        first = self.reference.setdefault(key, digest)
        if first != digest:
            self.probe.fail("%s differs from its first run" % (key,))

    def train(self, kind):
        """`aem train` once; returns (real tokens, wall seconds, aem steps)."""
        # one path for every run: checkpoints embed ckpt_dir in their config
        ckpt_dir = self.work / "train" / kind
        run = self.probe.run = TrainRun()
        try:
            t0 = time.perf_counter()
            rc = self.cli(["train", "--config", str(self.manifest),
                           "--set", "kind=" + kind, "--set", "ckpt_dir=%s" % ckpt_dir])
            wall = time.perf_counter() - t0
            self.probe.run = None
            if rc != 0:
                self.probe.fail("aem train --set kind=%s exited %d" % (kind, rc))
                return None
            j4 = [statistics.fmean(batches) for batches in run.epoch_j4]
            if len(j4) != self.w.epochs or not j4[-1] < j4[0]:
                self.probe.fail("%s validation j4 did not fall: %s" % (kind, j4))
            if j4:
                self.final_j4.setdefault(kind, j4[-1])
            self.expect(("train", kind), file_digest(
                *(ckpt_dir / f for f in ("metrics.log", "last.ckpt", "best.ckpt"))))
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        return run.tokens, wall, run.steps if kind == "aem" else []

    def generate(self, k, kind):
        """One-source chat calls, then `aem generate` and `aem evaluate` on
        the source file; returns (chat latencies, generate seconds,
        generated tokens, evaluate seconds)."""
        from aem.data import SPECIALS
        w, model = self.w, self.models[kind]
        out_dir = self.work / "gen"
        out_dir.mkdir(exist_ok=True)
        latencies, replies = [], []
        for i in range(w.chat_per_kind):
            source = self.chat_sources[(k * w.chat_per_kind + i) % len(self.chat_sources)]
            t0 = time.perf_counter()
            replies.append(model.generate([source]))
            latencies.append(time.perf_counter() - t0)
        self.expect(("chat", kind), hashlib.sha256(repr(replies).encode()).hexdigest())

        out = out_dir / ("%s.txt" % kind)
        t0 = time.perf_counter()
        rc = self.cli(["generate", "--ckpt", str(self.untrained[kind]),
                       "--in", str(self.gen_src), "--out", str(out)])
        gen_s = time.perf_counter() - t0
        if rc != 0:
            self.probe.fail("aem generate on %s exited %d" % (kind, rc))
            return latencies, None, 0, None
        tokens = [line.split() for line in out.read_text(encoding="utf-8").splitlines()]
        if len(tokens) != w.n_gen or any(
                len(t) > model.config.max_gen_len or SPECIALS[0] in t or SPECIALS[1] in t
                for t in tokens):
            self.probe.fail("aem generate on %s wrote a malformed response file" % kind)

        report = out_dir / ("%s.report" % kind)
        self.probe.attempted += 1
        t0 = time.perf_counter()
        rc = self.cli(["evaluate", "--hyp", str(out), "--ref", str(self.gen_ref),
                       "--out", str(report)])
        eval_s = time.perf_counter() - t0
        if rc != 0:
            self.probe.fail("aem evaluate on %s exited %d" % (kind, rc))
            eval_s = None
        else:
            self.expect(("generate", kind), file_digest(out, report))
        shutil.rmtree(out_dir)
        return latencies, gen_s, sum(len(t) for t in tokens), eval_s

    def round(self, k):
        """Train and then serve one kind. Every duration is kept as (raw
        seconds, slowdown), the slowdown being the median of the four
        calibration samples that bracket it; `aem evaluate`, which is pure
        Python, takes the interpreter kernel's."""
        kind = KINDS[k % len(KINDS)]
        before = self.calibrator.slowdowns()
        trained = self.train(kind)
        between = self.calibrator.slowdowns()
        latencies, gen_s, gen_tokens, eval_s = self.generate(k % len(KINDS), kind)
        after = self.calibrator.slowdowns()
        slow = statistics.median(s for s, _ in before + between)
        self.slowdowns.append(slow)
        if trained is not None:
            tokens, wall, steps = trained
            self.train_runs[kind].append((tokens, wall, slow))
            self.aem_steps += [(s, slow) for s in steps]
        slow = statistics.median(s for s, _ in between + after)
        self.latencies += [(s, slow) for s in latencies]
        if gen_s is not None:
            self.gen_runs.append((gen_tokens, gen_s, slow))
        if eval_s is not None:
            py_slow = statistics.median(p for _, p in between + after)
            self.eval_s.append((eval_s, py_slow))

    @contextlib.contextmanager
    def instrumented(self, tracer=None):
        """Probe on, and the tracer under it when given; both removed after."""
        import spans
        patches = spans.Patches()
        try:
            if tracer is not None:
                spans.install_tracer(tracer, patches)
            self.probe.install(patches)
            yield
        finally:
            patches.undo()

    # runs -----------------------------------------------------------------

    def set_up(self):
        """SETUPS set-ups, each kept with the median numeric slowdown of the
        four calibration samples that bracket it, as in `round`."""
        cal, raw = [self.calibrator.slowdowns()], []
        for _ in range(SETUPS):
            raw.append(self.setup_once())
            cal.append(self.calibrator.slowdowns())
        self.setup_s = [(s, statistics.median(x for x, _ in before + after))
                        for s, before, after in zip(raw, cal, cal[1:])]

    def measure(self, seconds):
        deadline = time.perf_counter() + seconds
        with self.instrumented():
            repeat_until(deadline, self.round, minimum=len(KINDS))
        metrics = self.end_to_end(normalized=True)
        samples = {
            "setup": len(self.setup_s),
            "rounds": len(self.slowdowns),
            "slowdown_median": statistics.median(self.slowdowns),
            "slowdown_min": min(self.slowdowns),
            "slowdown_max": max(self.slowdowns),
            "aem_train_steps": len(self.aem_steps),
            "step_s_tail.aem_percentile": self.w.step_tail,
            "step_s_tail.aem_samples_beyond": len(self.aem_steps) * (100 - self.w.step_tail) / 100,
            "train_runs_per_kind": {k: len(v) for k, v in self.train_runs.items()},
            "gen_calls_one_source": len(self.latencies),
            "gen_latency_s_tail_percentile": GEN_TAIL,
            "aem_generate_calls": len(self.gen_runs),
            "aem_evaluate_calls": len(self.eval_s),
            "raw_metrics": self.end_to_end(normalized=False),
        }
        return metrics, samples

    def end_to_end(self, normalized):
        def seconds(pairs):
            return [raw / slow if normalized else raw for raw, slow in pairs]

        def rate(runs):
            return [n / (s / slow if normalized else s) for n, s, slow in runs]

        gen_tokens = sum(n for n, _, _ in self.gen_runs)
        metrics = {
            "setup_s": statistics.median(seconds(self.setup_s)),
            "step_s_p50.aem": percentile(seconds(self.aem_steps), 50),
            "step_s_tail.aem": percentile(seconds(self.aem_steps), self.w.step_tail),
            "final_j4_mean": statistics.fmean(self.final_j4[k] for k in KINDS),
            "gen_latency_s_p50": percentile(seconds(self.latencies), 50),
            "gen_latency_s_tail": percentile(seconds(self.latencies), GEN_TAIL),
            "gen_tokens_per_s": gen_tokens / sum(seconds((s, slow) for _, s, slow in self.gen_runs)),
            "eval_s": statistics.median(seconds(self.eval_s)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for kind in KINDS:
            metrics["train_tokens_per_s." + kind] = statistics.median(rate(self.train_runs[kind]))
        return metrics

    def trace(self, seconds, spans_path):
        """Pairs of an untraced and a traced pass over every kind, so the
        traced outputs can be compared byte for byte with the untraced."""
        import spans
        summary = spans.Summary()
        steps = {False: [], True: []}
        measured = [0.0]
        if self.w.focus == "train_step":
            selected = lambda name, tag: name == "model.train_step" and tag in ("aem", "aem_attention")
        else:
            selected = lambda name, tag: name == "model.generate" and tag.endswith("/1")

        def pair(_):
            for traced in (False, True):
                tracer = spans.Tracer() if traced else None
                self.probe.calls = []
                before = len(self.aem_steps)
                with self.instrumented(tracer):
                    for k in range(len(KINDS)):
                        self.round(k)
                # scaled like the end-to-end times, so host drift between
                # the two passes does not read as tracing cost
                steps[traced] += [raw / slow for raw, slow in self.aem_steps[before:]]
                if traced:
                    measured[0] += sum(self.probe.calls)
                    summary.add(tracer, selected)
                    if not spans_path.exists():
                        tracer.write(spans_path)

        pairs = repeat_until(time.perf_counter() + seconds, pair)
        metrics = summary.metrics()
        metrics["trace.overhead_s"] = (statistics.median(steps[True])
                                       - statistics.median(steps[False]))
        # layer and op self times under the train_step and generate spans,
        # over those calls' durations as the probe measured them
        metrics["trace.accounted_frac"] = summary.claimed_s / measured[0]
        if not 0.9 <= metrics["trace.accounted_frac"] <= 1.1:
            self.probe.fail("layer and op self times cover %.3f of the measured calls"
                            % metrics["trace.accounted_frac"])
        metrics["params.num_values"] = self.models["aem"].store.num_values()
        samples = {
            "trace_pairs": pairs,
            "trace_unclaimed_frac": 1.0 - metrics["trace.accounted_frac"],
            "per_layer_roots": summary.roots,
            "aem_train_steps_untraced": len(steps[False]),
            "aem_train_steps_traced": len(steps[True]),
            "spans_file": str(spans_path.relative_to(ROOT)),
        }
        return metrics, samples


class Calibrator:
    """Two fixed kernels timed between units of work. The numeric one runs
    BLAS matmuls, small numpy ops, a Python loop and one pass over a 16 MB
    array, which tracks contention for memory bandwidth; the interpreter
    one counts n-gram tuples in dicts, the kind of work `aem evaluate` does.
    The host's speed drifts by tens of percent over seconds; durations are
    divided by the kernels' slowdowns against their reference times."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((256, 128), dtype=np.float32)
        self.w = rng.random((128, 3000), dtype=np.float32)
        self.small = rng.random((32, 128), dtype=np.float32)
        self.big = rng.random(4_000_000, dtype=np.float32)
        self.buf = np.empty_like(self.big)
        self.tokens = ["t%d" % (i * 7919 % 5000) for i in range(4000)]

    def numeric(self):
        small = self.small
        t0 = time.perf_counter()
        for _ in range(3):
            (self.a @ self.w).sum()
        y = small
        for _ in range(300):
            y = np.tanh(y * 0.5 + small)
        x = 0
        for i in range(20000):
            x += i * i
        np.exp(self.big, out=self.buf).sum()
        return time.perf_counter() - t0

    def interpreter(self):
        tokens = self.tokens
        t0 = time.perf_counter()
        for n in (1, 2, 3, 4):
            counts = {}
            for i in range(len(tokens) - n + 1):
                gram = tuple(tokens[i:i + n])
                counts[gram] = counts.get(gram, 0) + 1
        return time.perf_counter() - t0

    def slowdowns(self):
        """Two (numeric, interpreter) slowdown pairs."""
        return [(self.numeric() / CAL_REFERENCE_S, self.interpreter() / CAL_PY_REFERENCE_S)
                for _ in range(2)]


def repeat_until(deadline, fn, minimum=1):
    """Call fn(0), fn(1), ... at least `minimum` times, then while another
    call as long as the longest of the last four would end before the
    deadline. Returns the number of calls."""
    took = []
    while True:
        t0 = time.perf_counter()
        fn(len(took))
        now = time.perf_counter()
        took.append(now - t0)
        if len(took) >= minimum and now + max(took[-4:]) > deadline:
            return len(took)


def vocab_digest(vocab):
    return hashlib.sha256("\n".join(vocab.id_to_token).encode()).hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aem").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "load": "closed loop, one client, one process",
    }


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same flow at toy dimensions (smoke test)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    units = declared_metrics(args.trace)
    import_package()
    sys.path.insert(0, str(HERE))

    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = replace(workload, sizes=TINY_SIZES[workload.corpus], **TINY)
    work = HERE / "_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    bench = Bench(workload, args.seed, work)
    try:
        bench.write_inputs()
        bench.set_up()
        if args.trace:
            out = HERE / "_out"
            out.mkdir(exist_ok=True)
            spans_path = out / ("spans-%s-%d.tsv.gz" % (args.workload, args.seed))
            if spans_path.exists():
                spans_path.unlink()
            metrics, samples = bench.trace(args.seconds, spans_path)
        else:
            metrics, samples = bench.measure(args.seconds)
    finally:
        bench.close()
        shutil.rmtree(work)

    if set(metrics) != set(units):
        raise SystemExit("perfbench: emitted metrics differ from BENCHMARK.json: "
                         "missing %s, extra %s" % (sorted(set(units) - set(metrics)),
                                                   sorted(set(metrics) - set(units))))
    probe = bench.probe
    result = {
        "correct": not probe.failures,
        "attempted": probe.attempted,
        "failed": len(probe.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    report = {
        "environment": environment(args),
        "samples": samples,
        "ops_failed_frac": len(probe.failures) / max(probe.attempted, 1),
        "failures": probe.failures[:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

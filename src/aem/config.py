"""Typed run configuration parsed from flat key=value manifests.

Unknown keys are rejected so a manifest can't silently misspell a
hyperparameter. Command-line overrides reuse the same parser and win
over file values.
"""

import math
from dataclasses import dataclass, fields

MODEL_KINDS = ("seq2seq", "seq2seq_attention", "aem", "aem_attention")


@dataclass
class RunConfig:
    """Every run setting: the training hyperparameters, then the model
    kind, epoch budget and file paths. Field order is the order of
    config_to_text, and so of a checkpoint's config snapshot."""

    lambda1: float = 1.0
    lambda2: float = 0.01
    lambda3: float = 1.0
    hidden_size: int = 512
    embed_size: int = 64
    vocab_size: int = 40000
    batch_size: int = 256
    learning_rate: float = 0.002
    max_gen_len: int = 15
    detach_j3: bool = True
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    clip_norm: float = 5.0
    max_train_len: int = 50
    lowercase: bool = True
    patience: int = 3
    kind: str = "aem"
    epochs: int = 30
    train_path: str = ""
    valid_path: str = ""
    test_path: str = ""
    vocab_path: str = ""
    ckpt_dir: str = "checkpoints"

    def validate(self):
        # a nan compares false with every bound below, and an inf trains to nan
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (f.name, value))
        for name in ("lambda1", "lambda2", "lambda3"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative, got %r" % (name, getattr(self, name)))
        for name in ("hidden_size", "embed_size", "batch_size", "max_gen_len",
                     "max_train_len", "patience", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1, got %r" % (name, getattr(self, name)))
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the 4 specials, got %d" % self.vocab_size)
        for name in ("learning_rate", "clip_norm", "adam_epsilon"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive, got %r" % (name, getattr(self, name)))
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError("%s must lie in [0, 1), got %r" % (name, getattr(self, name)))
        if not self.ckpt_dir:
            raise ValueError("ckpt_dir must not be empty")
        if self.kind not in MODEL_KINDS:
            raise ValueError("unknown model kind %r, expected one of %s"
                             % (self.kind, ", ".join(MODEL_KINDS)))
        return self


def _parse_value(name, raw, typ):
    raw = raw.strip()
    if typ is bool:
        if raw in ("true", "1"):
            return True
        if raw in ("false", "0"):
            return False
        raise ValueError("%s expects true/false, got %r" % (name, raw))
    try:
        return typ(raw)
    except ValueError:
        raise ValueError("%s expects %s, got %r" % (name, typ.__name__, raw)) from None


# key -> value type, read off the defaults: dataclass field types may
# arrive as strings under deferred annotations
_FIELD_TYPES = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}


def parse_config_text(text):
    """Parse key=value lines (blank lines and # comments allowed)."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError("line %d: expected key=value, got %r" % (lineno, line))
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ValueError("line %d: duplicate key %r" % (lineno, key))
        values[key] = _parse_value(key, raw, _FIELD_TYPES[key])
    return RunConfig(**values).validate()


def load_config(path, overrides=None):
    """Read a manifest file and apply raw-string overrides on top. Errors
    in the file name it."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        cfg = parse_config_text(text)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    if overrides:
        for key, raw in overrides.items():
            if key not in _FIELD_TYPES:
                raise ValueError("unknown config key %r" % key)
            setattr(cfg, key, raw if not isinstance(raw, str)
                    else _parse_value(key, raw, _FIELD_TYPES[key]))
        cfg.validate()
    return cfg


def config_to_text(cfg):
    """Serialize in field order; parse_config_text round-trips it."""
    return "".join("%s=%s\n" % (f.name, _format(getattr(cfg, f.name)))
                   for f in fields(cfg))


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)

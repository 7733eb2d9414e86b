"""Binary model checkpoints.

Layout, all integers little-endian:

  magic "AEM1"
  u32 format version (currently 1)
  str model kind            (str = u32 byte length + UTF-8 bytes)
  str config snapshot       (key=value lines: run config + progress keys
                             epoch, adam_t, best_val, stale; a missing
                             stale reads as 0)
  u32 vocabulary entry count, then one str per non-special token in id order
  u32 array count, then per array:
      str name, u32 ndim, u32 per dimension, raw little-endian f32 values
  u32 CRC32 of every preceding byte

Optimizer state rides along as arrays named adam.m.<param> / adam.v.<param>,
so a resumed run continues exactly where the saved one stopped.

Loading is one pass: the stored arrays become the model's parameter
values (copied, so each loaded model owns its arrays) and no seeded init
is drawn. One name/shape rule, ParamStore.check_arrays, covers every
array group: the parameters, and the moments when any adam.* array is
present or the optimizer is wanted, must each name every parameter with
its shape and nothing else; an error names each entry that does not fit.

A save writes <path>.tmp, fsyncs it and renames it over <path>, so a
crash at any point leaves either the old or the new file whole.
"""

import math
import os
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, config_to_text, parse_config_text
from .data import Vocabulary
from .model import DialogueModel
from .params import CheckpointError

MAGIC = b"AEM1"
VERSION = 1
PROGRESS_KEYS = ("epoch", "adam_t", "best_val", "stale")


@dataclass
class Checkpoint:
    kind: str
    config: RunConfig
    vocab: Vocabulary
    arrays: dict
    epoch: int = 0
    adam_t: int = 0
    best_val: float = math.inf
    stale: int = 0  # epochs since best_val last improved (early stopping)

    def __post_init__(self):
        # the embedding and output tables have config.vocab_size rows
        if len(self.vocab) != self.config.vocab_size:
            raise CheckpointError("vocabulary has %d entries but the model was built for %d"
                                  % (len(self.vocab), self.config.vocab_size))


def _write_str(out, text):
    data = text.encode("utf-8")
    out.append(struct.pack("<I", len(data)))
    out.append(data)


def checkpoint_bytes(ckpt):
    out = [MAGIC, struct.pack("<I", VERSION)]
    _write_str(out, ckpt.kind)
    snapshot = config_to_text(ckpt.config)
    snapshot += "epoch=%d\nadam_t=%d\nbest_val=%s\nstale=%d\n" % (
        ckpt.epoch, ckpt.adam_t, repr(ckpt.best_val), ckpt.stale)
    _write_str(out, snapshot)
    entries = ckpt.vocab.id_to_token[4:]
    out.append(struct.pack("<I", len(entries)))
    for token in entries:
        _write_str(out, token)
    out.append(struct.pack("<I", len(ckpt.arrays)))
    for name in sorted(ckpt.arrays):
        values = ckpt.arrays[name]
        if values.dtype != np.float32:
            raise CheckpointError("array %s has dtype %s; checkpoints store float32"
                                  % (name, values.dtype))
        _write_str(out, name)
        out.append(struct.pack("<I", values.ndim))
        out.append(struct.pack("<%dI" % values.ndim, *values.shape))
        out.append(np.ascontiguousarray(values, dtype="<f4").tobytes())
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def text(self):
        return self.take(self.u32()).decode("utf-8")


def parse_checkpoint(data):
    if len(data) < 12:
        raise CheckpointError("truncated checkpoint")
    body, stored = data[:-4], struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(body) != stored:
        raise CheckpointError("checksum mismatch")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError("unsupported format version %d" % version)
    kind = r.text()

    progress = {"epoch": 0, "adam_t": 0, "best_val": math.inf, "stale": 0}
    config_lines = []
    for line in r.text().splitlines():
        key = line.split("=", 1)[0]
        if key in PROGRESS_KEYS:
            raw = line.split("=", 1)[1]
            progress[key] = float(raw) if key == "best_val" else int(raw)
        else:
            config_lines.append(line)
    config = parse_config_text("\n".join(config_lines))
    if config.kind != kind:
        raise CheckpointError("kind tag %r disagrees with config kind %r"
                              % (kind, config.kind))

    vocab = Vocabulary(r.text() for _ in range(r.u32()))
    arrays = {}
    for _ in range(r.u32()):
        name = r.text()
        shape = tuple(r.u32() for _ in range(r.u32()))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = r.take(4 * count)
        arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if r.pos != len(body):
        raise CheckpointError("trailing bytes after the last array")
    return Checkpoint(kind, config, vocab, arrays, **progress)


def save_checkpoint(path, model, vocab, adam=None, epoch=0, best_val=math.inf, stale=0):
    """Serialize a model (and optionally its optimizer) to one file."""
    arrays = {name: p.values for name, p in model.store.items()}
    adam_t = 0
    if adam is not None:
        adam_t = adam.t
        for name in model.store.names():
            arrays["adam.m." + name] = adam.m[name]
            arrays["adam.v." + name] = adam.v[name]
    config = replace(model.config, kind=model.kind)
    ckpt = Checkpoint(model.kind, config, vocab, arrays,
                      epoch=epoch, adam_t=adam_t, best_val=best_val, stale=stale)
    data = checkpoint_bytes(ckpt)
    tmp = "%s.tmp" % path
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read and parse one checkpoint file; errors name the file."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return parse_checkpoint(data)
    except ValueError as exc:
        raise CheckpointError("%s: %s" % (path, exc)) from exc


def model_from_checkpoint(ckpt, expected_kind=None, with_optimizer=False):
    """Rebuild the model (and optimizer when asked) from a checkpoint. The
    stored arrays become the parameters and moments; nothing is drawn."""
    if expected_kind is not None and ckpt.kind != expected_kind:
        raise CheckpointError("checkpoint holds a %r model, expected %r"
                              % (ckpt.kind, expected_kind))
    model = DialogueModel(ckpt.kind, ckpt.config, values=ckpt.arrays)
    prefixes = ("",)
    if with_optimizer or any(n.startswith("adam.") for n in ckpt.arrays):
        prefixes += ("adam.m.", "adam.v.")
    model.store.check_arrays(ckpt.arrays, prefixes)
    if not with_optimizer:
        return model
    adam = model.make_optimizer()
    for name in model.store.names():
        adam.m[name][...] = ckpt.arrays["adam.m." + name]
        adam.v[name][...] = ckpt.arrays["adam.v." + name]
    adam.t = ckpt.adam_t
    return model, adam

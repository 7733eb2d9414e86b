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

A save writes <path>.tmp, fsyncs it and renames it over <path>
(`atomic_write`, which the CLI's metrics.log trim uses too), so a crash
at any point leaves either the old or the new file whole. `atomic_link`
puts a second name on a saved file the same way, by a rename, so no
checkpoint is ever edited in place. The write streams: header bytes and
a byte view of each array go to the file one piece at a time, with the
CRC updated piece by piece, so a save copies no array and builds no
buffer the size of the file.
checkpoint_bytes joins the same pieces. Parsing reads the file's bytes
in place: the CRC runs over a memoryview of the body, and each parsed
array is a read-only view of them, so a load holds the file once and
each array is copied once, into the model that takes it.
"""

import math
import os
import struct
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, _parse_value, config_to_text, parse_config_text
from .data import Vocabulary
from .model import DialogueModel
from .params import CheckpointError

MAGIC = b"AEM1"
VERSION = 1


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


_U32 = struct.Struct("<I")


def _str_bytes(text):
    data = text.encode("utf-8")
    return _U32.pack(len(data)) + data


def _pieces(ckpt):
    """The file up to its CRC: joined header bytes between the arrays, and
    each array's values as a byte memoryview of the array itself."""
    snapshot = config_to_text(ckpt.config)
    snapshot += "epoch=%d\nadam_t=%d\nbest_val=%s\nstale=%d\n" % (
        ckpt.epoch, ckpt.adam_t, repr(ckpt.best_val), ckpt.stale)
    entries = ckpt.vocab.id_to_token[4:]
    head = [MAGIC, _U32.pack(VERSION), _str_bytes(ckpt.kind), _str_bytes(snapshot),
            _U32.pack(len(entries))]
    head += [_str_bytes(token) for token in entries]
    head.append(_U32.pack(len(ckpt.arrays)))
    pieces = []
    for name in sorted(ckpt.arrays):
        values = ckpt.arrays[name]
        if values.dtype != np.float32:
            raise CheckpointError("array %s has dtype %s; checkpoints store float32"
                                  % (name, values.dtype))
        head += [_str_bytes(name), struct.pack("<%dI" % (values.ndim + 1), values.ndim,
                                               *values.shape)]
        pieces.append(b"".join(head))
        head = []
        flat = np.ascontiguousarray(values, dtype="<f4").reshape(-1)
        pieces.append(memoryview(flat).cast("B"))
    pieces.append(b"".join(head))
    return pieces


def checkpoint_bytes(ckpt):
    body = b"".join(_pieces(ckpt))
    return body + _U32.pack(zlib.crc32(body))


class _Reader:
    """Bounds-checked reads from the body of a file's bytes, data[:end]."""

    def __init__(self, data, end):
        self.data = data
        self.end = end
        self.pos = 0

    def skip(self, n):
        """Step over n bytes and return the offset they start at."""
        start = self.pos
        if start + n > self.end:
            raise CheckpointError("truncated checkpoint")
        self.pos = start + n
        return start

    def u32s(self, count):
        return struct.unpack_from("<%dI" % count, self.data, self.skip(4 * count))

    def u32(self):
        return self.u32s(1)[0]

    def texts(self, count):
        """`count` strings, each a u32 byte length and UTF-8 bytes."""
        data, pos, end = self.data, self.pos, self.end
        out = []
        for _ in range(count):
            if pos + 4 > end:
                raise CheckpointError("truncated checkpoint")
            start = pos + 4
            pos = start + _U32.unpack_from(data, pos)[0]
            if pos > end:
                raise CheckpointError("truncated checkpoint")
            out.append(str(data[start:pos], "utf-8"))
        self.pos = pos
        return out

    def text(self):
        return self.texts(1)[0]

    def array(self, shape):
        """float32 values of `shape`: a read-only view of the file bytes."""
        count = math.prod(shape)
        start = self.skip(4 * count)
        return np.frombuffer(self.data, "<f4", count, start).reshape(shape)


def parse_checkpoint(data):
    if len(data) < 12:
        raise CheckpointError("truncated checkpoint")
    end = len(data) - 4
    if zlib.crc32(memoryview(data)[:end]) != _U32.unpack_from(data, end)[0]:
        raise CheckpointError("checksum mismatch")
    if data[:4] != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    r = _Reader(data, end)
    r.skip(4)
    version = r.u32()
    if version != VERSION:
        raise CheckpointError("unsupported format version %d" % version)
    kind = r.text()

    progress = {"epoch": 0, "adam_t": 0, "best_val": math.inf, "stale": 0}
    config_lines = []
    snapshot = r.text()
    try:
        for line in snapshot.splitlines():
            key, sep, raw = line.partition("=")
            if sep and key in progress:
                progress[key] = _parse_value(key, raw, type(progress[key]))
                line = ""  # config errors keep the snapshot's line numbers
            config_lines.append(line)
        config = parse_config_text("\n".join(config_lines))
    except ValueError as exc:
        raise CheckpointError("config snapshot: %s" % exc) from None
    if config.kind != kind:
        raise CheckpointError("kind tag %r disagrees with config kind %r"
                              % (kind, config.kind))

    tokens = r.texts(r.u32())
    try:
        vocab = Vocabulary(tokens, duplicate="vocabulary entry %d: duplicate token %r")
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    arrays = {}
    for _ in range(r.u32()):
        name = r.text()
        if name in arrays:
            raise CheckpointError("array %s appears twice" % name)
        arrays[name] = r.array(r.u32s(r.u32()))
    if r.pos != end:
        raise CheckpointError("trailing bytes after the last array")
    return Checkpoint(kind, config, vocab, arrays, **progress)


def save_checkpoint(path, model, vocab, adam=None, epoch=0, best_val=math.inf, stale=0):
    """Serialize a model (and optionally its optimizer) to one file, piece
    by piece: no buffer the size of the file is built."""
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
    pieces = _pieces(ckpt)
    with atomic_write(path) as f:
        crc = 0
        for piece in pieces:
            f.write(piece)
            crc = zlib.crc32(piece, crc)
        f.write(_U32.pack(crc))


def _remove(path):
    with suppress(FileNotFoundError):
        os.remove(path)


@contextmanager
def atomic_write(path):
    """A binary file whose bytes replace `path` whole: they go to a new
    <path>.tmp, which is flushed, fsynced and renamed over `path` when the
    block ends. A <path>.tmp left by a killed run is removed first, never
    written through: it may be a link to another checkpoint. If anything
    raises, the temp file is removed and `path` keeps its previous bytes."""
    tmp = "%s.tmp" % path
    try:
        _remove(tmp)
        with open(tmp, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        _remove(tmp)
        raise


def atomic_link(src, path):
    """Make `path` a hard link to the file `src`, replacing `path` whole:
    <path>.tmp is linked to `src`, then renamed over `path`. Returns False,
    with `path` untouched, where the filesystem refuses the link. The two
    names then share one file, so it must be replaced, never edited in
    place."""
    tmp = "%s.tmp" % path
    _remove(tmp)
    try:
        os.link(src, tmp)
    except OSError:
        return False
    try:
        os.replace(tmp, path)
    finally:
        # rename(2) leaves both names when they already link one file
        _remove(tmp)
    return True


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

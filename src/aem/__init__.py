"""Dialogue response generation by auto-encoder matching.

Two LSTM sequence auto-encoders learn utterance representations for
the source and target sides of a dialogue corpus; an MLP maps the
source representation onto the target side, and the target decoder
realizes the mapped representation as a response. A plain
encoder-decoder (optionally with multiplicative attention) is included
as the baseline, along with BLEU / distinct-n / G-Score evaluation and
a training CLI. Everything runs on the numpy reverse-mode autodiff
core in `aem.autograd`.
"""

from .autograd import Tape, Tensor, backward, detach
from .checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                         model_from_checkpoint, save_checkpoint)
from .config import MODEL_KINDS, RunConfig, TrainingConfig, load_config
from .data import (Batch, DialoguePair, Vocabulary, build_vocab, encode_pairs,
                   load_corpus, make_batches, pairs_to_batch, tokenize)
from .gradcheck import check_gradients
from .metrics import (averaged_sentence_bleu, corpus_bleu, distinct_ngrams,
                      diversity, eval_report, format_report, g_score,
                      pearson, sentence_bleu)
from .model import DialogueModel, LossBreakdown, build_baseline, total_loss
from .optim import Adam, clip_grad_norm
from .params import ParamStore, uniform_init
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"

__all__ = [
    "Adam", "Batch", "Checkpoint", "CheckpointError", "DialogueModel",
    "DialoguePair", "LossBreakdown", "MODEL_KINDS", "ParamStore", "RunConfig",
    "SplitMix64", "Tape", "Tensor", "TrainingConfig",
    "Vocabulary", "averaged_sentence_bleu", "backward", "build_baseline",
    "build_vocab", "check_gradients", "clip_grad_norm", "corpus_bleu",
    "derive_seed", "detach", "distinct_ngrams", "diversity", "encode_pairs",
    "eval_report", "format_report", "g_score", "load_checkpoint",
    "load_config", "load_corpus", "make_batches", "model_from_checkpoint",
    "pairs_to_batch", "pearson", "save_checkpoint", "sentence_bleu",
    "tokenize", "total_loss", "uniform_init",
]

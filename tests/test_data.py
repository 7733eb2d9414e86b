import re

import numpy as np
import pytest

from aem.data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    DialoguePair,
    Vocabulary,
    build_vocab,
    encode_pairs,
    load_corpus,
    make_batches,
    pairs_to_batch,
    tokenize,
)


def test_tokenize_whitespace_split():
    assert tokenize("How are you?") == ["how", "are", "you?"]
    assert tokenize("  a   b ") == ["a", "b"]
    assert tokenize("") == []


def test_tokenize_keeps_case_when_asked():
    assert tokenize("How ARE you", lowercase=False) == ["How", "ARE", "you"]


def test_build_vocab_frequency_cut():
    vocab = build_vocab([["a", "a", "b"]], max_size=5)
    assert len(vocab) == 5
    assert vocab.token_to_id["a"] == 4
    assert vocab.encode(["b"]) == [UNK_ID]


def test_build_vocab_tie_breaks_lexicographic():
    vocab = build_vocab([["c", "b", "b", "c"]], max_size=6)
    assert vocab.token_to_id["b"] < vocab.token_to_id["c"]


def test_build_vocab_rejects_tiny_max_size():
    with pytest.raises(ValueError):
        build_vocab([["a"]], max_size=4)
    with pytest.raises(ValueError):
        build_vocab([], max_size=10)


def test_build_vocab_does_not_count_specials():
    vocab = build_vocab([["hello", "<unk>"], ["<unk>"], ["<pad>", "<eos>"]], max_size=10)
    assert vocab.id_to_token == ["<pad>", "<bos>", "<eos>", "<unk>", "hello"]
    assert vocab.encode(["<unk>", "hello"]) == [UNK_ID, 4]


def test_vocab_round_trip():
    vocab = build_vocab([["x", "y", "z", "x"]], max_size=10)
    tokens = ["x", "z", "y"]
    assert vocab.decode(vocab.encode(tokens)) == tokens


def test_vocab_duplicate_names_the_token():
    with pytest.raises(ValueError, match="^line 3: duplicate token 'a' in vocabulary$"):
        Vocabulary(["a", "b", "a"])


def test_vocab_load_duplicate_names_file_line_and_token(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("a\nb\n<unk>\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^%s line 3: duplicate token '<unk>' in vocabulary$"
                       % re.escape(str(p))):
        Vocabulary.load(p)


@pytest.mark.parametrize("text, lineno, token",
                         [("a\n\nb\n", 2, ""), ("a\n b\n", 2, " b"), ("a\tb\nc\n", 1, "a\tb")],
                         ids=["empty", "leading-space", "tab"])
def test_vocab_load_refuses_empty_or_whitespace_token_naming_file_and_line(tmp_path, text,
                                                                          lineno, token):
    p = tmp_path / "vocab.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        Vocabulary.load(p)
    assert str(info.value) == "%s line %d: %r is empty or holds whitespace" % (p, lineno, token)


def test_vocab_load_refuses_upper_case_only_under_lowercase(tmp_path):
    # lowercase tokenization never yields 'Hello': listed, it would leave
    # 'hello' encoding to <unk>
    p = tmp_path / "vocab.txt"
    p.write_text("there\nHello\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        Vocabulary.load(p)
    assert str(info.value) == ("%s line 2: 'Hello' is not lower case, and lowercase = true "
                               "never yields it" % p)
    kept = Vocabulary.load(p, lowercase=False)
    assert kept.encode(tokenize("Hello there", lowercase=False)) == [5, 4]


def test_vocab_load_reads_crlf_lines_as_their_tokens(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_bytes(b"a\r\nb\r\n")
    assert Vocabulary.load(p).id_to_token[4:] == ["a", "b"]


def test_vocab_save_load_identical(tmp_path):
    vocab = build_vocab([["b", "a", "a", "c"]], max_size=7)
    p = tmp_path / "vocab.txt"
    with open(p, "wb") as f:
        vocab.save(f)
    again = Vocabulary.load(p)
    assert again.id_to_token == vocab.id_to_token
    with open(tmp_path / "v2.txt", "wb") as f:
        again.save(f)
    assert (tmp_path / "v2.txt").read_bytes() == p.read_bytes() == b"a\nb\nc\n"


def test_load_corpus_basic(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("hello\thi there\nHow are you\tfine\n", encoding="utf-8")
    pairs = load_corpus(p)
    assert pairs[0] == DialoguePair(["hello"], ["hi", "there"])
    assert pairs[1].source == ["how", "are", "you"]


def test_load_corpus_keeps_case_when_asked(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("Hello There\tHi\n", encoding="utf-8")
    assert load_corpus(p, lowercase=False) == [DialoguePair(["Hello", "There"], ["Hi"])]


def test_load_corpus_rejects_wrong_tab_count(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\tb\tc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_corpus(p)
    p.write_text("a b c\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_corpus(p)


def test_load_corpus_skips_empty_sides(tmp_path, caplog):
    p = tmp_path / "gappy.tsv"
    p.write_text("a\tb\n\tb\na\t\nc\td\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        pairs = load_corpus(p)
    assert [pr.source for pr in pairs] == [["a"], ["c"]]
    assert "2" in caplog.text


def test_load_corpus_empty_file(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("", encoding="utf-8")
    assert load_corpus(p) == []


def test_encode_pairs_maps_unknowns():
    vocab = build_vocab([["a", "b"]], max_size=6)
    out = encode_pairs([DialoguePair(["a", "zzz"], ["b"])], vocab)
    assert out[0].source == [vocab.token_to_id["a"], UNK_ID]


@pytest.mark.parametrize("pair, message", [
    (DialoguePair([], ["b"]), "empty side in pair"),
    (DialoguePair(["a"], []), "empty side in pair"),
    (DialoguePair(["a", "<eos>"], ["b"]), "reserved id inside a pair body"),
    (DialoguePair(["a"], ["<pad>"]), "reserved id inside a pair body"),
], ids=["empty_source", "empty_target", "eos_in_source", "pad_in_target"])
def test_encode_pairs_refuses_empty_side_and_reserved_id(pair, message):
    vocab = build_vocab([["a", "b"]], max_size=6)
    with pytest.raises(ValueError, match=message):
        encode_pairs([pair], vocab)


def make_encoded(n, src_len=3, tgt_len=2):
    return [
        DialoguePair([4 + (i + j) % 3 for j in range(src_len)], [4 + i % 3] * tgt_len)
        for i in range(n)
    ]


def test_batch_shapes_and_padding():
    pairs = [DialoguePair([4, 5], [6]), DialoguePair([4], [5, 6, 7])]
    b = pairs_to_batch(pairs)
    np.testing.assert_array_equal(b.source, [[4, 5, EOS_ID], [4, EOS_ID, PAD_ID]])
    np.testing.assert_array_equal(b.source_mask, [[1, 1, 1], [1, 1, 0]])
    np.testing.assert_array_equal(b.target, [[6, EOS_ID, PAD_ID, PAD_ID], [5, 6, 7, EOS_ID]])
    np.testing.assert_array_equal(b.target_mask.sum(axis=1), [2, 4])


def test_batch_truncates_long_sides():
    pairs = [DialoguePair(list(range(4, 64)), [4])]
    b = pairs_to_batch(pairs, max_len=50)
    assert b.source.shape[1] == 51
    assert b.source[0, 50] == EOS_ID
    assert b.source_mask[0].sum() == 51


def test_make_batches_sizes():
    batches = make_batches(make_encoded(3), batch_size=2, seed=1)
    assert sorted(len(b) for b in batches) == [1, 2]


def test_make_batches_same_seed_identical():
    pairs = make_encoded(10, src_len=2)
    a = make_batches(pairs, batch_size=3, seed=5, epoch=2)
    b = make_batches(pairs, batch_size=3, seed=5, epoch=2)
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.source, y.source)
        np.testing.assert_array_equal(x.target, y.target)


def test_make_batches_epoch_changes_order():
    pairs = [DialoguePair([4 + i % 5], [4]) for i in range(40)]
    a = make_batches(pairs, batch_size=8, seed=5, epoch=0)
    b = make_batches(pairs, batch_size=8, seed=5, epoch=1)
    assert any(
        not np.array_equal(x.source, y.source) for x, y in zip(a, b)
    )


def test_make_batches_covers_every_pair_once():
    pairs = make_encoded(11)
    batches = make_batches(pairs, batch_size=4, seed=0)
    seen = sorted(
        tuple(row[m == 1][:-1]) for b in batches for row, m in zip(b.source, b.source_mask)
    )
    want = sorted(tuple(p.source) for p in pairs)
    assert seen == want


def test_make_batches_buckets_by_source_length():
    # lengths 1 and 9 mixed; bucketing should keep most batches single-width
    pairs = [DialoguePair([4] * (1 if i < 8 else 9), [4]) for i in range(16)]
    batches = make_batches(pairs, batch_size=8, seed=3)
    widths = sorted(b.source.shape[1] for b in batches)
    assert widths == [2, 10]


def test_make_batches_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        make_batches(make_encoded(2), batch_size=0)


def test_make_batches_empty():
    assert make_batches([], batch_size=4) == []

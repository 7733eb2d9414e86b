import re

import pytest

from aem.config import RunConfig, config_to_text, load_config, parse_config_text


def test_defaults():
    cfg = RunConfig()
    assert (cfg.lambda1, cfg.lambda2, cfg.lambda3) == (1.0, 0.01, 1.0)
    assert (cfg.hidden_size, cfg.embed_size, cfg.vocab_size) == (512, 64, 40000)
    assert (cfg.batch_size, cfg.learning_rate, cfg.max_gen_len) == (256, 0.002, 15)
    assert cfg.detach_j3 is True


def test_parse_overrides_defaults():
    cfg = parse_config_text("hidden_size = 32\nlambda2=0.5\ndetach_j3=false\nkind=seq2seq\n")
    assert cfg.hidden_size == 32
    assert cfg.lambda2 == 0.5
    assert cfg.detach_j3 is False
    assert cfg.kind == "seq2seq"
    assert cfg.embed_size == 64


def test_parse_skips_comments_and_blanks():
    cfg = parse_config_text("# a manifest\n\nseed=9\n")
    assert cfg.seed == 9


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("hiden_size=32\n")


def test_load_config_errors_name_the_manifest(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed=1\nfoo=2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^%s: line 2: unknown key 'foo'$" % re.escape(str(p))):
        load_config(p)


def test_parse_rejects_duplicate_and_bad_value():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_text("seed=1\nseed=2\n")
    with pytest.raises(ValueError, match="expects int"):
        parse_config_text("seed=abc\n")
    with pytest.raises(ValueError, match="true/false"):
        parse_config_text("detach_j3=yes\n")


def test_negative_lambda_rejected():
    with pytest.raises(ValueError, match="lambda2"):
        parse_config_text("lambda2=-0.1\n")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        parse_config_text("kind=transformer\n")


def test_round_trip_text():
    cfg = parse_config_text("hidden_size=48\nlearning_rate=0.0005\nkind=aem_attention\n")
    again = parse_config_text(config_to_text(cfg))
    assert again == cfg


def test_load_config_with_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("hidden_size=32\nseed=1\n", encoding="utf-8")
    cfg = load_config(p, overrides={"seed": "7", "epochs": 2})
    assert cfg.hidden_size == 32
    assert cfg.seed == 7
    assert cfg.epochs == 2
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(p, overrides={"sneed": "7"})


def test_validate_bounds():
    with pytest.raises(ValueError):
        RunConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        RunConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        RunConfig(adam_beta1=1.0).validate()
    with pytest.raises(ValueError):
        RunConfig(vocab_size=4).validate()


def test_empty_ckpt_dir_is_refused_by_name(tmp_path):
    manifest = tmp_path / "run.cfg"
    manifest.write_text("epochs=2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^ckpt_dir must not be empty$"):
        load_config(str(manifest), {"ckpt_dir": ""})
    with pytest.raises(ValueError, match="ckpt_dir"):
        RunConfig(ckpt_dir="").validate()


FLOAT_KEYS = [name for name, value in vars(RunConfig()).items() if isinstance(value, float)]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_refused_by_name(tmp_path, key, raw):
    manifest = tmp_path / "run.cfg"
    manifest.write_text("%s=%s\n" % (key, raw), encoding="utf-8")
    with pytest.raises(ValueError, match="^%s: %s must be finite, got %s$"
                       % (re.escape(str(manifest)), key, raw)):
        load_config(str(manifest))
    manifest.write_text("epochs=2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^%s must be finite, got %s$" % (key, raw)):
        load_config(str(manifest), {key: raw})

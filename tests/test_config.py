import dataclasses
import glob
import os

import pytest

from minit5.config import SECTIONS, RunConfig, load_run_config, parse_config_file

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_committed_example_configs_all_load():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
    assert len(paths) >= 6
    for path in paths:
        cfg = load_run_config(path)
        assert cfg.task in ("pretrain", "similarity", "entailment", "ner")


def test_recipe_defaults_materialized():
    by_name = {os.path.basename(p): load_run_config(p)
               for p in glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))}
    pre = by_name["pretrain-denoise.cfg"]
    assert (pre.optimizer, pre.lr, pre.max_epochs, pre.mask_rate,
            pre.seq_len) == ("adafactor", 0.003, 4, 0.15, 512)
    sim = by_name["assin-similarity-linear.cfg"]
    assert (sim.optimizer, sim.lr, sim.patience, sim.seq_len) == \
        ("radam", 1e-4, 5, 128)
    ent = by_name["assin-entailment.cfg"]
    assert ent.patience == 10
    gen = by_name["assin-similarity-generate.cfg"]
    assert gen.output_strategy == "generate"
    assert gen.gen_max_tokens == 5
    ner = by_name["harem-ner.cfg"]
    assert (ner.optimizer, ner.lr, ner.batch_size, ner.grad_accum_steps,
            ner.beam_width, ner.label_language) == \
        ("adamw", 2e-4, 2, 4, 5, "pt")
    emb = by_name["pretrain-embeddings-only.cfg"]
    assert emb.embeddings_only


def test_task_defaults_fill_in(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("[run]\ntask = entailment\n", encoding="utf-8")
    cfg = load_run_config(path)
    assert cfg.optimizer == "radam"
    assert cfg.lr == 1e-4
    assert cfg.patience == 10
    assert cfg.seq_len == 128


def test_overrides_win(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("[run]\ntask = pretrain\nseed = 3\n", encoding="utf-8")
    cfg = load_run_config(path, {"seed": 9, "deterministic": True})
    assert cfg.seed == 9
    assert cfg.deterministic


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("task = pretrain\n", encoding="utf-8")
    with pytest.raises(ValueError, match="section"):
        parse_config_file(bad)
    bad.write_text("[run]\ntask pretrain\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_file(bad)
    bad.write_text("[run]\ntask = pretrain\n[bogus]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config section"):
        load_run_config(bad)


def test_invalid_values_rejected():
    with pytest.raises(ValueError, match="task"):
        RunConfig(task="paint", optimizer="adamw", lr=1e-3, batch_size=1,
                  max_epochs=1)
    with pytest.raises(ValueError, match="optimizer"):
        RunConfig(task="ner", optimizer="sgd", lr=1e-3, batch_size=1,
                  max_epochs=1)


@pytest.mark.parametrize("text,lineno", [
    ("[run]\ntask = pretrain\nseed = 1\nseed = 2\n", 4),
    ("[run]\ntask = pretrain\nseed = 1\n[model]\nd_model = 8\n[run]\nseed = 2\n", 7),
])
def test_a_key_set_twice_in_a_section_names_file_and_line(tmp_path, text, lineno):
    from minit5.cli import main
    path = tmp_path / "twice.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"twice.cfg:{lineno}: 'seed' set twice in \\[run\\]"):
        parse_config_file(path)
    assert main(["--config", str(path), "pretrain"]) == 1


def test_every_run_config_field_has_exactly_one_section_key():
    targets = [field for keys in SECTIONS.values() for field in keys.values()]
    assert sorted(targets) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_every_field_round_trips_through_a_config_file(tmp_path):
    want = RunConfig(task="similarity", optimizer="adamw", lr=2.5e-4, batch_size=3,
                     grad_accum_steps=2, max_epochs=7, patience=0, seed=11,
                     deterministic=True, embeddings_only=True,
                     output_strategy="generate", mask_rate=0.3, seq_len=40,
                     beam_width=2, gen_max_tokens=6, label_language="en",
                     strip_accents=True, ner_window=10, ner_stride=3, d_model=12,
                     n_heads=3, d_ff=20, n_enc_layers=0, n_dec_layers=3,
                     position_scheme="relative-bucket", tie_embeddings=False,
                     vocab_path="v.tsv", train_path="a/train.tsv", val_path="val.tsv",
                     test_path="test.tsv", corpus_path="c.txt", out_dir="out/x",
                     init_checkpoint="ck.bin")
    default = RunConfig(task="similarity", optimizer="radam", lr=1e-4, batch_size=32,
                        max_epochs=50)
    assert all(getattr(want, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(RunConfig) if f.name != "task")
    lines = []
    for section, keys in SECTIONS.items():
        lines.append(f"[{section}]")
        for key, field in keys.items():
            value = getattr(want, field)
            lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
    path = tmp_path / "all.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_run_config(path) == want


@pytest.mark.parametrize("section,key", [("run", "d_model"), ("model", "seed"),
                                         ("paths", "vocab_path"), ("run", "vocab")])
def test_a_key_of_another_section_is_unknown(tmp_path, section, key):
    path = tmp_path / "wrong.cfg"
    path.write_text(f"[run]\ntask = pretrain\n[{section}]\n{key} = 8\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"unknown key '{key}' in \\[{section}\\]"):
        load_run_config(path)

import os
import random
import subprocess
import sys

import pytest

from minit5.cli import main
from minit5.corruption import read_pair_cache
from minit5.unigram import UnigramVocab, train_vocab

WORDS = ["casa", "gato", "azul", "verde", "sol", "mar", "rio", "dia"]


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def make_corpus_file(tmp_path, n=40, seed=3):
    rng = random.Random(seed)
    docs = []
    for _ in range(n):
        phrase = [rng.choice(WORDS) for _ in range(3)]
        docs.append(" ".join(" ".join(phrase) for _ in range(rng.randrange(3, 6))))
    path = tmp_path / "sentences.txt"
    write(path, "\n".join(docs) + "\n")
    return str(path)


class TestPreprocess:
    def test_pack_and_stats(self, tmp_path):
        write(tmp_path / "a.txt", "SÃ£o Paulo Ã© grande. Tem gente. Fim aqui.\n")
        write(tmp_path / "b.txt", "Outro documento. Com duas frases.\n")
        out = tmp_path / "packed.txt"
        stats = tmp_path / "stats.txt"
        rc = main(["preprocess", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                   "--output", str(out), "--stats", str(stats),
                   "--max-words", "4"])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert all(len(l.split()) <= 4 for l in lines)
        assert "São Paulo é grande." in " ".join(lines)
        report = stats.read_text(encoding="utf-8")
        assert report.startswith("n_documents=")
        assert "mean_words=" in report

    def test_blank_input_is_data_error_and_writes_nothing(self, tmp_path, capsys):
        write(tmp_path / "a.txt", "\n  \n")
        out, stats = tmp_path / "packed.txt", tmp_path / "stats.txt"
        rc = main(["preprocess", str(tmp_path / "a.txt"), "--output", str(out),
                   "--stats", str(stats)])
        assert rc == 2
        assert "no documents produced" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_line_mode(self, tmp_path):
        write(tmp_path / "a.txt", "Primeira linha aqui.\nSegunda linha aqui.\n")
        out = tmp_path / "packed.txt"
        rc = main(["preprocess", str(tmp_path / "a.txt"), "--line-mode",
                   "--output", str(out), "--stats", str(tmp_path / "s.txt")])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2


class TestVocabAndData:
    def test_train_vocab_and_cache(self, tmp_path, capsys):
        corpus = make_corpus_file(tmp_path)
        vocab_path = tmp_path / "vocab.tsv"
        rc = main(["train-vocab", "--corpus", corpus, "--output",
                   str(vocab_path), "--vocab-size", "60"])
        assert rc == 0
        vocab = UnigramVocab.load(vocab_path)
        assert len(vocab) == 60
        cache = tmp_path / "pairs.bin"
        rc = main(["make-pretrain-data", "--vocab", str(vocab_path),
                   "--corpus", corpus, "--output", str(cache),
                   "--max-len", "64", "--data-seed", "5"])
        assert rc == 0
        pairs, max_len = read_pair_cache(cache)
        assert max_len == 64
        assert len(pairs) == 40


def pipeline_files(tmp_path):
    corpus = make_corpus_file(tmp_path)
    vocab_path = str(tmp_path / "vocab.tsv")
    assert main(["train-vocab", "--corpus", corpus, "--output", vocab_path,
                 "--vocab-size", "60"]) == 0
    packed = str(tmp_path / "packed.txt")
    assert main(["preprocess", corpus, "--line-mode", "--output", packed,
                 "--stats", str(tmp_path / "st.txt"), "--max-words", "40"]) == 0
    return corpus, vocab_path, packed


def pretrain_config_text(vocab_path, packed, out_dir):
    return f"""
# tiny pretraining run
[run]
task = pretrain
max_epochs = 2
batch_size = 4
seq_len = 64
seed = 0
deterministic = true

[model]
d_model = 32
n_heads = 2
d_ff = 64
n_enc_layers = 1
n_dec_layers = 1

[paths]
vocab = {vocab_path}
corpus = {packed}
out_dir = {out_dir}
"""


class TestPipelineCommands:
    def test_pretrain_then_rerun_byte_identical(self, tmp_path):
        _, vocab_path, packed = pipeline_files(tmp_path)
        cfg1 = tmp_path / "p1.cfg"
        cfg2 = tmp_path / "p2.cfg"
        write(cfg1, pretrain_config_text(vocab_path, packed, tmp_path / "o1"))
        write(cfg2, pretrain_config_text(vocab_path, packed, tmp_path / "o2"))
        assert main(["--config", str(cfg1), "pretrain"]) == 0
        assert main(["--config", str(cfg2), "pretrain"]) == 0
        for name in ("checkpoint.bin", "train_log.tsv", "curve.tsv"):
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b, name

    def test_pretrain_summary_prints_the_logged_loss(self, tmp_path, capsys):
        """The closing line prints the last epoch's train loss by the value
        rule of train_log.tsv, so the two read the same."""
        _, vocab_path, packed = pipeline_files(tmp_path)
        cfg = tmp_path / "p.cfg"
        write(cfg, pretrain_config_text(vocab_path, packed, tmp_path / "o"))
        capsys.readouterr()
        assert main(["--config", str(cfg), "pretrain"]) == 0
        rows = (tmp_path / "o" / "train_log.tsv").read_text().splitlines()
        epoch, loss = rows[-2].split("\t")[:2]  # the last row before "# best_epoch"
        assert capsys.readouterr().out == \
            f"pretrained {epoch} epochs, final train loss {loss}\n"
        assert epoch == "2" and len(loss.split(".")[1]) == 6

    def test_finetune_evaluate_decode(self, tmp_path):
        rng = random.Random(0)
        rows = ["id\tsentence1\tsentence2\tsimilarity\tentailment"]
        for i in range(16):
            s1 = " ".join(rng.choice(WORDS) for _ in range(3))
            s2 = " ".join(rng.choice(WORDS) for _ in range(3))
            rows.append(f"{i}\t{s1}\t{s2}\t{rng.choice([1.0, 3.0, 5.0])}\t")
        pairs = tmp_path / "pairs.tsv"
        write(pairs, "\n".join(rows) + "\n")
        corpus = make_corpus_file(tmp_path)
        vocab_path = str(tmp_path / "vocab.tsv")
        assert main(["train-vocab", "--corpus", corpus, "--output", vocab_path,
                     "--vocab-size", "70"]) == 0
        cfg = tmp_path / "sim.cfg"
        write(cfg, f"""
[run]
task = similarity
max_epochs = 3
patience = 2
batch_size = 8
lr = 0.003
seq_len = 48
deterministic = true

[model]
d_model = 32
n_heads = 2
d_ff = 64
n_enc_layers = 1
n_dec_layers = 1

[paths]
vocab = {vocab_path}
train = {pairs}
val = {pairs}
test = {pairs}
out_dir = {tmp_path / "sim_out"}
""")
        assert main(["--config", str(cfg), "finetune"]) == 0
        ckpt = tmp_path / "sim_out" / "checkpoint.bin"
        assert ckpt.exists()
        assert main(["--config", str(cfg), "evaluate", "--checkpoint",
                     str(ckpt), "--split", "test"]) == 0
        report = (tmp_path / "sim_out" / "eval_test.txt").read_text()
        assert "pearson=" in report or "nan" in report
        assert "mse=" in report
        row = report.strip().splitlines()[-1]
        assert len(row.split("\t")) == 4
        # decode subcommand
        inp = tmp_path / "in.txt"
        write(inp, "casa gato azul\nsol mar\n")
        outp = tmp_path / "out.txt"
        assert main(["decode", "--checkpoint", str(ckpt), "--vocab", vocab_path,
                     "--input", str(inp), "--output", str(outp),
                     "--beam", "2", "--max-out", "6"]) == 0
        assert len(outp.read_text().splitlines()) == 2


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["pretrain"]) == 1  # --config missing
        assert main(["no-such-command"]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        write(cfg, pretrain_config_text(tmp_path / "missing_vocab.tsv",
                                        tmp_path / "missing.txt",
                                        tmp_path / "out"))
        assert main(["--config", str(cfg), "pretrain"]) == 2

    def test_out_of_range_flag_values_are_usage_errors(self, tmp_path, capsys):
        corpus = make_corpus_file(tmp_path)
        vocab_path = str(tmp_path / "vocab.tsv")
        assert main(["train-vocab", "--corpus", corpus, "--output", vocab_path,
                     "--vocab-size", "60"]) == 0
        data = ["make-pretrain-data", "--vocab", vocab_path, "--corpus", corpus,
                "--output", str(tmp_path / "pairs.bin")]
        for argv in (["preprocess", corpus, "--output", str(tmp_path / "p.txt"),
                      "--max-words", "0"],
                     data + ["--mask-rate", "0"], data + ["--mask-rate", "1"],
                     data + ["--mask-rate", "nan"], data + ["--max-len", "0"]):
            assert main(argv) == 1, argv
            assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()
        assert not (tmp_path / "pairs.bin").exists()

    def test_unknown_config_key_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        write(cfg, "[run]\ntask = pretrain\nbogus_key = 1\n")
        assert main(["--config", str(cfg), "pretrain"]) == 1

    @pytest.mark.parametrize("task,argv", [
        ("similarity", ["pretrain"]),
        ("pretrain", ["finetune"]),
        ("pretrain", ["evaluate", "--checkpoint", "c.bin"])])
    def test_task_that_does_not_suit_the_command_is_usage_error(self, tmp_path,
                                                                capsys, task, argv):
        """Checked before any file the config names is read: the vocabulary,
        corpus and checkpoint here do not exist."""
        cfg = tmp_path / "run.cfg"
        write(cfg, pretrain_config_text(tmp_path / "vocab.tsv", tmp_path / "packed.txt",
                                        tmp_path / "out").replace("task = pretrain",
                                                                  f"task = {task}"))
        assert main(["--config", str(cfg)] + argv) == 1
        assert "usage error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_divergence_is_three(self, tmp_path, capsys):
        import numpy as np
        from minit5.checkpoint import save_checkpoint
        from minit5.model import ModelConfig, init_model
        _, vocab_path, packed = pipeline_files(tmp_path)
        vocab = UnigramVocab.load(vocab_path)
        params = init_model(ModelConfig(vocab_size=len(vocab), d_model=32,
                                        n_heads=2, d_ff=64, n_enc_layers=1,
                                        n_dec_layers=1, max_len=64), 0)
        params.tensors["tok_emb"][0, 0] = np.nan
        ckpt = tmp_path / "nan.bin"
        save_checkpoint(ckpt, params)
        cfg = tmp_path / "p.cfg"
        write(cfg, pretrain_config_text(vocab_path, packed, tmp_path / "out")
              + f"\n[paths]\ninit_checkpoint = {ckpt}\n")
        assert main(["--config", str(cfg), "pretrain"]) == 3

    def test_seed_override_changes_run(self, tmp_path):
        _, vocab_path, packed = pipeline_files(tmp_path)
        cfg = tmp_path / "p.cfg"
        write(cfg, pretrain_config_text(vocab_path, packed, tmp_path / "s1"))
        assert main(["--config", str(cfg), "--seed", "7", "pretrain"]) == 0
        cfg2 = tmp_path / "p2.cfg"
        write(cfg2, pretrain_config_text(vocab_path, packed, tmp_path / "s2"))
        assert main(["--config", str(cfg2), "--seed", "8", "pretrain"]) == 0
        a = (tmp_path / "s1" / "checkpoint.bin").read_bytes()
        b = (tmp_path / "s2" / "checkpoint.bin").read_bytes()
        assert a != b


@pytest.mark.parametrize("flag,value", [("--seed", "3"), ("--seed", "-1"),
                                        ("--config", "run.cfg")])
@pytest.mark.parametrize("command", ["preprocess", "train-vocab",
                                     "make-pretrain-data", "decode"])
def test_config_flags_on_a_command_that_reads_no_config_are_usage_errors(
        tmp_path, capsys, command, flag, value):
    """Only pretrain, finetune and evaluate read a config; anywhere else
    --seed or --config would be silently ignored, so it is refused before
    any file is read. --deterministic stays accepted everywhere."""
    corpus = make_corpus_file(tmp_path)
    out = tmp_path / "out"
    argv = {"preprocess": ["preprocess", corpus, "--output", str(out)],
            "train-vocab": ["train-vocab", "--corpus", corpus, "--output",
                            str(out), "--vocab-size", "60"],
            "make-pretrain-data": ["make-pretrain-data", "--vocab", "v.tsv",
                                   "--corpus", corpus, "--output", str(out)],
            "decode": ["decode", "--checkpoint", "c.bin", "--vocab", "v.tsv",
                       "--input", corpus, "--output", str(out)]}[command]
    assert main([flag, value, *argv]) == 1
    assert capsys.readouterr().err == \
        f"usage error: {command} reads no config, so {flag} does not apply\n"
    assert not out.exists()
    if command in ("preprocess", "train-vocab"):
        assert main(["--deterministic", *argv]) == 0


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "minit5.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("preprocess", "train-vocab", "make-pretrain-data", "pretrain",
                "finetune", "evaluate", "decode"):
        assert sub in proc.stdout


class TestDecodeAndDataChecks:
    def _checkpoint(self, tmp_path, vocab_size, max_len=64):
        from minit5.checkpoint import save_checkpoint
        from minit5.model import ModelConfig, init_model
        params = init_model(ModelConfig(vocab_size=vocab_size, d_model=16,
                                        n_heads=2, d_ff=32, n_enc_layers=1,
                                        n_dec_layers=1, max_len=max_len), 0)
        path = tmp_path / "model.bin"
        save_checkpoint(path, params)
        return str(path)

    def _decode(self, tmp_path, ckpt, vocab_path, *flags):
        inp = tmp_path / "in.txt"
        write(inp, "casa gato azul\nsol mar\n")
        outp = tmp_path / "out.txt"
        rc = main(["decode", "--checkpoint", ckpt, "--vocab", vocab_path,
                   "--input", str(inp), "--output", str(outp), *flags])
        return rc, outp

    @pytest.mark.parametrize("beam", ["1", "3"])
    def test_multi_line_decode_writes_what_one_line_runs_write(self, tmp_path, beam):
        from minit5.checkpoint import load_checkpoint, save_checkpoint
        _, vocab_path, _ = pipeline_files(tmp_path)
        ckpt = self._checkpoint(tmp_path, 60)
        params = load_checkpoint(ckpt)
        # sharper logits than a fresh model's, so some outputs end early in eos
        params.tensors["tok_emb"] *= 6.0
        save_checkpoint(ckpt, params)
        lines = ["casa gato azul sol mar rio dia verde casa gato", "sol", "",
                 "mar rio azul", "dia " * 9 + "verde", "gato"]

        def run(lines):
            inp, outp = tmp_path / "in.txt", tmp_path / "out.txt"
            write(inp, "".join(line + "\n" for line in lines))
            assert main(["decode", "--checkpoint", ckpt, "--vocab", vocab_path,
                         "--input", str(inp), "--output", str(outp),
                         "--beam", beam, "--max-out", "7"]) == 0
            return outp.read_text(encoding="utf-8").split("\n")[:-1]

        together = run(lines)
        assert together == [run([line])[0] for line in lines]
        assert len(set(together)) > 1

    def test_decode_encodes_many_distinct_words_the_same_on_either_path(self, tmp_path,
                                                                        monkeypatch):
        from minit5 import unigram
        _, vocab_path, _ = pipeline_files(tmp_path)
        ckpt = self._checkpoint(tmp_path, 60)
        words = list(dict.fromkeys(a + b[:k] for a in WORDS for b in WORDS for k in (1, 3)))
        assert len(words) >= unigram.LATTICE_MIN_WORDS
        inp = tmp_path / "many.txt"
        write(inp, "".join(" ".join(words[i:i + 10]) + "\n" for i in range(0, len(words), 10)))
        outs = []
        for threshold in (0, 10 ** 9):
            monkeypatch.setattr(unigram, "LATTICE_MIN_WORDS", threshold)
            outp = tmp_path / f"out{threshold}.txt"
            assert main(["decode", "--checkpoint", ckpt, "--vocab", vocab_path, "--input",
                         str(inp), "--output", str(outp), "--max-out", "4"]) == 0
            outs.append(outp.read_bytes())
        assert outs[0] == outs[1] and outs[0].count(b"\n") == -(-len(words) // 10)

    def test_decode_rejects_a_piece_holding_an_inner_marker(self, tmp_path, capsys):
        from minit5.unigram import BOUNDARY, RESERVED_PIECES
        ckpt = self._checkpoint(tmp_path, 7)
        vocab_path = tmp_path / "vocab.tsv"
        write(vocab_path, "".join(f"{p}\t0\n" for p in RESERVED_PIECES)
              + f"a\t-1\nb\t-1\na{BOUNDARY}b\t-2\n")
        rc, outp = self._decode(tmp_path, ckpt, str(vocab_path))
        assert rc == 2
        assert f"{vocab_path}:6: piece 'a{BOUNDARY}b' holds the boundary marker" \
            in capsys.readouterr().err
        assert not outp.exists()

    def test_decode_rejects_vocabulary_of_another_size(self, tmp_path, capsys):
        _, vocab_path, _ = pipeline_files(tmp_path)
        ckpt = self._checkpoint(tmp_path, 70)
        rc, outp = self._decode(tmp_path, ckpt, vocab_path)
        assert rc == 2
        assert "checkpoint vocab size 70 does not match vocabulary of 60" \
            in capsys.readouterr().err
        assert not outp.exists()

    def test_decode_defaults_on_short_context_checkpoint(self, tmp_path, capsys):
        _, vocab_path, _ = pipeline_files(tmp_path)
        ckpt = self._checkpoint(tmp_path, 60, max_len=8)
        for beam in ("5", "1"):
            rc, outp = self._decode(tmp_path, ckpt, vocab_path, "--beam", beam)
            assert rc == 0, capsys.readouterr().err
            assert len(outp.read_text(encoding="utf-8").splitlines()) == 2

    def test_decode_beam_and_max_out_below_one_are_usage_errors(self, tmp_path,
                                                                capsys):
        _, vocab_path, _ = pipeline_files(tmp_path)
        ckpt = self._checkpoint(tmp_path, 60)
        for flags in (("--beam", "0"), ("--max-out", "0"), ("--beam", "-2")):
            rc, _ = self._decode(tmp_path, ckpt, vocab_path, *flags)
            assert rc == 1, flags
            assert "usage error" in capsys.readouterr().err

    def test_decode_of_truncated_checkpoint_is_data_error(self, tmp_path, capsys):
        _, vocab_path, _ = pipeline_files(tmp_path)
        ckpt = self._checkpoint(tmp_path, 60)
        with open(ckpt, "r+b") as fh:
            fh.truncate(200)
        rc, outp = self._decode(tmp_path, ckpt, vocab_path)
        assert rc == 2
        assert "truncated checkpoint" in capsys.readouterr().err
        assert not outp.exists()

    def test_decode_of_checkpoint_with_trailing_bytes_is_data_error(self, tmp_path,
                                                                    capsys):
        _, vocab_path, _ = pipeline_files(tmp_path)
        ckpt = self._checkpoint(tmp_path, 60)
        with open(ckpt, "ab") as fh:
            fh.write(b"\0\0\0")
        rc, outp = self._decode(tmp_path, ckpt, vocab_path)
        assert rc == 2
        assert f"data error: {ckpt}: 3 bytes after the last of" in capsys.readouterr().err
        assert not outp.exists()

    @pytest.mark.parametrize("fault", [
        "config-extra-key", "config-missing-key", "config-string-vocab-size",
        "config-list", "config-not-json", "config-zero-heads", "missing-tensor",
        "unexpected-tensor", "misshapen-tensor"])
    def test_decode_of_malformed_checkpoint_is_data_error(self, tmp_path, capsys,
                                                          fault):
        """A checkpoint whose config is not a valid ModelConfig, or whose
        tensors are not the ones that config builds, exits 2 naming the file."""
        import json
        import types
        from minit5.checkpoint import load_checkpoint, save_checkpoint
        from minit5.model import ModelParams
        _, vocab_path, _ = pipeline_files(tmp_path)
        ckpt = self._checkpoint(tmp_path, 60)
        params = load_checkpoint(ckpt)
        d = params.cfg.to_dict()
        tensors = dict(params.tensors)
        config = {"config-extra-key": {**d, "dropout": 0},
                  "config-missing-key": {k: v for k, v in d.items() if k != "d_ff"},
                  "config-string-vocab-size": {**d, "vocab_size": "60"},
                  "config-list": list(d.values()),
                  "config-not-json": "{",
                  "config-zero-heads": {**d, "n_heads": 0}}.get(fault, d)
        if fault == "missing-tensor":
            del tensors["enc.0.ln1.g"]
        elif fault == "unexpected-tensor":
            tensors["enc.1.ln1.g"] = tensors["enc.0.ln1.g"]
        elif fault == "misshapen-tensor":
            tensors["dec.0.self.wq"] = tensors["dec.0.self.wq"][:, :8]
        cfg = types.SimpleNamespace(to_dict=lambda: config)
        save_checkpoint(ckpt, ModelParams(cfg, tensors))
        if fault == "config-not-json":  # json.dumps quoted it: '"{"' -> '{{{'
            data = (tmp_path / "model.bin").read_bytes()
            (tmp_path / "model.bin").write_bytes(
                data.replace(json.dumps("{").encode(), b"{{{", 1))
        rc, outp = self._decode(tmp_path, ckpt, vocab_path)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ckpt}: ")
        assert "Traceback" not in err
        assert not outp.exists()

    def test_ner_evaluate_cuts_inputs_to_checkpoint_max_len(self, tmp_path, capsys):
        _, vocab_path, _ = pipeline_files(tmp_path)
        ckpt = self._checkpoint(tmp_path, 60, max_len=8)
        words = ["casa", "gato", "azul", "verde", "sol", "mar", "rio", "dia"]
        write(tmp_path / "test.conll",
              "".join(f"{w} {'B-LOC' if w == 'rio' else 'O'}\n" for w in words) + "\n")
        cfg = tmp_path / "ner.cfg"
        write(cfg, f"""[run]
task = ner
seq_len = 48
ner_window = 16
ner_stride = 8
deterministic = true

[paths]
vocab = {vocab_path}
test = {tmp_path / "test.conll"}
out_dir = {tmp_path / "eval"}
""")
        rc = main(["--config", str(cfg), "evaluate", "--checkpoint", ckpt])
        assert rc == 0, capsys.readouterr().err
        rows = (tmp_path / "eval" / "predictions_test.conll").read_text(
            encoding="utf-8").splitlines()
        assert [row.split("\t")[:2] for row in rows if row] == \
            [[w, "B-LOC" if w == "rio" else "O"] for w in words]

    def test_uncovered_character_is_reported_as_such(self, tmp_path, capsys):
        _, vocab_path, packed = pipeline_files(tmp_path)
        lines = open(packed, encoding="utf-8").read().splitlines()
        lines[1] = "casa ñ " + lines[1]
        write(packed, "\n".join(lines) + "\n")
        rc = main(["make-pretrain-data", "--vocab", vocab_path, "--corpus",
                   packed, "--output", str(tmp_path / "pairs.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "characters the vocabulary does not cover" in err
        assert "document 2" in err and "'ñ' at character offset 5" in err
        assert "reserved ids" not in err
        cfg = tmp_path / "p.cfg"
        write(cfg, pretrain_config_text(vocab_path, packed, tmp_path / "out"))
        assert main(["--config", str(cfg), "pretrain"]) == 2
        assert "'ñ' at character offset 5" in capsys.readouterr().err

    def test_literal_boundary_marker_is_an_uncovered_character(self, tmp_path, capsys):
        # the vocabulary writes spaces as U+2581; one in the text is no space
        _, vocab_path, packed = pipeline_files(tmp_path)
        lines = open(packed, encoding="utf-8").read().splitlines()
        lines[2] = "gato\u2581" + lines[2]
        write(packed, "\n".join(lines) + "\n")
        rc = main(["make-pretrain-data", "--vocab", vocab_path, "--corpus",
                   packed, "--output", str(tmp_path / "pairs.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "characters the vocabulary does not cover" in err
        assert "document 3" in err and "'\u2581' at character offset 4" in err
        assert not (tmp_path / "pairs.bin").exists()

    def test_non_finite_vocabulary_log_prob_is_data_error(self, tmp_path, capsys):
        corpus, vocab_path, _ = pipeline_files(tmp_path)
        lines = open(vocab_path, encoding="utf-8").read().splitlines()
        for value in ("nan", "-inf"):
            piece = lines[10].split("\t")[0]
            bad = lines[:10] + [f"{piece}\t{value}"] + lines[11:]
            write(tmp_path / "bad.tsv", "\n".join(bad) + "\n")
            rc = main(["make-pretrain-data", "--vocab", str(tmp_path / "bad.tsv"),
                       "--corpus", corpus, "--output", str(tmp_path / "pairs.bin")])
            assert rc == 2
            assert f"bad.tsv:10: log-prob {value} is not finite" in capsys.readouterr().err

    def test_empty_vocabulary_piece_is_data_error(self, tmp_path, capsys):
        corpus, vocab_path, _ = pipeline_files(tmp_path)
        body = open(vocab_path, encoding="utf-8").read()
        write(tmp_path / "bad.tsv", body + "\t-3.5\n")
        rc = main(["make-pretrain-data", "--vocab", str(tmp_path / "bad.tsv"),
                   "--corpus", corpus, "--output", str(tmp_path / "pairs.bin")])
        assert rc == 2
        assert "bad.tsv:60: empty piece" in capsys.readouterr().err
        assert not (tmp_path / "pairs.bin").exists()

    def test_interior_blank_vocabulary_line_is_data_error(self, tmp_path, capsys):
        corpus, vocab_path, _ = pipeline_files(tmp_path)
        lines = open(vocab_path, encoding="utf-8").read().splitlines()
        write(tmp_path / "bad.tsv", "\n".join(lines[:10] + [""] + lines[10:]) + "\n")
        rc = main(["make-pretrain-data", "--vocab", str(tmp_path / "bad.tsv"),
                   "--corpus", corpus, "--output", str(tmp_path / "pairs.bin")])
        assert rc == 2
        assert "bad.tsv:10: bad vocabulary line" in capsys.readouterr().err
        assert not (tmp_path / "pairs.bin").exists()


PAIR_HEADER = "id\tsentence1\tsentence2\tsimilarity\tentailment\n"


@pytest.mark.parametrize("task,kind", [("similarity", "empty"),
                                       ("similarity", "unlabeled"),
                                       ("entailment", "empty"),
                                       ("entailment", "unlabeled"),
                                       ("ner", "empty")])
@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_empty_or_unlabeled_split_is_data_error_naming_file(tmp_path, capsys,
                                                            task, kind, split):
    """finetune reads train and val, evaluate reads test: a split with no
    examples, or a sentence pair without the task's label, exits 2 naming
    the file."""
    from minit5.checkpoint import save_checkpoint
    from minit5.model import ModelConfig, init_model
    vocab = train_vocab([" ".join(WORDS), "ASSIN sentence1: x", "sentence2: y",
                         "Recognize Entities: x [Person] [Local] [Other]",
                         "0 1 2 3 4 5 6 7 8 9 . ,"], vocab_size=90)
    vocab.save(tmp_path / "vocab.tsv")
    if task == "ner":
        good, bad = "casa O\nrio B-LOC\n\n", "\n"
    else:
        good = PAIR_HEADER + "0\tcasa gato\tsol mar\t3.0\tentail\n"
        bad = PAIR_HEADER + ("" if kind == "empty" else "0\tcasa gato\tsol mar\t\t\n")
    for name in ("train", "val", "test"):
        write(tmp_path / f"{name}.data", bad if name == split else good)
    cfg = tmp_path / "task.cfg"
    write(cfg, f"""[run]
task = {task}
max_epochs = 1
batch_size = 2
seq_len = 32
deterministic = true
label_language = en
ner_window = 8
ner_stride = 4

[model]
d_model = 16
n_heads = 2
d_ff = 32
n_enc_layers = 1
n_dec_layers = 1

[paths]
vocab = {tmp_path / "vocab.tsv"}
train = {tmp_path / "train.data"}
val = {tmp_path / "val.data"}
test = {tmp_path / "test.data"}
out_dir = {tmp_path / "out"}
""")
    if split == "test":
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, init_model(ModelConfig(
            vocab_size=len(vocab), d_model=16, n_heads=2, d_ff=32,
            n_enc_layers=1, n_dec_layers=1, max_len=32), 0))
        argv = ["--config", str(cfg), "evaluate", "--checkpoint", str(ckpt)]
    else:
        argv = ["--config", str(cfg), "finetune"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / f"{split}.data") in err
    assert ("has no examples" if kind == "empty" else f"has no {task} label") in err


def _tiny_task_files(tmp_path, task, accented=True):
    """A vocabulary covering both accented and plain spellings, and
    train/val/test splits of a sentence-pair or NER task; with
    accented=False the splits are written already stripped."""
    from minit5.tasks import strip_accents
    words = ["São", "ação", "três", "café", "maçã", "avó", "pé", "irmã"]
    plain = [strip_accents(w) for w in words]
    vocab = train_vocab([" ".join(words), " ".join(plain), " ".join(WORDS),
                         "ASSIN sentence1: x", "sentence2: y",
                         "Recognize Entities: x [Person] [Local] [Other]",
                         "0 1 2 3 4 5 6 7 8 9 . ,"], vocab_size=120)
    vocab.save(tmp_path / "vocab.tsv")
    rng = random.Random(4)
    text = (lambda w: w) if accented else strip_accents
    for name, n in (("train", 8), ("val", 4), ("test", 4)):
        if task == "ner":
            docs = []
            for _ in range(n):
                row = [rng.choice(words + WORDS) for _ in range(5)]
                docs.append("".join(f"{text(w)} {'B-LOC' if w in words else 'O'}\n"
                                    for w in row))
            body = "\n".join(docs) + "\n"
        else:
            body = PAIR_HEADER + "".join(
                f"{i}\t{text(' '.join(rng.choice(words) for _ in range(3)))}"
                f"\t{text(' '.join(rng.choice(words) for _ in range(3)))}"
                f"\t{rng.choice(['1.0', '3.5', '5.0'])}"
                f"\t{rng.choice(['entail', 'none'])}\n" for i in range(n))
        write(tmp_path / f"{name}.data", body)


def _tiny_task_config(tmp_path, task, extra="", model_extra=""):
    cfg = tmp_path / "task.cfg"
    write(cfg, f"""[run]
task = {task}
max_epochs = 2
batch_size = 4
lr = 0.003
seq_len = 32
deterministic = true
label_language = en
ner_window = 4
ner_stride = 2
beam_width = 2
{extra}

[model]
d_model = 16
n_heads = 2
d_ff = 32
n_enc_layers = 1
n_dec_layers = 1
{model_extra}

[paths]
vocab = {tmp_path / "vocab.tsv"}
train = {tmp_path / "train.data"}
val = {tmp_path / "val.data"}
test = {tmp_path / "test.data"}
out_dir = {tmp_path / "out"}
""")
    return str(cfg)


@pytest.mark.parametrize("line", ["beam_width = 0", "gen_max_tokens = 0",
                                  "seq_len = 0", "mask_rate = 0",
                                  "mask_rate = 1.5", "ner_window = 2",
                                  "ner_stride = 0", "label_language = xx",
                                  "lr = -1", "lr = nan", "seed = -1"])
def test_out_of_range_config_value_is_usage_error_before_training(tmp_path,
                                                                  capsys, line):
    """A config value outside its range exits 1 when the config loads, even
    where the task never uses the value, and nothing is trained or written."""
    _tiny_task_files(tmp_path, "ner")
    cfg = _tiny_task_config(tmp_path, "ner", extra=line)
    assert main(["--config", cfg, "finetune"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoint.bin").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["n_heads = 0", "n_heads = -2", "d_model = 0",
                                  "d_ff = 0", "n_enc_layers = -1",
                                  "n_dec_layers = -1", "d_model = 15",
                                  "position_scheme = sinusoid"])
def test_out_of_range_model_value_is_usage_error_before_training(tmp_path,
                                                                 capsys, line):
    """The same for a [model] value: the line goes in the [model] section,
    where the key is known, so only its range can reject it."""
    _tiny_task_files(tmp_path, "similarity")
    cfg = _tiny_task_config(tmp_path, "similarity", model_extra=line)
    assert main(["--config", cfg, "finetune"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--vocab-size", "--seed-size"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_train_vocab_sizes_below_one_are_usage_errors(tmp_path, capsys, flag,
                                                      value):
    corpus = make_corpus_file(tmp_path)
    out = tmp_path / "vocab.tsv"
    rc = main(["train-vocab", "--corpus", corpus, "--output", str(out),
               flag, value])
    assert rc == 1
    assert f"usage error: {flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", str(2**64)])
@pytest.mark.parametrize("where", ["[run] seed", "--seed", "--data-seed"])
def test_a_seed_outside_64_bits_is_usage_error_naming_it(tmp_path, capsys, where,
                                                        value):
    """Seeds lie in [0, 2**64): every generator masks a seed to 64 bits, so a
    seed outside would alias one inside."""
    _, vocab_path, packed = pipeline_files(tmp_path)
    pairs = tmp_path / "pairs.bin"
    data = ["make-pretrain-data", "--vocab", vocab_path, "--corpus", packed,
            "--output", str(pairs), "--data-seed"]
    _tiny_task_files(tmp_path, "similarity")
    cfg = _tiny_task_config(tmp_path, "similarity",
                            extra=f"seed = {value}" if where == "[run] seed" else "")
    argv = {"[run] seed": ["--config", cfg, "finetune"],
            "--seed": ["--config", cfg, "--seed", value, "finetune"],
            "--data-seed": data + [value]}[where]
    assert main(argv) == 1
    name = "--data-seed" if where == "--data-seed" else "seed"
    assert (f"usage error: {name} must be in [0, 2**64), got {value}"
            in capsys.readouterr().err)
    assert not pairs.exists()
    assert not (tmp_path / "out").exists()
    assert main(data + [str(2**64 - 1)]) == 0


def test_train_vocab_rejects_a_tab_in_the_corpus(tmp_path, capsys):
    """A tab would become a single-character piece that the tab-separated
    vocabulary file cannot hold, so no later stage could load it."""
    corpus = tmp_path / "tabs.txt"
    write(corpus, "casa azul\n\nsol\tmar\n")
    out = tmp_path / "vocab.tsv"
    rc = main(["train-vocab", "--corpus", str(corpus), "--output", str(out)])
    assert rc == 2
    assert f"data error: {corpus}:3: tab in a corpus line" in capsys.readouterr().err
    assert not out.exists()


def test_train_vocab_rejects_a_literal_boundary_marker_in_the_corpus(tmp_path, capsys):
    """Training would read a literal U+2581 as a word boundary, while encode
    reads it as an unknown character, so pruning would rank pieces encode
    never emits."""
    corpus = tmp_path / "marker.txt"
    write(corpus, "o gato bebe\n\no gato\u2581bebe\n")
    out = tmp_path / "vocab.tsv"
    rc = main(["train-vocab", "--corpus", str(corpus), "--output", str(out)])
    assert rc == 2
    assert f"data error: {corpus}:3: literal '\u2581' (U+2581) in a corpus line" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task,extra", [("similarity", "output_strategy = generate"),
                                        ("similarity", ""), ("entailment", ""),
                                        ("ner", "")])
def test_strip_accents_run_equals_run_on_pre_stripped_splits(tmp_path, task,
                                                             extra):
    """With strip_accents = true, fine-tuning and evaluating on accented
    splits writes the same bytes as on copies stripped beforehand."""
    outputs = []
    for accented in (True, False):
        root = tmp_path / ("accented" if accented else "plain")
        root.mkdir()
        _tiny_task_files(root, task, accented)
        cfg = _tiny_task_config(root, task, "strip_accents = true\n" + extra)
        assert main(["--config", cfg, "finetune"]) == 0
        assert main(["--config", cfg, "evaluate", "--checkpoint",
                     str(root / "out" / "checkpoint.bin")]) == 0
        outputs.append({name: (root / "out" / name).read_bytes()
                        for name in sorted(os.listdir(root / "out"))})
    assert outputs[0] == outputs[1]
    names = set(outputs[0])
    assert {"checkpoint.bin", "train_log.tsv", "eval_test.txt"} <= names
    assert ("predictions_test.conll" in names) == (task == "ner")


@pytest.mark.parametrize("stage", ["preprocess", "train-vocab",
                                   "make-pretrain-data-vocab",
                                   "make-pretrain-data-corpus",
                                   "pretrain-config-corpus"])
def test_a_directory_given_as_an_input_is_a_data_error_naming_it(tmp_path, capsys,
                                                                 stage):
    corpus, vocab_path, packed = pipeline_files(tmp_path)
    folder = tmp_path / "a-folder"
    folder.mkdir()
    out = str(tmp_path / "out.bin")
    argv = {
        "preprocess": ["preprocess", str(folder), "--output", out],
        "train-vocab": ["train-vocab", "--corpus", str(folder), "--output", out],
        "make-pretrain-data-vocab": ["make-pretrain-data", "--vocab", str(folder),
                                     "--corpus", packed, "--output", out],
        "make-pretrain-data-corpus": ["make-pretrain-data", "--vocab", vocab_path,
                                      "--corpus", str(folder), "--output", out],
    }.get(stage)
    if argv is None:
        cfg = tmp_path / "p.cfg"
        write(cfg, pretrain_config_text(vocab_path, folder, tmp_path / "run"))
        argv = ["--config", str(cfg), "pretrain"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert str(folder) in err
    assert not os.path.exists(out)


def test_evaluate_of_a_pad_preferring_model_counts_malformed_windows(tmp_path, capsys):
    """A model whose first step prefers <pad> decodes text instead: evaluate
    exits 0 and reports every window as malformed."""
    from minit5.checkpoint import save_checkpoint
    from test_decoding import pad_first_model
    _tiny_task_files(tmp_path, "ner")
    cfg = _tiny_task_config(tmp_path, "ner")
    ckpt = tmp_path / "model.bin"
    save_checkpoint(ckpt, pad_first_model(len(UnigramVocab.load(tmp_path / "vocab.tsv"))))
    rc = main(["--config", cfg, "evaluate", "--checkpoint", str(ckpt)])
    out = capsys.readouterr()
    assert rc == 0, out.err
    assert "malformed_windows=8\n" in out.out  # 4 documents of 5 words, 2 windows each


@pytest.mark.parametrize("reader", ["preprocess", "train-vocab",
                                    "make-pretrain-data-vocab",
                                    "make-pretrain-data-corpus", "decode-input",
                                    "finetune-tsv", "finetune-conll", "config"])
def test_a_file_not_in_utf8_is_named_with_the_byte_offset(tmp_path, capsys, reader):
    """Each text input that is not UTF-8 exits 2 (1 for the config) and the
    message names the file and the offset of the first bad byte."""
    latin1 = b"o caf\xe9 \xe9 bom.\n"
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(latin1)
    out = str(tmp_path / "out.bin")
    if reader == "config":
        argv = ["--config", str(bad), "finetune"]
    elif reader.startswith("finetune"):
        task = "ner" if reader == "finetune-conll" else "similarity"
        _tiny_task_files(tmp_path, task)
        bad = tmp_path / "train.data"
        bad.write_bytes(latin1)
        argv = ["--config", _tiny_task_config(tmp_path, task), "finetune"]
    else:
        _, vocab_path, packed = pipeline_files(tmp_path)
        argv = {
            "preprocess": ["preprocess", str(bad), "--output", out],
            "train-vocab": ["train-vocab", "--corpus", str(bad), "--output", out],
            "make-pretrain-data-vocab": ["make-pretrain-data", "--vocab", str(bad),
                                         "--corpus", packed, "--output", out],
            "make-pretrain-data-corpus": ["make-pretrain-data", "--vocab", vocab_path,
                                          "--corpus", str(bad), "--output", out],
        }.get(reader)
        if argv is None:
            ckpt = TestDecodeAndDataChecks()._checkpoint(
                tmp_path, len(UnigramVocab.load(vocab_path)))
            argv = ["decode", "--checkpoint", ckpt, "--vocab", vocab_path,
                    "--input", str(bad), "--output", out]
    capsys.readouterr()
    assert main(argv) == (1 if reader == "config" else 2)
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8 at byte offset 5: invalid continuation byte" in err
    assert not os.path.exists(out)
    assert not (tmp_path / "out").exists()

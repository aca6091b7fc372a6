import random
import subprocess
import sys

from minit5.cli import main
from minit5.corruption import read_pair_cache
from minit5.unigram import UnigramVocab

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

    def test_unknown_config_key_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        write(cfg, "[run]\ntask = pretrain\nbogus_key = 1\n")
        assert main(["--config", str(cfg), "pretrain"]) == 1

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

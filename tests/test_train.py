import os
import random
import socket
import subprocess
import sys

import numpy as np
import pytest

from minit5.checkpoint import save_checkpoint
from minit5.config import RunConfig
from minit5.model import init_model
from minit5.optim import DivergedError
from minit5.train import (DataError, LockError, _model_config, _train_loop,
                          acquire_lock, load_packed_corpus, run_evaluate,
                          run_finetune, run_pretrain)
from minit5.unigram import UnigramVocab, train_vocab

WORDS = ["casa", "gato", "azul", "verde", "sol", "mar", "rio", "dia"]


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def make_pretrain_inputs(tmp_path, n_docs=64, seed=3):
    rng = random.Random(seed)
    docs = []
    for _ in range(n_docs):
        phrase = [rng.choice(WORDS) for _ in range(3)]
        docs.append(" ".join(" ".join(phrase) for _ in range(rng.randrange(3, 6))))
    corpus = tmp_path / "packed.txt"
    write(corpus, "\n".join(docs) + "\n")
    vocab = train_vocab(docs[:20], vocab_size=60)
    vocab_path = tmp_path / "vocab.tsv"
    vocab.save(vocab_path)
    return str(corpus), str(vocab_path), vocab


def dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()  # reaped, so its pid names no process
    return child.pid


def pretrain_cfg(tmp_path, out_name, **kw):
    corpus, vocab_path, _ = make_pretrain_inputs(tmp_path)
    base = dict(task="pretrain", optimizer="adafactor", lr=3e-3, batch_size=4,
                max_epochs=4, seed=0, deterministic=True, mask_rate=0.15,
                seq_len=64, d_model=32, n_heads=2, d_ff=64,
                n_enc_layers=1, n_dec_layers=1, vocab_path=vocab_path,
                corpus_path=corpus, out_dir=str(tmp_path / out_name))
    base.update(kw)
    return RunConfig(**base)


class TestPretrain:
    def test_loss_decreases_and_halves(self, tmp_path):
        cfg = pretrain_cfg(tmp_path, "run")
        _, log = run_pretrain(cfg)
        losses = [r.train_loss for r in log.records]
        assert len(losses) == 4
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.5 * losses[0]

    def test_embeddings_only_freezes_everything_else(self, tmp_path):
        cfg = pretrain_cfg(tmp_path, "emb", embeddings_only=True, max_epochs=1)
        params, _ = run_pretrain(cfg)
        vocab = UnigramVocab.load(cfg.vocab_path)
        init = init_model(_model_config(cfg, vocab), cfg.seed)
        for name, tensor in init.tensors.items():
            if name == "tok_emb":
                assert not np.array_equal(params.tensors[name], tensor)
            else:
                assert np.array_equal(params.tensors[name], tensor), name

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg1 = pretrain_cfg(tmp_path, "r1", max_epochs=2)
        cfg2 = pretrain_cfg(tmp_path, "r2", max_epochs=2)
        run_pretrain(cfg1)
        run_pretrain(cfg2)
        for name in ("checkpoint.bin", "train_log.tsv", "curve.tsv"):
            a = open(os.path.join(cfg1.out_dir, name), "rb").read()
            b = open(os.path.join(cfg2.out_dir, name), "rb").read()
            assert a == b, name

    def test_gradient_accumulation_matches_large_batch_bitwise(self, tmp_path):
        big = pretrain_cfg(tmp_path, "big", batch_size=8, grad_accum_steps=1,
                           max_epochs=2)
        accum = pretrain_cfg(tmp_path, "accum", batch_size=2,
                             grad_accum_steps=4, max_epochs=2)
        pa, la = run_pretrain(big)
        pb, lb = run_pretrain(accum)
        assert [r.train_loss for r in la.records] == [r.train_loss for r in lb.records]
        for name in pa.tensors:
            assert np.array_equal(pa.tensors[name], pb.tensors[name]), name

    def test_missing_inputs_raise_data_error(self, tmp_path):
        cfg = pretrain_cfg(tmp_path, "x")
        cfg.corpus_path = str(tmp_path / "missing.txt")
        with pytest.raises(DataError, match="not found"):
            run_pretrain(cfg)

    def test_lock_file_excludes_second_run(self, tmp_path):
        cfg = pretrain_cfg(tmp_path, "locked")
        os.makedirs(cfg.out_dir)
        write(os.path.join(cfg.out_dir, ".lock"), "held")
        with pytest.raises(LockError):
            run_pretrain(cfg)

    def test_dead_pid_lock_is_reclaimed(self, tmp_path, capsys):
        lock = tmp_path / ".lock"
        write(lock, f"{dead_pid()} {socket.gethostname()}")
        assert acquire_lock(str(tmp_path)) == str(lock)
        assert lock.read_text() == f"{os.getpid()} {socket.gethostname()}"
        assert "stale lock" in capsys.readouterr().err

    @pytest.mark.parametrize("owner", ["live-pid", "other-host", "unparsed"])
    def test_live_or_foreign_lock_still_excludes(self, tmp_path, owner):
        content = {"live-pid": f"{os.getpid()} {socket.gethostname()}",
                   "other-host": f"{dead_pid()} not-{socket.gethostname()}",
                   "unparsed": f"{dead_pid()}"}[owner]
        write(tmp_path / ".lock", content)
        with pytest.raises(LockError):
            acquire_lock(str(tmp_path))
        assert (tmp_path / ".lock").read_text() == content

    def test_nan_checkpoint_diverges(self, tmp_path):
        cfg = pretrain_cfg(tmp_path, "nan", max_epochs=1)
        vocab = UnigramVocab.load(cfg.vocab_path)
        params = init_model(_model_config(cfg, vocab), 0)
        params.tensors["tok_emb"][0, 0] = np.nan
        ckpt = tmp_path / "nan.bin"
        save_checkpoint(ckpt, params)
        cfg.init_checkpoint = str(ckpt)
        with pytest.raises(DivergedError, match="diverged"):
            run_pretrain(cfg)


class TestTrainLoopControl:
    def _loop_cfg(self, tmp_path, patience, max_epochs=10):
        return RunConfig(task="similarity", optimizer="adamw", lr=1e-3,
                         batch_size=1, max_epochs=max_epochs, patience=patience,
                         seed=0, deterministic=True, d_model=16, n_heads=2,
                         d_ff=24, n_enc_layers=1, n_dec_layers=1, seq_len=16,
                         out_dir=str(tmp_path))

    def _tiny_params(self):
        from minit5.model import ModelConfig
        return init_model(ModelConfig(vocab_size=10, d_model=16, n_heads=2,
                                      d_ff=24, n_enc_layers=1, n_dec_layers=1,
                                      max_len=16), 0)

    def test_patience_zero_stops_after_first_non_improvement(self, tmp_path):
        params = self._tiny_params()
        items = [(np.array([5, 6]), 3.0)]
        scripted = iter([3.0, 2.0, 2.5, 1.0, 0.5])

        def val_fn(p):
            v = next(scripted)
            return v, v

        _, log = _train_loop(params, items, "regression",
                             self._loop_cfg(tmp_path, patience=0), None, val_fn)
        assert len(log.records) == 3  # stops right at the 2.5 epoch
        assert log.best_epoch == 2

    def test_best_checkpoint_restored(self, tmp_path):
        params = self._tiny_params()
        items = [(np.array([5, 6]), 3.0)]
        snapshots = {}
        scripted = iter([3.0, 1.0, 5.0, 5.0, 5.0])
        epoch_box = [0]

        def val_fn(p):
            epoch_box[0] += 1
            snapshots[epoch_box[0]] = p.copy()
            v = next(scripted)
            return v, v

        best, log = _train_loop(params, items, "regression",
                                self._loop_cfg(tmp_path, patience=2), None, val_fn)
        assert log.best_epoch == 2
        for name, tensor in snapshots[2].tensors.items():
            assert np.array_equal(best.tensors[name], tensor), name

    def test_returned_objective_never_worse_than_observed(self, tmp_path):
        params = self._tiny_params()
        items = [(np.array([5, 6]), 3.0)]
        seen = []

        def val_fn(p):
            from minit5.train import batch_loss
            v = batch_loss(p, items, "regression")
            seen.append(v)
            return v, v

        best, log = _train_loop(params, items, "regression",
                                self._loop_cfg(tmp_path, patience=3, max_epochs=6),
                                None, val_fn)
        from minit5.train import batch_loss
        assert batch_loss(best, items, "regression") == min(seen)


class TestValidationLoss:
    def test_batch_loss_equals_training_loss(self):
        from minit5.model import ModelConfig, loss_and_grad
        from minit5.train import batch_loss
        for scheme in ("learned-absolute", "relative-bucket"):
            params = init_model(ModelConfig(vocab_size=12, d_model=16, n_heads=2,
                                            d_ff=24, n_enc_layers=2,
                                            n_dec_layers=2, max_len=12,
                                            position_scheme=scheme), 3)
            encs = [np.array([5, 6, 7, 0]), np.array([9]),
                    np.array([4, 8, 11, 10, 6])]
            tgts = [np.array([8, 9, 1]), np.array([5, 1]), np.array([7, 4, 0])]
            pooled = {"regression": list(zip(encs, (1.0, 2.5, 4.9))),
                      "classification": list(zip(encs, (0, 1, 1)))}
            for objective, items in pooled.items():
                assert batch_loss(params, items, objective) == \
                    loss_and_grad(params, items, objective)[0], (scheme, objective)
            lm = [(e, np.concatenate(([1], t[:-1])), t) for e, t in zip(encs, tgts)]
            assert batch_loss(params, lm, "lm") == pytest.approx(
                loss_and_grad(params, lm, "lm")[0], rel=1e-12, abs=0), scheme


def write_pairs(path, rows):
    lines = ["id\tsentence1\tsentence2\tsimilarity\tentailment"]
    for i, (s1, s2, sim, ent) in enumerate(rows):
        lines.append(f"{i}\t{s1}\t{s2}\t{'' if sim is None else sim}\t{ent or ''}")
    write(path, "\n".join(lines) + "\n")


def similarity_fixture(tmp_path, n=32, seed=0):
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        s1 = [rng.choice(WORDS[:8]) for _ in range(4)]
        overlap = rng.randrange(0, 5)
        s2 = [s1[k] if k < overlap else rng.choice(WORDS[:8]) for k in range(4)]
        score = 1.0 + 4.0 * sum(a == b for a, b in zip(s1, s2)) / 4
        rows.append((" ".join(s1), " ".join(s2), round(score, 1), None))
    train = tmp_path / "train.tsv"
    write_pairs(train, rows)
    vocab = train_vocab([" ".join(WORDS), "ASSIN sentence1: x", "sentence2: y",
                         "0 1 2 3 4 5 6 7 8 9 . ,"], vocab_size=90)
    vocab_path = tmp_path / "vocab.tsv"
    vocab.save(vocab_path)
    return str(train), str(vocab_path)


def similarity_cfg(tmp_path, train, vocab_path, **kw):
    base = dict(task="similarity", optimizer="radam", lr=1e-2, batch_size=8,
                max_epochs=80, patience=5, seed=0, deterministic=True,
                output_strategy="linear-head", seq_len=48, d_model=32,
                n_heads=2, d_ff=64, n_enc_layers=1, n_dec_layers=1,
                vocab_path=vocab_path, train_path=train, val_path=train,
                test_path=train, out_dir=str(tmp_path / "simrun"))
    base.update(kw)
    return RunConfig(**base)


class TestFinetuneSimilarity:
    def test_linear_head_reaches_low_mse(self, tmp_path):
        train, vocab_path = similarity_fixture(tmp_path)
        cfg = similarity_cfg(tmp_path, train, vocab_path)
        params, log = run_finetune(cfg)
        assert min(r.val_objective for r in log.records) < 0.1
        assert len(log.records) < cfg.max_epochs  # early stopping engaged
        report = run_evaluate(cfg, params, split="test")
        assert report["mse"] < 0.1

    def test_generate_strategy_trains_and_parses(self, tmp_path):
        train, vocab_path = similarity_fixture(tmp_path, n=8)
        cfg = similarity_cfg(tmp_path, train, vocab_path,
                             output_strategy="generate", max_epochs=3,
                             patience=None, lr=1e-3,
                             out_dir=str(tmp_path / "genrun"))
        params, log = run_finetune(cfg)
        report = run_evaluate(cfg, params, split="test")
        assert 1.0 <= report["mse"] ** 0.5 + 1.0  # report exists and is finite
        assert np.isfinite(report["mse"])


class TestEvaluateWithInjectedPredictions:
    def test_similarity_gold_injection_gives_perfect_metrics(self, tmp_path):
        train, vocab_path = similarity_fixture(tmp_path, n=12)
        cfg = similarity_cfg(tmp_path, train, vocab_path)
        vocab = UnigramVocab.load(vocab_path)
        params = init_model(_model_config(cfg, vocab), 0)
        report = run_evaluate(cfg, params, split="test",
                              predict_override=lambda ex: ex.similarity)
        assert report["mse"] == 0.0
        assert report["pearson"] == pytest.approx(1.0)

    def test_entailment_gold_injection(self, tmp_path):
        rng = random.Random(1)
        rows = [("a b", "c d", None, rng.choice(["entail", "none"]))
                for _ in range(10)]
        train = tmp_path / "ent.tsv"
        write_pairs(train, rows)
        vocab = train_vocab(["a b c d", "ASSIN sentence1: x", "sentence2: y"],
                            vocab_size=60)
        vocab_path = tmp_path / "vocab.tsv"
        vocab.save(vocab_path)
        cfg = similarity_cfg(tmp_path, str(train), str(vocab_path),
                             task="entailment", patience=10)
        params = init_model(_model_config(cfg, vocab), 0)
        report = run_evaluate(cfg, params, split="test",
                              predict_override=lambda ex: ex.entailment)
        assert report["accuracy"] == 1.0
        assert report["macro_f1"] == 1.0

    def test_ner_worked_example_counts(self, tmp_path):
        conll = tmp_path / "doc.conll"
        write(conll, "John B-PER\nlives O\nin O\nNew B-LOC\nYork I-LOC\n\n")
        vocab = train_vocab(["John lives in New York",
                             "Recognize Entities: x [Person] [Local] [Other]"],
                            vocab_size=90)
        vocab_path = tmp_path / "vocab.tsv"
        vocab.save(vocab_path)
        cfg = RunConfig(task="ner", optimizer="adamw", lr=1e-3, batch_size=2,
                        grad_accum_steps=4, max_epochs=1, seed=0,
                        deterministic=True, seq_len=64, beam_width=5,
                        label_language="en", ner_window=16, ner_stride=8,
                        d_model=32, n_heads=2, d_ff=64, n_enc_layers=1,
                        n_dec_layers=1, vocab_path=str(vocab_path),
                        train_path=str(conll), val_path=str(conll),
                        test_path=str(conll), out_dir=str(tmp_path / "ner"))
        params = init_model(_model_config(cfg, UnigramVocab.load(vocab_path)), 0)
        tagged = "John [Person] lives in [Other] New York [Local]"
        report = run_evaluate(cfg, params, split="test",
                              predict_override=lambda words: tagged)
        assert report["micro_f1"] == 1.0
        micro = report["per_class"]
        assert sum(s.n_gold for s in micro.values()) == 2
        assert sum(s.n_pred for s in micro.values()) == 2
        assert sum(s.n_correct for s in micro.values()) == 2
        # prediction file written alongside the report
        assert os.path.exists(os.path.join(cfg.out_dir, "predictions_test.conll"))

    def test_degenerate_ner_output_counts_malformed_windows(self, tmp_path):
        conll = tmp_path / "doc.conll"
        write(conll, "John B-PER\nlives O\nin O\nNew B-LOC\nYork I-LOC\n\n")
        vocab = train_vocab(["John lives in New York",
                             "Recognize Entities: x [Person] [Local] [Other]"],
                            vocab_size=90)
        vocab_path = tmp_path / "vocab.tsv"
        vocab.save(vocab_path)
        cfg = RunConfig(task="ner", optimizer="adamw", lr=1e-3, batch_size=2,
                        grad_accum_steps=1, max_epochs=1, seed=0,
                        deterministic=True, seq_len=64, label_language="en",
                        ner_window=4, ner_stride=2, d_model=32, n_heads=2,
                        d_ff=64, n_enc_layers=1, n_dec_layers=1,
                        vocab_path=str(vocab_path), test_path=str(conll),
                        out_dir=str(tmp_path / "ner"))
        params = init_model(_model_config(cfg, vocab), 0)
        counts = {}
        for name, text in (("clean", "John [Person]"), ("degenerate", "[ ] x [")):
            report = run_evaluate(cfg, params, split="test",
                                  predict_override=lambda words: text)
            with open(os.path.join(cfg.out_dir, "eval_test.txt")) as fh:
                lines = fh.read().splitlines()
            assert lines[2].startswith("micro_f1=")
            assert lines[5].startswith("n_correct=")
            assert lines[6] == f"malformed_windows={report['malformed_windows']}"
            assert lines[7].startswith("class\t")
            counts[name] = report["malformed_windows"]
        assert counts == {"clean": 0, "degenerate": 2}  # 5 words in 2 windows

    def test_untrained_generated_similarity_counts_unparsed_scores(self, tmp_path):
        train, vocab_path = similarity_fixture(tmp_path, n=6)
        cfg = similarity_cfg(tmp_path, train, vocab_path,
                             output_strategy="generate", gen_max_tokens=4)
        params = init_model(_model_config(cfg, UnigramVocab.load(vocab_path)), 0)
        report = run_evaluate(cfg, params, split="test")
        assert 0 < report["unparsed_scores"] <= 6
        with open(os.path.join(cfg.out_dir, "eval_test.txt")) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("pearson=") and lines[1].startswith("mse=")
        assert lines[2] == f"unparsed_scores={report['unparsed_scores']}"
        assert len(lines) == 4 and len(lines[3].split("\t")) == 4

    def test_vocab_size_mismatch_rejected(self, tmp_path):
        train, vocab_path = similarity_fixture(tmp_path, n=4)
        cfg = similarity_cfg(tmp_path, train, vocab_path)
        from minit5.model import ModelConfig
        wrong = init_model(ModelConfig(vocab_size=7, d_model=16, n_heads=2,
                                       d_ff=24, n_enc_layers=1, n_dec_layers=1,
                                       max_len=16), 0)
        with pytest.raises(DataError, match="vocab size"):
            run_evaluate(cfg, wrong, split="test")


class TestSyntheticNerEndToEnd:
    def test_overfit_reaches_high_f1_with_beam_and_window_merge(self, tmp_path):
        rng = random.Random(7)
        lex = {"ana": "PER", "bob": "PER", "foz": "LOC", "mar": "LOC",
               "sol": None}

        def make_doc(n):
            words = [rng.choice(list(lex)) for _ in range(n)]
            tags = [f"B-{lex[w]}" if lex[w] else "O" for w in words]
            return words, tags

        docs = [make_doc(rng.randrange(4, 7)) for _ in range(62)] + \
            [make_doc(12), make_doc(12)]
        val_docs = docs[:7] + [docs[-1]]  # the long one needs window merging

        def render(doc_list):
            out = []
            for words, tags in doc_list:
                out.extend(f"{w} {t}" for w, t in zip(words, tags))
                out.append("")
            return "\n".join(out) + "\n"

        write(tmp_path / "train.conll", render(docs))
        write(tmp_path / "val.conll", render(val_docs))
        vocab = train_vocab([" ".join(lex), "Recognize Entities: x",
                             "[Person] [Local] [Other]",
                             "ana [Person] sol [Other] foz [Local]"],
                            vocab_size=90)
        vocab.save(tmp_path / "vocab.tsv")
        cfg = RunConfig(task="ner", optimizer="adamw", lr=3e-3, batch_size=2,
                        grad_accum_steps=4, max_epochs=60, patience=3, seed=0,
                        deterministic=True, seq_len=64, beam_width=5,
                        label_language="en", ner_window=8, ner_stride=4,
                        d_model=48, n_heads=2, d_ff=96, n_enc_layers=1,
                        n_dec_layers=1, vocab_path=str(tmp_path / "vocab.tsv"),
                        train_path=str(tmp_path / "train.conll"),
                        val_path=str(tmp_path / "val.conll"),
                        out_dir=str(tmp_path / "nerrun"))
        params, log = run_finetune(cfg)
        report = run_evaluate(cfg, params, split="val")
        assert report["micro_f1"] >= 0.95


class TestLoadPackedCorpus:
    def test_reads_documents(self, tmp_path):
        write(tmp_path / "c.txt", "a b c\nd e\n\n")
        docs = load_packed_corpus(str(tmp_path / "c.txt"))
        assert [d.total_words for d in docs] == [3, 2]

    def test_empty_rejected(self, tmp_path):
        write(tmp_path / "c.txt", "\n")
        with pytest.raises(DataError, match="empty"):
            load_packed_corpus(str(tmp_path / "c.txt"))

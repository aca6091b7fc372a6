import os
import random
import socket
import subprocess
import sys

import numpy as np
import pytest

from minit5 import model
from minit5.checkpoint import save_checkpoint
from minit5.config import RunConfig
from minit5.model import init_model
from minit5.optim import DivergedError
from minit5.ner import LabelTable
from minit5.tasks import (NerExample, SentencePairExample, assin_input_ids,
                          build_ner_target, fit, make_similarity_target,
                          ner_input_ids)
from minit5.train import (DataError, LockError, _ner_items,
                          _pair_items, _pretrain_items, _train_loop, acquire_lock,
                          load_packed_corpus, run_evaluate, run_finetune,
                          run_pretrain)
from minit5.unigram import EOS_ID, PAD_ID, UnigramVocab, encode, train_vocab

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
        init = init_model(cfg.model_config(len(vocab)), cfg.seed)
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

    @staticmethod
    def big_and_accumulated_runs(tmp_path):
        big = pretrain_cfg(tmp_path, "big", batch_size=8, grad_accum_steps=1,
                           max_epochs=2)
        accum = pretrain_cfg(tmp_path, "accum", batch_size=2,
                             grad_accum_steps=4, max_epochs=2)
        pa, la = run_pretrain(big)
        pb, lb = run_pretrain(accum)
        assert [r.train_loss for r in la.records] == [r.train_loss for r in lb.records]
        for name in pa.tensors:
            assert np.array_equal(pa.tensors[name], pb.tensors[name]), name
        return pa, la

    def test_gradient_accumulation_matches_large_batch_bitwise(self, tmp_path):
        self.big_and_accumulated_runs(tmp_path)

    def test_gradient_accumulation_on_two_threads_matches_sequential_bitwise(
            self, tmp_path, monkeypatch):
        """The same comparison with every microbatch on two threads, which
        also equals the sequential runs byte for byte."""
        (tmp_path / "seq").mkdir()
        (tmp_path / "two").mkdir()
        seq, seq_log = self.big_and_accumulated_runs(tmp_path / "seq")
        monkeypatch.setattr(model, "HELPER_MIN_POSITIONS", 0)
        monkeypatch.setattr(model, "_blas_callers", lambda: 2)
        calls = []
        two_threads = model._on_two_threads
        monkeypatch.setattr(model, "_on_two_threads",
                            lambda *a: calls.append(1) or two_threads(*a))
        two, two_log = self.big_and_accumulated_runs(tmp_path / "two")
        assert calls
        assert [r.train_loss for r in seq_log.records] == \
            [r.train_loss for r in two_log.records]
        for name in seq.tensors:
            assert seq.tensors[name].tobytes() == two.tensors[name].tobytes(), name

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

    @pytest.mark.parametrize("batch_size,grad_accum_steps", [(4, 1), (2, 2), (1, 4)])
    def test_logged_loss_does_not_depend_on_microbatch_grouping(
            self, tmp_path, monkeypatch, batch_size, grad_accum_steps):
        """One running sum takes every example's loss in item order: 1 +
        2**53 rounds to 2**53, and the sum ends at 0.0 however the four
        items are cut, where a sum per microbatch would keep the second 1
        as 1 - 2**53 and log 0.25 at batch 2 x 2. The gradients are zero,
        so the parameters do not move."""
        losses = iter([1.0, 2.0 ** 53, 1.0, -2.0 ** 53])
        monkeypatch.setattr(model, "_lm_example",
                            lambda params, example, backward: (next(losses), 1, []))
        cfg = pretrain_cfg(tmp_path, "grouping", batch_size=batch_size,
                           grad_accum_steps=grad_accum_steps, max_epochs=1)
        params = init_model(model.ModelConfig(vocab_size=12, d_model=8, n_heads=2,
                                              d_ff=8, max_len=8), 0)
        before = params.copy()
        items = [(np.array([5]), np.array([1]), np.array([6]))] * 4
        trained, log = _train_loop(params, items, "lm", cfg, None)
        assert [r.train_loss for r in log.records] == [0.0]
        for name, tensor in before.tensors.items():
            assert trained.tensors[name].tobytes() == tensor.tobytes(), name

    def test_nan_checkpoint_diverges(self, tmp_path):
        cfg = pretrain_cfg(tmp_path, "nan", max_epochs=1)
        vocab = UnigramVocab.load(cfg.vocab_path)
        params = init_model(cfg.model_config(len(vocab)), 0)
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

    def test_a_falling_validation_loss_resets_patience(self, tmp_path):
        """A flat objective with a falling loss trains on; the best checkpoint
        is still the objective's, and patience counts from the last low loss."""
        params = self._tiny_params()
        items = [(np.array([5, 6]), 3.0)]
        losses = iter([5.0, 4.0, 3.0, 2.0, 1.0, 1.5, 1.5, 1.5, 0.5])

        def val_fn(p):
            return next(losses), 0.7  # (loss, objective)

        _, log = _train_loop(params, items, "regression",
                             self._loop_cfg(tmp_path, patience=1), None, val_fn,
                             maximize=True)
        assert len(log.records) == 7  # two epochs past the last low loss, at epoch 5
        assert log.best_epoch == 1
        assert [r.val_loss for r in log.records] == [5.0, 4.0, 3.0, 2.0, 1.0, 1.5, 1.5]

    def test_gradient_buffers_are_allocated_once_per_run(self, tmp_path, monkeypatch):
        """One set of buffers, zeroed before each step: the parameters equal
        those of a loop that takes fresh gradients for every step."""
        from minit5 import train
        from minit5.optim import AdamState, adamw_step
        calls = []
        monkeypatch.setattr(train, "zero_grads",
                            lambda p: calls.append(1) or model.zero_grads(p))
        items = [(np.array([5, 6]), 3.0), (np.array([7]), 2.0), (np.array([4, 8]), 1.0)]
        trained, _ = _train_loop(self._tiny_params(), items, "regression",
                                 self._loop_cfg(tmp_path, None, max_epochs=3), None)
        assert len(calls) == 1
        ref, state = self._tiny_params(), AdamState()
        for _ in range(3):
            for item in items:
                _, grads = model.loss_and_grad(ref, [item], "regression")
                adamw_step(ref.tensors, grads, state, 1e-3)
        for name, arr in ref.tensors.items():
            assert trained.tensors[name].tobytes() == arr.tobytes(), name

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
            encs = [np.array([5, 6, 7]), np.array([9]),
                    np.array([4, 8, 11, 10, 6])]
            tgts = [np.array([8, 9, 1]), np.array([5, 1]), np.array([7, 4, 10])]
            pooled = {"regression": list(zip(encs, (1.0, 2.5, 4.9))),
                      "classification": list(zip(encs, (0, 1, 1)))}
            for objective, items in pooled.items():
                assert batch_loss(params, items, objective) == \
                    loss_and_grad(params, items, objective)[0], (scheme, objective)
            lm = [(e, np.concatenate(([1], t[:-1])), t) for e, t in zip(encs, tgts)]
            assert batch_loss(params, lm, "lm") == pytest.approx(
                loss_and_grad(params, lm, "lm")[0], rel=1e-12, abs=0), scheme

    def test_lm_batch_loss_is_training_loss_bitwise_and_leaves_params(self):
        from minit5.model import ModelConfig, loss_and_grad
        from minit5.train import batch_loss
        for scheme in ("learned-absolute", "relative-bucket"):
            for seed in range(4):
                params = init_model(ModelConfig(vocab_size=8000, d_model=16,
                                                n_heads=2, d_ff=24, n_enc_layers=2,
                                                n_dec_layers=2, max_len=12,
                                                position_scheme=scheme), seed)
                rng = np.random.default_rng(seed)
                encs = [rng.integers(4, 8000, size=n) for n in (4, 1, 5)]
                tgts = [rng.integers(4, 8000, size=n) for n in (3, 2, 3)]
                lm = [(e, np.concatenate(([1], t[:-1])), t) for e, t in zip(encs, tgts)]
                before = params.copy()
                got = batch_loss(params, lm, "lm")
                for name, tensor in before.tensors.items():
                    assert np.array_equal(params.tensors[name], tensor), name
                assert got == loss_and_grad(params, lm, "lm")[0], (scheme, seed)


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
        params = init_model(cfg.model_config(len(vocab)), 0)
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
        params = init_model(cfg.model_config(len(vocab)), 0)
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
        params = init_model(cfg.model_config(len(UnigramVocab.load(vocab_path))), 0)
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
        params = init_model(cfg.model_config(len(vocab)), 0)
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

    def test_ner_windows_decoded_together_write_per_window_predictions(
            self, tmp_path, monkeypatch):
        from minit5 import decoding
        from minit5.decoding import beam_decode
        from minit5.ner import (LabelTable, merge_windows, parse_tagged_output,
                                to_bio, write_conll_predictions)
        from minit5.tasks import read_conll, window_ner_example
        from minit5.unigram import decode
        conll = tmp_path / "docs.conll"
        docs = [("John lives in New York and John lives", "B-PER O O B-LOC I-LOC O B-PER O"),
                ("in York John lives New in John York", "O B-LOC B-PER O B-LOC O B-PER B-LOC"),
                ("New York lives in John John New", "B-LOC I-LOC O O B-PER B-PER B-LOC")]
        write(conll, "".join("".join(f"{w} {t}\n" for w, t in zip(ws.split(), ts.split()))
                             + "\n" for ws, ts in docs))
        vocab = train_vocab(["John lives in New York",
                             "Recognize Entities: x [Person] [Local] [Other]"],
                            vocab_size=90)
        vocab_path = tmp_path / "vocab.tsv"
        vocab.save(vocab_path)
        cfg = RunConfig(task="ner", optimizer="adamw", lr=1e-3, batch_size=2,
                        max_epochs=1, seed=0, deterministic=True, seq_len=64,
                        beam_width=3, label_language="en", ner_window=4,
                        ner_stride=2, d_model=32, n_heads=2, d_ff=64,
                        n_enc_layers=1, n_dec_layers=1, vocab_path=str(vocab_path),
                        test_path=str(conll), out_dir=str(tmp_path / "ner"))
        params = init_model(cfg.model_config(len(vocab)), 2)
        # the decoder step, steered by each row's window: one holding "York"
        # emits eos at once, a clean empty tagging; any other opens with "x"
        # and never closes a bracket, so its words dangle. The batched and
        # the per-window decode both search the steered step.
        closing = [i for i in range(len(vocab)) if "]" in vocab.piece(i)]

        class Steered(decoding.DecoderStepper):
            def __init__(self, params, sources):
                super().__init__(params, sources)
                self.stops = np.array(["York" in decode(vocab, list(src)) for src in sources])

            def step(self, tokens, parents=None):
                logits = super().step(tokens, parents)
                stop = self.stops[self.row_src]
                logits[stop] = -np.inf
                logits[stop, EOS_ID] = 0.0
                logits[np.ix_(~stop, closing)] = -np.inf
                if parents is None:
                    logits[~stop] = -np.inf
                    logits[~stop, vocab.id_of("x")] = 0.0
                return logits

        monkeypatch.setattr(decoding, "DecoderStepper", Steered)
        report = run_evaluate(cfg, params, split="test")
        got = (tmp_path / "ner" / "predictions_test.conll").read_bytes()

        table, rows, lengths, malformed = LabelTable("en"), [], [], 0
        for ex in read_conll(str(conll)):
            per_window = []
            for offset, words, _ in window_ner_example(ex, 4, 2):
                enc = fit(ner_input_ids(vocab, list(words)), 64)
                ids = beam_decode(params, enc, width=3,
                                  max_out=min(64, 4 * len(words) + 8))
                parsed = parse_tagged_output(decode(vocab, ids), table)
                per_window.append((offset, to_bio(parsed.segments, list(words))))
                lengths.append(len(ids))
                malformed += bool(parsed.flags)
            assert len(per_window) >= 3
            rows.append((list(ex.words), list(ex.tags),
                         merge_windows(per_window, len(ex.words))))
        write_conll_predictions(tmp_path / "want.conll", rows)
        assert len(rows) == 3 and len(set(lengths)) > 1 and 0 < malformed < len(lengths)
        assert got == (tmp_path / "want.conll").read_bytes()
        assert report["malformed_windows"] == malformed

    def test_untrained_generated_similarity_counts_unparsed_scores(self, tmp_path):
        train, vocab_path = similarity_fixture(tmp_path, n=6)
        cfg = similarity_cfg(tmp_path, train, vocab_path,
                             output_strategy="generate", gen_max_tokens=4)
        params = init_model(cfg.model_config(len(UnigramVocab.load(vocab_path))), 0)
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


class TestEncoderInputCut:
    """An over-long input or target is cut to the limit with its closing EOS
    kept, as `minit5 decode` cuts its inputs; one that fits stays whole."""

    def test_over_long_pair_and_ner_inputs_end_in_eos(self):
        vocab = train_vocab([" ".join(WORDS)] * 4, vocab_size=60)
        ex = SentencePairExample("p1", " ".join(WORDS), " ".join(WORDS[::-1]), 3.0)
        words = WORDS * 2
        full_pair = assin_input_ids(vocab, ex.sentence1, ex.sentence2)
        full_ner = ner_input_ids(vocab, words)
        limit = 12
        assert min(len(full_pair), len(full_ner)) > limit
        (enc, _), = _pair_items(vocab, [ex], "regression", limit)
        for got, full in ((enc, full_pair),
                          (fit(ner_input_ids(vocab, list(words)), limit), full_ner)):
            assert list(got) == full[:limit - 1] + [EOS_ID]
        for limit in (len(full_pair), len(full_pair) + 5):
            (enc, _), = _pair_items(vocab, [ex], "regression", limit)
            assert list(enc) == full_pair

    def test_over_long_similarity_and_ner_targets_end_in_eos(self):
        vocab = train_vocab([" ".join(WORDS), "[Person] [Other] 0 1 2 3 4 5 ."] * 4,
                            vocab_size=80)
        ex = SentencePairExample("p1", "casa", "gato", 3.5)
        words = tuple(WORDS)
        doc = NerExample("d1", words, ("B-PER", "I-PER") + ("O",) * 6)
        cfg = RunConfig(task="ner", optimizer="adamw", lr=1e-3, batch_size=1,
                        max_epochs=1, label_language="en", ner_window=8,
                        ner_stride=4)
        table = LabelTable("en")
        full_sim = make_similarity_target(3.5, vocab)
        full_ner = encode(vocab, build_ner_target(list(words), list(doc.tags),
                                                  table)) + [EOS_ID]
        assert 2 < len(full_sim) < len(full_ner)
        for limit in range(1, len(full_ner) + 3):
            (_, _, sim), = _pair_items(vocab, [ex], "lm", limit)
            (_, _, ner), = _ner_items(cfg, vocab, table, [doc], limit)
            for got, full in ((sim, full_sim), (ner, full_ner)):
                want = full if len(full) <= limit else full[:limit - 1] + [EOS_ID]
                assert got.tolist() == want, limit


class TestItemsAreUnpadded:
    def test_no_item_builder_emits_pad(self):
        """The premise of a model without pad masks: no fine-tuning item
        (generated and linear-head similarity, entailment, NER) and no
        pretraining pair holds <pad>, at limits that cut and that fit."""
        vocab = train_vocab([" ".join(WORDS), "[Person] [Other] 0 1 2 3 4 5 .",
                             "ASSIN sentence1: x sentence2: y Recognize Entities: z"] * 4,
                            vocab_size=90)
        rng = random.Random(0)
        pairs = [SentencePairExample(f"p{i}", " ".join(rng.sample(WORDS, 4)),
                                     " ".join(rng.sample(WORDS, 3)),
                                     rng.choice((1.0, 2.5, 4.8)),
                                     rng.choice(("entail", "none")))
                 for i in range(6)]
        docs = [NerExample("d1", tuple(WORDS), ("B-PER", "I-PER") + ("O",) * 6),
                NerExample("d2", ("sol",), ("B-LOC",))]
        cfg = RunConfig(task="ner", optimizer="adamw", lr=1e-3, batch_size=1,
                        max_epochs=1, label_language="en", ner_window=4,
                        ner_stride=2, mask_rate=0.15, seed=0)
        table = LabelTable("en")
        packed = [" ".join(rng.choices(WORDS, k=rng.randrange(1, 40))) for _ in range(8)]
        for limit in (3, 8, 64):
            items = (_pair_items(vocab, pairs, "lm", limit)
                     + _pair_items(vocab, pairs, "regression", limit)
                     + _pair_items(vocab, pairs, "classification", limit)
                     + _ner_items(cfg, vocab, table, docs, limit)
                     + _pretrain_items(cfg, vocab, packed, limit))
            for item in items:
                seqs = item if len(item) == 3 else item[:1]
                assert all(PAD_ID not in np.asarray(seq) for seq in seqs), (limit, item)


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
        write(tmp_path / "c.txt", "a  b\tc\n d e \n\n")
        assert load_packed_corpus(str(tmp_path / "c.txt")) == ["a b c", "d e"]

    def test_empty_rejected(self, tmp_path):
        write(tmp_path / "c.txt", "\n")
        with pytest.raises(DataError, match="empty"):
            load_packed_corpus(str(tmp_path / "c.txt"))

import math
import sys
import threading
import time

import numpy as np
import pytest

from minit5 import model
from minit5.model import (ModelConfig, accumulate_loss_and_grad,
                          classification_head, embedding_only_mask,
                          encoder_mean_pool, forward, init_model,
                          loss_and_grad, loss_xent, parameter_count,
                          regression_head, zero_grads)
from minit5.model import (_attn_bwd, _attn_fwd, _causal_bias, _dgelu,
                          _embed_bwd, _embed_fwd, _encoder_fwd, _gelu,
                          _replay, _softmax_rows,
                          _xent_sum_and_dlogits, log_softmax)

from oracles import (attention_out_of_place, central_diff_grads, dgelu_pow,
                     gelu_pow, max_rel_error, relative_bias_grad_per_head)

CFG = ModelConfig(vocab_size=12, d_model=16, n_heads=2, d_ff=24,
                  n_enc_layers=1, n_dec_layers=1, max_len=12)


def small_batch():
    return [(np.array([5, 6, 7]), np.array([1, 8, 9]), np.array([8, 9, 1])),
            (np.array([4, 9]), np.array([1, 5]), np.array([5, 1]))]


class TestInit:
    def test_same_seed_identical(self):
        a = init_model(CFG, seed=3)
        b = init_model(CFG, seed=3)
        assert a.tensors.keys() == b.tensors.keys()
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k])

    def test_different_seed_differs(self):
        a = init_model(CFG, seed=3)
        b = init_model(CFG, seed=4)
        assert not np.array_equal(a.tensors["tok_emb"], b.tensors["tok_emb"])

    def test_head_dim_arithmetic(self):
        cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=2)
        assert cfg.d_model // cfg.n_heads == 4
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(vocab_size=10, d_model=8, n_heads=3)

    @pytest.mark.parametrize("name,value", [
        ("d_model", 0), ("n_heads", 0), ("n_heads", -2), ("d_ff", 0),
        ("max_len", 0), ("n_enc_layers", -1), ("n_dec_layers", -1)])
    def test_sizes_out_of_range_raise_value_error(self, name, value):
        with pytest.raises(ValueError, match=name):
            ModelConfig(**{"vocab_size": 10, "d_model": 8, "n_heads": 2, name: value})

    @pytest.mark.parametrize("n_enc,n_dec", [(0, 1), (1, 0), (0, 0)])
    def test_stacks_without_layers_train(self, n_enc, n_dec):
        """Layer counts may be zero. Without decoder layers the LM loss does
        not read the encoder, so the encoder's gradient is zero."""
        cfg = ModelConfig(vocab_size=12, d_model=16, n_heads=2, d_ff=24,
                          n_enc_layers=n_enc, n_dec_layers=n_dec, max_len=12)
        loss, grads = loss_and_grad(init_model(cfg, seed=1), small_batch(), "lm")
        assert math.isfinite(loss)
        assert grads["enc.final_ln.g"].any() == (n_dec > 0)

    def test_parameter_count_matches_shape_sum(self):
        cfg = ModelConfig(vocab_size=100, d_model=16, n_heads=2, d_ff=32,
                          n_enc_layers=2, n_dec_layers=2, max_len=20,
                          tie_embeddings=True)
        params = init_model(cfg, seed=0)
        v, d, dff, m = 100, 16, 32, 20
        enc_layer = 2 * d + 4 * d * d + 2 * d * dff
        dec_layer = 3 * d + 8 * d * d + 2 * d * dff
        want = (v * d + m * d + 2 * enc_layer + d + 2 * dec_layer + d
                + (d + 1) + (2 * d + 2))
        assert parameter_count(params) == want

    def test_untied_adds_projection(self):
        cfg = ModelConfig(vocab_size=50, d_model=16, n_heads=2, d_ff=32,
                          n_enc_layers=1, n_dec_layers=1, max_len=8,
                          tie_embeddings=False)
        params = init_model(cfg, seed=0)
        assert params.tensors["out_proj"].shape == (16, 50)


class TestForward:
    def test_logits_shape(self):
        params = init_model(CFG, seed=1)
        logits = forward(params, np.array([5, 6]), np.array([1, 7, 8]))
        assert logits.shape == (3, CFG.vocab_size)

    def test_softmax_rows_normalize(self):
        params = init_model(CFG, seed=1)
        logits = forward(params, np.array([5, 6]), np.array([1, 7, 8]))
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("enc,dec,what", [
        ([5, 6, 7, 0, 0], [1, 7], "enc_ids"), ([5, 0, 7], [1, 7], "enc_ids"),
        ([0, 0], [1], "enc_ids"), ([5, 6, 7], [1, 7, 0], "dec_ids"),
        ([5, 6, 7], [1, 0, 7], "dec_ids")],
        ids=["enc-suffix", "enc-inside", "enc-all", "dec-suffix", "dec-inside"])
    def test_pad_anywhere_rejected(self, enc, dec, what):
        """No sequence is padded: a pad is an error naming its argument,
        not a position the model masks."""
        params = init_model(CFG, seed=2)
        with pytest.raises(ValueError, match=f"{what} contains the padding id 0"):
            forward(params, np.array(enc), np.array(dec))

    def test_causality(self):
        params = init_model(CFG, seed=2)
        enc = np.array([5, 6])
        a = forward(params, enc, np.array([1, 7, 8, 9]))
        b = forward(params, enc, np.array([1, 7, 4, 11]))
        assert np.array_equal(a[:2], b[:2])
        assert not np.array_equal(a[2:], b[2:])

    def test_length_overflow(self):
        params = init_model(CFG, seed=1)
        with pytest.raises(ValueError, match="max_len"):
            forward(params, np.arange(4, 4 + CFG.max_len + 1) % 12, np.array([1]))

    @pytest.mark.parametrize("tgt,match", [
        ([8, 0, 1], "targets contains the padding id"),
        ([8, 12, 1], "targets contains ids outside the vocabulary"),
        ([8, 9], "targets must be one id per logits row")],
        ids=["pad", "past-vocab", "short"])
    def test_bad_lm_target_is_a_named_value_error(self, tgt, match):
        params = init_model(CFG, seed=1)
        with pytest.raises(ValueError, match=match):
            loss_and_grad(params, [(np.array([5, 6]), np.array([1, 8, 9]),
                                    np.array(tgt))], "lm")


class TestLossXent:
    def test_uniform_logits(self):
        logits = np.zeros((3, 4))
        assert loss_xent(logits, np.array([1, 2, 3])) == pytest.approx(math.log(4))

    def test_one_hot_limit(self):
        targets = np.array([2, 1])
        logits = np.full((2, 4), -1e9)
        logits[0, 2] = logits[1, 1] = 1e9
        assert loss_xent(logits, targets) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_log_softmax_gather(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 3, size=(7, 9))
        targets = rng.integers(1, 9, size=7)
        got = loss_xent(logits, targets)
        # independent: explicit normalization per row
        want = 0.0
        for i, t in enumerate(targets):
            row = logits[i]
            want += -(row[t] - math.log(np.exp(row).sum()))
        assert got == pytest.approx(want / 7, rel=1e-12)

    @pytest.mark.parametrize("logits,targets,match", [
        (np.zeros((3, 4)), [1, 0, 2], "targets contains the padding id 0"),
        (np.zeros((2, 4)), [0, 0], "targets contains the padding id 0"),
        (np.zeros((2, 4)), [1, 4], "targets contains ids outside the vocabulary"),
        (np.zeros((2, 4)), [1, -1], "targets contains ids outside the vocabulary"),
        (np.zeros((0, 4)), [], "targets must be one id per logits row, at least one"),
        (np.zeros((2, 4)), [1], "targets must be one id per logits row")],
        ids=["pad", "all-pad", "past-vocab", "negative", "empty", "short"])
    def test_bad_targets_are_named_value_errors(self, logits, targets, match):
        with pytest.raises(ValueError, match=match):
            loss_xent(logits, np.array(targets, dtype=np.int64))


# every lm-path tensor of the untied relative-bucket stack, two layers each;
# at d_model=8 the step must be smaller for the O(h^2) error to stay in bound
RELATIVE_UNTIED = ModelConfig(vocab_size=12, d_model=8, n_heads=2, d_ff=8,
                              n_enc_layers=2, n_dec_layers=2, max_len=12,
                              position_scheme="relative-bucket",
                              tie_embeddings=False)


class TestNumerics:
    """The elementwise kernels against their textbook forms. The cube is
    x * x * x (two roundings) where the reference takes libm pow (one), so
    GELU agrees to rounding relative to the input's scale, not elementwise:
    in the negative tail 1 + tanh cancels, and there a last-bit change in the
    tanh argument moves the tiny result by up to ~1e-12 of itself."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(0)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-200,
                   30.0, -30.0, 1e3, -1e3, 1e100, -1e100]
        return np.concatenate([rng.normal(0.0, s, 50_000) for s in (0.5, 1.0, 3.0, 10.0)]
                              + [rng.uniform(-12.0, 12.0, 50_000), special])

    def test_gelu_matches_pow_formula(self):
        x = self.inputs()
        act, t = _gelu(x)
        # |gelu(x)| <= |x|, so |x| is the output's scale
        assert np.all(np.abs(act - gelu_pow(x)) <= 1e-15 * np.abs(x))
        assert np.all(np.abs(_dgelu(x, t) - dgelu_pow(x))
                      <= 1e-15 * np.maximum(1.0, np.abs(x)))

    def test_dgelu_matches_central_difference(self):
        x = np.random.default_rng(1).normal(0.0, 2.0, 2_000)
        h = 1e-5
        numeric = (_gelu(x + h)[0] - _gelu(x - h)[0]) / (2.0 * h)
        assert np.max(np.abs(_dgelu(x, _gelu(x)[1]) - numeric)) < 1e-9

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_xent_loss_bitwise_and_dlogits_close(self, scale):
        rng = np.random.default_rng(2)
        logits = rng.normal(0.0, scale, size=(9, 13))
        targets = rng.integers(1, 13, size=9)
        rows = np.arange(9)
        loss_sum, dlogits = _xent_sum_and_dlogits(logits.copy(), targets)
        lp = log_softmax(logits)
        assert loss_sum == float(-np.sum(lp[rows, targets]))
        want = np.exp(lp)
        want[rows, targets] -= 1.0
        assert np.max(np.abs(dlogits - want)) <= 1e-15
        assert loss_xent(logits, targets) == loss_sum / targets.size

    def test_loss_xent_leaves_logits_unchanged(self):
        logits = np.random.default_rng(3).normal(0.0, 2.0, size=(5, 7))
        before = logits.copy()
        loss_xent(logits, np.array([1, 2, 3, 4, 5]))
        assert np.array_equal(logits, before)

    def test_softmax_rows_is_in_place(self):
        s = np.random.default_rng(4).normal(size=(2, 3, 5))
        e = np.exp(s - np.max(s, axis=-1, keepdims=True))
        want = e / np.sum(e, axis=-1, keepdims=True)
        out = _softmax_rows(s)
        assert out is s
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("kind", ["causal", "key-masked", "relative-bias"])
    def test_attention_equals_out_of_place_reference(self, kind):
        rng = np.random.default_rng(5)
        d, n_heads, nq = 8, 2, 5
        nk = 7 if kind == "key-masked" else nq
        h_q = rng.normal(size=(nq, d))
        h_kv = rng.normal(size=(nk, d)) if kind == "key-masked" else h_q
        ws = [rng.normal(0.0, 0.5, size=(d, d)) for _ in range(4)]
        if kind == "key-masked":
            bias = np.array([0.0, 0.0, -np.inf, 0.0, 0.0, -np.inf, 0.0])[None, None, :]
        elif kind == "causal":
            bias = _causal_bias(nq)
        else:
            bias = _causal_bias(nq) + rng.normal(size=(n_heads, nq, nq))
        dout = rng.normal(size=(nq, d))
        out, cache = _attn_fwd(h_q, h_kv, *ws, n_heads, bias)
        got = (out,) + _attn_bwd(dout, cache)
        want = attention_out_of_place(h_q, h_kv, *ws, n_heads, bias, dout)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("bidirectional", [True, False], ids=["enc", "dec"])
    def test_relative_bias_gradient_equals_per_head_scatter(self, bidirectional):
        params = init_model(RELATIVE_UNTIED, seed=2)
        rng = np.random.default_rng(8)
        n, n_heads = 9, RELATIVE_UNTIED.n_heads
        ids = rng.integers(4, RELATIVE_UNTIED.vocab_size, size=n)
        table = "enc_rel_bias" if bidirectional else "dec_rel_bias"
        _, _, cache = _embed_fwd(params, ids, "enc" if bidirectional else "dec")
        d_scores = [rng.normal(size=(n_heads, n, n)) for _ in range(2)]
        start = rng.normal(size=params.tensors[table].shape)
        grads = {"tok_emb": np.zeros_like(params.tensors["tok_emb"]), table: start.copy()}
        additions = []
        _embed_bwd(cache, np.zeros((n, RELATIVE_UNTIED.d_model)), d_scores, additions)
        _replay(grads, additions)
        want = relative_bias_grad_per_head(start, cache[2], d_scores)
        assert np.array_equal(grads[table], want)


def helper_cases():
    """Named (config, objective, batch) params: every objective, learned and
    relative positions, tied and untied heads, odd and even batch sizes."""
    rng = np.random.default_rng(11)

    def ids(n):
        out = rng.integers(1, 40, n)
        out[rng.random(n) < 0.2] = 4  # a repeated content id
        out[0] = 5
        return out

    cases = []
    for scheme in ("learned-absolute", "relative-bucket"):
        for tied in (True, False):
            cfg = ModelConfig(vocab_size=40, d_model=8, n_heads=2, d_ff=12,
                              n_enc_layers=2, n_dec_layers=2, max_len=16,
                              position_scheme=scheme, tie_embeddings=tied)
            for size in (2, 3, 4, 5):
                lm = []
                for _ in range(size):
                    tgt = ids(int(rng.integers(1, 16)))
                    lm.append((ids(int(rng.integers(1, 16))),
                               np.concatenate(([1], tgt[:-1])), tgt))
                pooled = [ids(int(rng.integers(1, 16))) for _ in range(size)]
                for objective, batch in (
                        ("lm", lm),
                        ("regression", [(e, float(rng.uniform(1, 5))) for e in pooled]),
                        ("classification", [(e, int(rng.integers(0, 2))) for e in pooled])):
                    name = f"{scheme}-{'tied' if tied else 'untied'}-{objective}-{size}"
                    cases.append(pytest.param(cfg, objective, batch, id=name))
    return cases


class TestHelperThread:
    """accumulate_loss_and_grad on two threads (threshold patched to 0, room
    for two BLAS callers) against the sequential loop: loss sum, units and
    every gradient byte, the sign of zero included; errors; no thread left
    behind."""

    @pytest.mark.parametrize("env,callers", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 2), ({"OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 1), ({"OPENBLAS_NUM_THREADS": "x"}, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 1)])
    def test_blas_callers_divides_the_cpus_by_blas_threads(self, monkeypatch, env,
                                                           callers):
        """An unpinned BLAS already runs a thread per CPU, and a second caller
        only oversubscribes them."""
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert model._blas_callers() == callers

    @staticmethod
    def run(monkeypatch, threaded, params, batch, objective, with_grads):
        monkeypatch.setattr(model, "HELPER_MIN_POSITIONS", 0 if threaded else 10**9)
        monkeypatch.setattr(model, "_blas_callers", lambda: 2)
        calls = []
        two = model._on_two_threads
        monkeypatch.setattr(model, "_on_two_threads",
                            lambda *a: calls.append(1) or two(*a))
        grads = zero_grads(params) if with_grads else None
        threads = threading.active_count()
        try:
            loss, units = accumulate_loss_and_grad(params, batch, objective, grads)
            out = (np.float64(loss).tobytes(), units)
        except ValueError as exc:
            out = ("raised", str(exc))
        assert threading.active_count() == threads
        assert calls == ([1] if threaded else [])
        return out, grads

    @staticmethod
    def assert_same_bytes(grads_a, grads_b):
        assert (grads_a is None) == (grads_b is None)
        for name in grads_a or {}:
            assert grads_a[name].tobytes() == grads_b[name].tobytes(), name

    @pytest.mark.parametrize("with_grads", [True, False], ids=["grads", "no-grads"])
    @pytest.mark.parametrize("cfg,objective,batch", helper_cases())
    def test_two_threads_equal_the_sequential_loop_bitwise(self, monkeypatch, cfg,
                                                           objective, batch, with_grads):
        params = init_model(cfg, seed=4)
        seq, g_seq = self.run(monkeypatch, False, params, batch, objective, with_grads)
        two, g_two = self.run(monkeypatch, True, params, batch, objective, with_grads)
        assert seq[0] != "raised"
        assert two == seq
        self.assert_same_bytes(g_seq, g_two)

    @pytest.mark.parametrize("with_grads", [True, False], ids=["grads", "no-grads"])
    @pytest.mark.parametrize("bad", [1, 2], ids=["helper", "main"])
    @pytest.mark.parametrize("fault", ["all-pad-target", "out-of-range-id"])
    def test_errors_raise_as_in_the_sequential_loop(self, monkeypatch, fault, bad,
                                                    with_grads):
        params = init_model(CFG, seed=4)
        batch = small_batch() * 3
        enc, dec, tgt = batch[bad]
        if fault == "all-pad-target":
            batch[bad] = (enc, dec, np.zeros_like(tgt))
        else:
            batch[bad] = (np.concatenate((enc, [CFG.vocab_size])), dec, tgt)
        seq, g_seq = self.run(monkeypatch, False, params, batch, "lm", with_grads)
        two, g_two = self.run(monkeypatch, True, params, batch, "lm", with_grads)
        assert seq[0] == "raised"
        assert two == seq
        # the examples before the failing one were added, in both paths
        self.assert_same_bytes(g_seq, g_two)

    def test_the_helper_runs_at_most_one_example_ahead(self, monkeypatch):
        """At any time at most two examples are running or finished but not
        yet replayed, however slowly the caller replays: a helper free to run
        ahead would hold many examples' gradients at once."""
        monkeypatch.setattr(model, "HELPER_MIN_POSITIONS", 0)
        monkeypatch.setattr(model, "_blas_callers", lambda: 2)
        lock, live, peak, started = threading.Lock(), [0], [0], []
        replay, two = model._replay, model._on_two_threads

        def counted(run_one):
            def run(example):
                with lock:
                    started.append(1)
                    live[0] += 1
                    peak[0] = max(peak[0], live[0])
                return run_one(example)
            return run

        def slow_replay(grads, additions):
            time.sleep(0.01)  # time for a helper that may run ahead to do so
            replay(grads, additions)
            with lock:
                live[0] -= 1

        monkeypatch.setattr(model, "_replay", slow_replay)
        monkeypatch.setattr(model, "_on_two_threads",
                            lambda run_one, batch: two(counted(run_one), batch))
        params = init_model(CFG, seed=4)
        batch = small_batch() * 4
        accumulate_loss_and_grad(params, batch, "lm", zero_grads(params))
        assert len(started) == len(batch)
        assert live[0] == 0
        assert 1 <= peak[0] <= 2

    def test_concurrent_calls_under_rapid_switching(self, monkeypatch):
        """Four callers at once, each with its own helper, on lengths that
        grow the shared causal mask and bucket tables while the others read
        them, with the interpreter switching threads every microsecond."""
        cases = [p.values for p in helper_cases() if p.values[1] == "lm"][::4]
        want = []
        for cfg, objective, batch in cases:
            params = init_model(cfg, seed=4)
            want.append(self.run(monkeypatch, False, params, batch, objective, True))
        got = [None] * len(cases)

        def caller(k):
            cfg, objective, batch = cases[k]
            grads = zero_grads(init_model(cfg, seed=4))
            loss, units = accumulate_loss_and_grad(init_model(cfg, seed=4), batch,
                                                   objective, grads)
            got[k] = (np.float64(loss).tobytes(), units), grads

        monkeypatch.setattr(model, "HELPER_MIN_POSITIONS", 0)
        monkeypatch.setattr(model, "_tables", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for start in range(0, len(cases), 4):
                callers = [threading.Thread(target=caller, args=(k,))
                           for k in range(start, min(start + 4, len(cases)))]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for (out_w, grads_w), (out_g, grads_g) in zip(want, got):
            assert out_g == out_w
            self.assert_same_bytes(grads_w, grads_g)


@pytest.mark.slow
class TestGradients:
    @pytest.mark.parametrize("cfg,h", [(CFG, 1e-3), (RELATIVE_UNTIED, 2e-4)],
                             ids=["tied-absolute-1x1", "untied-relative-2x2"])
    def test_lm_gradients_match_finite_differences(self, cfg, h):
        params = init_model(cfg, seed=5)
        batch = small_batch()
        _, grads = loss_and_grad(params, batch, "lm")

        def f():
            total, toks = 0.0, 0
            for enc, dec, tgt in batch:
                total += loss_xent(forward(params, enc, dec), tgt) * len(tgt)
                toks += len(tgt)
            return total / toks

        numeric = central_diff_grads(f, params.tensors, h=h)
        for name in params.tensors:
            if name.startswith(("reg.", "cls.")):
                continue  # not on the lm path
            assert max_rel_error(grads[name], numeric[name]) < 1e-3, name

    def test_head_gradients_match_finite_differences(self):
        params = init_model(CFG, seed=6)
        for objective, batch in (
                ("regression", [(np.array([5, 6, 7]), 2.5), (np.array([8, 4]), 4.0)]),
                ("classification", [(np.array([5, 6, 7]), 0), (np.array([8, 4]), 1)])):
            _, grads = loss_and_grad(params, batch, objective)

            def f():
                loss, _ = loss_and_grad(params, batch, objective)
                return loss

            numeric = central_diff_grads(f, params.tensors, h=1e-3)
            for name in params.tensors:
                if name.startswith("dec.") or name in ("pos_emb",):
                    continue  # decoder tensors are off the pooled path
                assert max_rel_error(grads[name], numeric[name]) < 1e-3, \
                    (objective, name)

    def test_embedding_only_mask(self):
        params = init_model(CFG, seed=7)
        mask = embedding_only_mask(params)
        assert set(mask) == set(params.tensors)
        assert [name for name, on in mask.items() if on] == ["tok_emb"]

    def test_duplicated_batch_mean_invariance(self):
        params = init_model(CFG, seed=8)
        batch = small_batch()
        loss1, grads1 = loss_and_grad(params, batch, "lm")
        loss2, grads2 = loss_and_grad(params, batch + batch, "lm")
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for name in grads1:
            assert np.allclose(grads1[name], grads2[name], rtol=1e-12, atol=1e-15)

    def test_relative_bucket_gradients(self):
        cfg = ModelConfig(vocab_size=12, d_model=16, n_heads=2, d_ff=24,
                          n_enc_layers=1, n_dec_layers=1, max_len=12,
                          position_scheme="relative-bucket")
        params = init_model(cfg, seed=9)
        rng = np.random.default_rng(3)
        params.tensors["enc_rel_bias"] += rng.normal(0, 0.2, (2, 32))
        params.tensors["dec_rel_bias"] += rng.normal(0, 0.2, (2, 32))
        batch = small_batch()
        _, grads = loss_and_grad(params, batch, "lm")
        assert np.abs(grads["enc_rel_bias"]).sum() > 0

        def f():
            total, toks = 0.0, 0
            for enc, dec, tgt in batch:
                total += loss_xent(forward(params, enc, dec), tgt) * len(tgt)
                toks += len(tgt)
            return total / toks

        numeric = central_diff_grads(
            f, {k: params.tensors[k] for k in ("enc_rel_bias", "dec_rel_bias")},
            h=1e-3)
        for name in numeric:
            assert max_rel_error(grads[name], numeric[name]) < 1e-3, name


class TestPooling:
    def test_single_token_pool_is_that_state(self):
        params = init_model(CFG, seed=10)
        states, _ = _encoder_fwd(params, np.array([7]))
        pool = encoder_mean_pool(params, np.array([7]))
        assert np.array_equal(pool, states[0])

    @pytest.mark.parametrize("enc", [[7, 9, 0, 0, 0], [0, 0]], ids=["suffix", "all"])
    def test_pad_rejected(self, enc):
        params = init_model(CFG, seed=10)
        with pytest.raises(ValueError, match="enc_ids contains the padding id 0"):
            encoder_mean_pool(params, np.array(enc))

    def test_two_token_hand_average(self):
        params = init_model(CFG, seed=10)
        states, _ = _encoder_fwd(params, np.array([7, 9]))
        want = (states[0] + states[1]) / 2.0
        pool = encoder_mean_pool(params, np.array([7, 9]))
        assert np.allclose(pool, want, rtol=1e-15, atol=0)


class TestHeads:
    def test_regression_midpoint(self):
        d = 4
        pool = np.zeros(d)
        assert regression_head(pool, np.ones(d), np.zeros(1)) == pytest.approx(3.0)

    def test_regression_hand_value(self):
        # pre-activation ln 3 -> sigmoid 0.75 -> 4 * 0.75 + 1 = 4.0
        pool = np.array([math.log(3.0)])
        assert regression_head(pool, np.ones(1), np.zeros(1)) == pytest.approx(4.0)

    def test_regression_saturation_bounds(self):
        pool = np.array([1.0])
        lo = regression_head(pool, np.array([-1e3]), np.zeros(1))
        hi = regression_head(pool, np.array([1e3]), np.zeros(1))
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(5.0, abs=1e-9)
        rng = np.random.default_rng(1)
        for z in rng.normal(0, 50, size=1000):
            s = regression_head(np.array([z]), np.ones(1), np.zeros(1))
            assert 1.0 <= s <= 5.0

    def test_classification_equal_logits(self):
        probs = classification_head(np.zeros(3), np.zeros((3, 2)), np.zeros(2))
        assert np.allclose(probs, [0.5, 0.5])

    def test_classification_ln3_gap(self):
        probs = classification_head(np.zeros(3), np.zeros((3, 2)),
                                    np.array([0.0, math.log(3.0)]))
        assert np.allclose(probs, [0.25, 0.75], atol=1e-12)

    def test_classification_normalized(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pool = rng.normal(0, 5, 6)
            w = rng.normal(0, 2, (6, 2))
            b = rng.normal(0, 2, 2)
            probs = classification_head(pool, w, b)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

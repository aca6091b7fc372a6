import math

import numpy as np
import pytest

from minit5.model import (ModelConfig, classification_head,
                          embedding_only_mask, encoder_mean_pool, forward,
                          init_model, loss_and_grad, loss_xent,
                          parameter_count, regression_head)
from minit5.model import (_attn_bwd, _attn_fwd, _causal_bias, _dgelu,
                          _encoder_fwd, _gelu, _key_mask_bias, _softmax_rows,
                          _xent_sum_and_dlogits, log_softmax)

from oracles import (attention_out_of_place, central_diff_grads, dgelu_pow,
                     gelu_pow, max_rel_error)

CFG = ModelConfig(vocab_size=12, d_model=16, n_heads=2, d_ff=24,
                  n_enc_layers=1, n_dec_layers=1, max_len=12)


def small_batch():
    return [(np.array([5, 6, 7, 0, 0]), np.array([1, 8, 9]), np.array([8, 9, 1])),
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

    def test_padding_extension_leaves_logits_unchanged(self):
        params = init_model(CFG, seed=2)
        dec = np.array([1, 7])
        base = forward(params, np.array([5, 6, 7]), dec)
        padded = forward(params, np.array([5, 6, 7, 0, 0]), dec)
        assert np.array_equal(base, padded)

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

    def test_all_pad_encoder_rejected(self):
        params = init_model(CFG, seed=1)
        with pytest.raises(ValueError, match="padding"):
            forward(params, np.array([0, 0]), np.array([1]))


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

    def test_pad_positions_excluded(self):
        logits = np.zeros((3, 4))
        got = loss_xent(logits, np.array([1, 0, 2]))
        assert got == pytest.approx(math.log(4))

    def test_all_pad_error(self):
        with pytest.raises(ValueError, match="padded"):
            loss_xent(np.zeros((2, 4)), np.array([0, 0]))


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
        targets[[2, 7]] = 0
        keep = targets != 0
        rows = np.arange(9)
        loss_sum, dlogits = _xent_sum_and_dlogits(logits, targets, keep)
        lp = log_softmax(logits)
        assert loss_sum == float(-np.sum(lp[rows, targets][keep]))
        want = np.exp(lp)
        want[rows, targets] -= 1.0
        want[~keep] = 0.0
        assert np.max(np.abs(dlogits - want)) <= 1e-15
        assert loss_xent(logits, targets) == loss_sum / np.count_nonzero(keep)

    def test_loss_xent_leaves_logits_unchanged(self):
        logits = np.random.default_rng(3).normal(0.0, 2.0, size=(5, 7))
        before = logits.copy()
        loss_xent(logits, np.array([1, 2, 0, 4, 5]))
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
            bias = _key_mask_bias(np.array([True, True, False, True, True, False, True]))
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
                keep = int(np.count_nonzero(tgt != 0))
                total += loss_xent(forward(params, enc, dec), tgt) * keep
                toks += keep
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
        _, grads = loss_and_grad(params, small_batch(), "lm", trainable=mask)
        assert np.abs(grads["tok_emb"]).sum() > 0
        for name, g in grads.items():
            if name != "tok_emb":
                assert np.all(g == 0.0), name

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
                keep = int(np.count_nonzero(tgt != 0))
                total += loss_xent(forward(params, enc, dec), tgt) * keep
                toks += keep
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

    def test_pad_does_not_move_pool(self):
        params = init_model(CFG, seed=10)
        a = encoder_mean_pool(params, np.array([7, 9]))
        b = encoder_mean_pool(params, np.array([7, 9, 0, 0, 0]))
        assert np.array_equal(a, b)

    def test_two_token_hand_average(self):
        params = init_model(CFG, seed=10)
        states, _ = _encoder_fwd(params, np.array([7, 9]))
        want = (states[0] + states[1]) / 2.0
        pool = encoder_mean_pool(params, np.array([7, 9]))
        assert np.allclose(pool, want, rtol=1e-15, atol=0)

    def test_all_pad_error(self):
        params = init_model(CFG, seed=10)
        with pytest.raises(ValueError, match="padding"):
            encoder_mean_pool(params, np.array([0, 0]))


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

import tracemalloc

import numpy as np
import pytest

from minit5 import decoding
from minit5.decoding import (_row_top, beam_decode, beam_search, decode_sources,
                             greedy_decode)
from minit5.model import ModelConfig, init_model
from minit5.optim import AdamState, adamw_step
from minit5.model import loss_and_grad
from minit5.unigram import EOS_ID, encode, train_vocab

from oracles import exhaustive_decode, sequence_score

from minit5.model import (LEARNED_ABSOLUTE, RELATIVE_BUCKET, DecoderStepper,
                          _bucket_table, _relative_bucket_matrix, log_softmax)
from minit5.unigram import MASK_ID, PAD_ID
from oracles import argmax_decode, full_sort_beam, model_step_fn

VOCAB = 4  # pad, eos, two content tokens


def toy_table_model(seed: int, n_content: int = 2, scale: float = 1.0):
    """Random prefix-conditional log-prob tables over {pad, eos, content...};
    pad is never emittable."""
    vocab = 2 + n_content

    def step(prefix):
        rng = np.random.default_rng((seed, len(prefix)) + tuple(prefix))
        logits = rng.normal(0.0, scale, vocab)
        finite = logits[1:]
        z = np.log(np.exp(finite - finite.max()).sum()) + finite.max()
        lp = np.full(vocab, -np.inf)
        lp[1:] = finite - z
        return lp

    return step


class TestBeamAgainstExhaustive:
    def test_width4_equals_exhaustive_on_100_toys(self):
        for seed in range(100):
            step = toy_table_model(seed)
            got = beam_search(step, width=4, max_out=3)
            want = exhaustive_decode(step, VOCAB, 3, EOS_ID)
            assert got == want, seed

    def test_wide_beam_is_exhaustive_even_with_more_branching(self):
        # width 16 >= every reachable candidate count at depth 3 with three
        # content tokens, so the search is provably exhaustive
        for seed in range(40):
            step = toy_table_model(seed, n_content=3)
            got = beam_search(step, width=16, max_out=3)
            want = exhaustive_decode(step, 5, 3, EOS_ID)
            assert got == want, seed

    def test_increasing_width_never_decreases_score(self):
        for seed in range(100):
            step = toy_table_model(seed)
            prev = None
            for width in (1, 2, 4, 16):
                score = sequence_score(step, beam_search(step, width, 3))
                if prev is not None:
                    assert score >= prev - 1e-12, (seed, width)
                prev = score


class TestModelDecoding:
    CFG = ModelConfig(vocab_size=10, d_model=16, n_heads=2, d_ff=24,
                      n_enc_layers=1, n_dec_layers=1, max_len=12)

    def test_width1_equals_greedy_on_random_models(self):
        for seed in range(8):
            params = init_model(self.CFG, seed=seed)
            enc = np.array([4 + seed % 5, 5, 6])
            greedy = greedy_decode(params, enc, max_out=6)
            beam1 = beam_decode(params, enc, width=1, max_out=6)
            assert beam1 == greedy, seed

    def test_max_out_one(self):
        params = init_model(self.CFG, seed=0)
        out = greedy_decode(params, np.array([4, 5]), max_out=1)
        assert len(out) == 1

    def test_beam_score_never_below_greedy(self):
        for seed in range(8):
            params = init_model(self.CFG, seed=seed)
            enc = np.array([4, 5, 6])
            step = model_step_fn(params, enc)
            g = sequence_score(step, greedy_decode(params, enc, max_out=5))
            b = sequence_score(step, beam_decode(params, enc, width=5, max_out=5))
            assert b >= g - 1e-12

    def test_overfit_model_emits_trained_string(self):
        # vocabulary without a single-piece "3.1" so the target is multi-token
        vocab = train_vocab(["3 1 .", "5 7 .", "x y z"], vocab_size=20)
        target = encode(vocab, "3.1") + [EOS_ID]
        assert len(target) >= 3
        cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2,
                          d_ff=64, n_enc_layers=1, n_dec_layers=1, max_len=16)
        params = init_model(cfg, seed=0)
        enc = np.asarray(encode(vocab, "x y z") + [EOS_ID])
        tgt = np.asarray(target)
        batch = [(enc, np.concatenate(([EOS_ID], tgt[:-1])), tgt)]
        state = AdamState()
        for _ in range(400):
            loss, grads = loss_and_grad(params, batch, "lm")
            adamw_step(params.tensors, grads, state, lr=1e-2, weight_decay=0.0)
            if loss < 1e-3:
                break
        assert loss < 1e-3
        assert greedy_decode(params, enc, max_out=8) == target
        assert beam_decode(params, enc, width=5, max_out=8) == target


class TestBeamDetails:
    def test_tie_breaks_prefer_lower_ids(self):
        def step(prefix):
            lp = np.full(4, -np.inf)
            if len(prefix) == 0:
                lp[2] = lp[3] = np.log(0.5)  # exact tie between two content ids
            else:
                lp[1] = 0.0  # then eos is forced
            return lp

        assert beam_search(step, width=1, max_out=3) == [2, 1]
        assert beam_search(step, width=4, max_out=3) == [2, 1]

    def test_final_pick_prefers_higher_normalized_then_shorter(self):
        # sequence [2, eos]: cum = log .9 + log .9; sequence [eos]: log .3
        def step(prefix):
            lp = np.full(3, -np.inf)
            if len(prefix) == 0:
                lp[1] = np.log(0.3)
                lp[2] = np.log(0.9)
            else:
                lp[1] = np.log(0.9)
                lp[2] = np.log(0.1)
            return lp

        got = beam_search(step, width=3, max_out=2)
        # normalized: [2,eos] = log(.81)/2 ~ -0.105 > log(.3) ~ -1.20
        assert got == [2, 1]

    def test_width_validation(self):
        with pytest.raises(ValueError):
            beam_search(lambda p: np.zeros(3), width=0, max_out=2)
        with pytest.raises(ValueError):
            beam_search(lambda p: np.zeros(3), width=1, max_out=0)


def random_model(seed: int, scheme: str, tie: bool, max_len: int = 12):
    """A small random model; relative-bias tables are drawn too, since
    init_model leaves them at zero."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(vocab_size=int(rng.integers(8, 20)), d_model=16,
                      n_heads=2, d_ff=24, n_enc_layers=1 + seed % 2,
                      n_dec_layers=1 + seed // 2 % 2, max_len=max_len,
                      position_scheme=scheme, tie_embeddings=tie)
    params = init_model(cfg, seed=seed)
    if scheme == RELATIVE_BUCKET:
        for name in ("enc_rel_bias", "dec_rel_bias"):
            params.tensors[name] = rng.normal(0.0, 1.0, params.tensors[name].shape)
    n = int(rng.integers(2, 6))
    enc = rng.integers(4, cfg.vocab_size, size=n)
    if seed % 3 == 0:
        enc = np.concatenate((enc, [PAD_ID] * int(rng.integers(1, 4))))
    return params, enc


SCHEMES = [(scheme, tie) for scheme in (LEARNED_ABSOLUTE, RELATIVE_BUCKET)
           for tie in (True, False)]


class TestIncrementalDecoding:
    @pytest.mark.parametrize("scheme,tie", SCHEMES)
    def test_stepper_matches_uncached_forward_through_reordering(self, scheme, tie):
        self.check_stepper_rows(scheme, tie, [[5, 6, 7, 4, PAD_ID, PAD_ID]])

    @pytest.mark.parametrize("scheme,tie", SCHEMES)
    def test_many_source_stepper_matches_uncached_forward_per_row(self, scheme, tie):
        self.check_stepper_rows(scheme, tie, [[5, 6, 7, 4, PAD_ID, PAD_ID], [4],
                                              [7, 7, 6, 5, 4, 6, 5, 7, PAD_ID]])

    @staticmethod
    def check_stepper_rows(scheme, tie, sources):
        """Every row's step log-probs equal the uncached forward of its
        source and prefix, through 10 steps of random parents."""
        params, _ = random_model(3, scheme, tie)
        sources = [np.array(enc) for enc in sources]
        references = [model_step_fn(params, enc, masked=False) for enc in sources]
        stepper = DecoderStepper(params, sources)
        rng = np.random.default_rng(0)
        rows = [(s, ()) for s in range(len(sources))]  # (source, prefix)
        lp = log_softmax(stepper.step([EOS_ID] * len(sources)))
        for _ in range(10):
            for row, (s, prefix) in enumerate(rows):
                np.testing.assert_allclose(lp[row], references[s](prefix),
                                           rtol=0.0, atol=1e-12)
            # parents repeat, drop and reorder rows as beam selection does;
            # rows of one source need not stay adjacent
            parents = rng.integers(0, len(rows), size=int(rng.integers(1, 5)))
            tokens = rng.integers(1, params.cfg.vocab_size, size=parents.size)
            rows = [(rows[p][0], rows[p][1] + (int(tok),)) for p, tok in zip(parents, tokens)]
            lp = log_softmax(stepper.step(tokens, parents))
        assert len(rows[0][1]) == 10
        for row, (s, prefix) in enumerate(rows):
            np.testing.assert_allclose(lp[row], references[s](prefix),
                                       rtol=0.0, atol=1e-12)

    def test_decodes_equal_full_sort_search_over_uncached_steps(self):
        for seed in range(32):
            scheme, tie = SCHEMES[seed % 4]
            params, enc = random_model(seed, scheme, tie)
            reference = model_step_fn(params, enc)
            assert greedy_decode(params, enc, max_out=6) == \
                argmax_decode(reference, 6, EOS_ID), seed
            for width in (1, 3, 5):
                assert beam_decode(params, enc, width=width, max_out=6) == \
                    full_sort_beam(reference, width, 6, EOS_ID), (seed, width)

    def test_stepper_bucket_row_is_last_row_of_full_matrix(self):
        for n in (1, 2, 17, 128, ModelConfig(vocab_size=8).max_len):
            np.testing.assert_array_equal(
                _relative_bucket_matrix(1, n, False, q_start=n - 1)[0],
                _relative_bucket_matrix(n, n, False)[-1])

    def test_cached_bucket_tables_are_read_only_fresh_builds(self):
        # largest first, so the smaller tables are corners of a cached one
        for n in (ModelConfig(vocab_size=8).max_len, 128, 17, 2, 1):
            for bidirectional in (True, False):
                table = _bucket_table(n, bidirectional)
                assert not table.flags.writeable
                np.testing.assert_array_equal(
                    table, _relative_bucket_matrix(n, n, bidirectional))
                with pytest.raises(ValueError):
                    table[0, 0] = 1

    @pytest.mark.parametrize("chunk", [2, decoding.DECODE_CHUNK])
    def test_many_source_decodes_equal_per_source_full_sort(self, chunk, monkeypatch):
        monkeypatch.setattr(decoding, "DECODE_CHUNK", chunk)
        for seed in range(32):
            scheme, tie = SCHEMES[seed % 4]
            params, _ = random_model(seed, scheme, tie)
            rng = np.random.default_rng(100 + seed)
            sources = []
            for _ in range(int(rng.integers(2, 6))):
                enc = rng.integers(4, params.cfg.vocab_size, size=int(rng.integers(1, 7)))
                if rng.random() < 0.4:
                    enc = np.concatenate((enc, [PAD_ID] * int(rng.integers(1, 4))))
                sources.append(enc)
            max_outs = [int(m) for m in rng.integers(1, 7, size=len(sources))]
            references = [model_step_fn(params, enc) for enc in sources]
            for width in (1, 3, 5):
                got = decode_sources(params, sources, width, max_outs)
                for s, (reference, max_out) in enumerate(zip(references, max_outs)):
                    want = (argmax_decode(reference, max_out, EOS_ID) if width == 1
                            else full_sort_beam(reference, width, max_out, EOS_ID))
                    assert got[s] == want, (seed, width, s)

    def test_decode_sources_edges(self):
        params, enc = random_model(2, LEARNED_ABSOLUTE, True)
        assert decode_sources(params, [], 3, []) == []
        with pytest.raises(ValueError, match="one max_out per source"):
            decode_sources(params, [enc, enc], 3, [4])
        with pytest.raises(ValueError, match="max_out must be >= 1"):
            decode_sources(params, [enc, enc], 3, [4, 0])
        with pytest.raises(ValueError, match="one token per row"):
            DecoderStepper(params, [enc, enc]).step([EOS_ID])

    def test_one_chunk_of_decoding_stays_within_a_memory_bound(self):
        # V=8k, d=64, as the benchmark's models. A greedy step over a full
        # chunk holds [16, 8000] float64 logits (1 MB), turned into scores in
        # place, plus one exp and one ranking copy of that size; the chunk's
        # cross-attention keys and values take ~1.1 MB. One more array of
        # logits' size alive at once breaks the bound.
        cfg = ModelConfig(vocab_size=8000, d_model=64, n_heads=4, d_ff=128,
                          n_enc_layers=2, n_dec_layers=2, max_len=64)
        params = init_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        sources = [rng.integers(4, 8000, size=int(rng.integers(20, 54)))
                   for _ in range(decoding.DECODE_CHUNK)]
        decode_sources(params, sources[:1], 1, [2])  # lazy set-up outside the bound
        tracemalloc.start()
        try:
            out = decode_sources(params, sources, 1, [8] * len(sources))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(o) for o in out] == [8] * len(sources)  # a fresh model emits no eos
        assert peak < 5 * 2 ** 20, peak

    def test_max_out_equal_to_max_len(self):
        params, enc = random_model(1, LEARNED_ABSOLUTE, False, max_len=7)
        # the final norm keeps one dimension, which only tokens 5 and 6 read,
        # with opposite signs: one of them wins every step, never eos
        params.tensors["dec.final_ln.g"][1:] = 0.0
        params.tensors["out_proj"][:] = 0.0
        params.tensors["out_proj"][0, 5:7] = 1.0, -1.0
        reference = model_step_fn(params, enc)
        out = greedy_decode(params, enc, max_out=7)
        assert len(out) == 7 and out == argmax_decode(reference, 7, EOS_ID)
        for width in (1, 3, 5):
            assert beam_decode(params, enc, width=width, max_out=7) == \
                full_sort_beam(reference, width, 7, EOS_ID)
        with pytest.raises(ValueError, match="dec_ids length 8 exceeds max_len 7"):
            greedy_decode(params, enc, max_out=8)


class TestTopWidthExpansion:
    def test_rounding_tie_at_the_cut_ranks_on_the_sum(self):
        # after token 2 (lp -1), lp values 1e-17 apart all sum to exactly -1.0:
        # a full sort ties them and keeps the lowest ids, while ranking on lp
        # alone would keep 4 and 3
        def step(prefix):
            lp = np.full(5, -np.inf)
            if not prefix:
                lp[2] = -1.0
            else:
                lp[2], lp[3], lp[4] = -3e-17, -2e-17, -1e-17
            return lp

        assert -1.0 + -3e-17 == -1.0 + -1e-17
        for width in (1, 2, 3):
            assert beam_search(step, width, 2) == [2, 2]
            assert beam_search(step, width, 2) == full_sort_beam(step, width, 2, EOS_ID)

    def test_fewer_finite_candidates_than_width(self):
        def step(prefix):
            lp = np.full(6, -np.inf)
            lp[1], lp[4] = np.log(0.4), np.log(0.6)
            return lp

        for width in (3, 5, 8):
            got = beam_search(step, width, 4)
            assert got == full_sort_beam(step, width, 4, EOS_ID)
            assert got == [4, 4, 4, 4]

    def test_table_models_against_full_sort(self):
        for seed in range(60):
            step = toy_table_model(seed, n_content=3, scale=3.0)
            for width in (1, 2, 3, 5):
                assert beam_search(step, width, 4) == \
                    full_sort_beam(step, width, 4, EOS_ID), (seed, width)


def test_row_top_equals_the_full_row_sort():
    # few distinct values give ties at every cut; -inf entries never survive
    rng = np.random.default_rng(5)
    for trial in range(400):
        n_rows, v = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        scores = rng.integers(-3, 1, size=(n_rows, v)).astype(np.float64)
        scores[rng.random((n_rows, v)) < 0.3] = -np.inf
        width = int(rng.integers(1, v + 3))
        want = [(r, t) for r in range(n_rows)
                for t in sorted(range(v), key=lambda t: (-scores[r, t], t))[:width]
                if scores[r, t] > -np.inf]
        rows, toks = _row_top(scores, width)
        assert list(zip(rows.tolist(), toks.tolist())) == want, trial


def pad_first_model(vocab_size: int, text_id: int = 5, max_len: int = 32):
    """A model with no layers whose logits depend on the position alone: at
    the first step it prefers <pad>, then <M>, then text_id; at every later
    step it prefers eos."""
    cfg = ModelConfig(vocab_size=vocab_size, d_model=4, n_heads=1, d_ff=4,
                      n_enc_layers=0, n_dec_layers=0, max_len=max_len,
                      tie_embeddings=False)
    params = init_model(cfg, seed=0)
    t = params.tensors
    t["tok_emb"][:] = t["pos_emb"][:] = t["out_proj"][:] = 0.0
    t["pos_emb"][0, 0] = t["pos_emb"][1:, 1] = 1.0  # the final norm's output
    t["out_proj"][0, [PAD_ID, MASK_ID, text_id]] = 3.0, 2.0, 1.0
    t["out_proj"][1, EOS_ID] = 3.0
    return params


def test_decoding_never_emits_pad_or_mask():
    params = pad_first_model(10)
    enc = np.array([4, 5, EOS_ID])
    first = model_step_fn(params, enc, masked=False)(())
    assert [int(i) for i in np.argsort(-first)[:3]] == [PAD_ID, MASK_ID, 5]
    for width in (1, 3, 5):
        assert beam_decode(params, enc, width=width, max_out=6) == [5, EOS_ID]
        assert decode_sources(params, [enc, enc[:1]], width, [6, 1]) == [[5, EOS_ID], [5]]

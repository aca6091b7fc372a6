import random
import re
import struct

import pytest

from minit5 import corruption
from minit5.corruption import (CorruptionConfig, DenoisePair, _Lanes, _mask_flags,
                               make_pretrain_batch, mask_positions, mask_tokens,
                               read_pair_cache, write_pair_cache)
from minit5.rng import GOLDEN, MASK64, Xoshiro256StarStar, derive_seed, mix64
from minit5.unigram import EOS_ID, MASK_ID, PAD_ID, encode, train_vocab

# --- independent straight-line PRNG oracle ---------------------------------

def oracle_mix64(x):
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def oracle_doubles(seed, n):
    def rotl(v, k):
        return ((v << k) | (v >> (64 - k))) & MASK64

    s = []
    st = seed & MASK64
    for _ in range(4):
        st = (st + GOLDEN) & MASK64
        s.append(oracle_mix64(st))
    out = []
    for _ in range(n):
        res = (rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        out.append((res >> 11) * 2.0 ** -53)
    return out


class TestRng:
    def test_generator_matches_oracle_trace(self):
        rng = Xoshiro256StarStar(42)
        got = [rng.random() for _ in range(64)]
        assert got == oracle_doubles(42, 64)

    def test_derive_seed_matches_oracle(self):
        for seed, index in ((0, 0), (0, 1), (123, 7), (2 ** 63, 10 ** 6)):
            want = oracle_mix64((seed + (index + 1) * GOLDEN) & MASK64)
            assert derive_seed(seed, index) == want

    def test_frozen_values(self):
        # frozen from the oracle; guards against accidental generator changes
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(0, 1) == 7960286522194355700
        assert derive_seed(123, 7) == 8897914972836847537

    def test_mix64_is_bijective_on_sample(self):
        seen = {mix64(x) for x in range(10_000)}
        assert len(seen) == 10_000


class TestMaskTokens:
    CFG = CorruptionConfig(mask_rate=0.15, max_len=512, seed=0)

    def test_trace_seed_42(self):
        # oracle: Bernoulli draws from the documented PRNG at rate 0.15
        draws = oracle_doubles(42, 20)
        want = [i for i, d in enumerate(draws) if d < 0.15]
        assert want == [0]  # frozen
        got = [i for i, hit in enumerate(mask_positions(20, 0.15, 42)) if hit]
        assert got == want

    def test_span_collapse_structure(self):
        # seed chosen so several multi-position runs occur at rate 0.5
        ids = list(range(10, 30))
        cfg = CorruptionConfig(mask_rate=0.5, max_len=512, seed=5)
        pair = mask_tokens(ids, cfg, seed=5)
        flags = mask_positions(len(ids), 0.5, 5)
        assert any(a and b for a, b in zip(flags, flags[1:]))  # has a run
        # runs collapse: never two adjacent mask ids
        assert all(not (a == MASK_ID and b == MASK_ID)
                   for a, b in zip(pair.input_ids, pair.input_ids[1:]))
        # number of masks equals number of maximal runs
        runs = sum(1 for i, f in enumerate(flags)
                   if f and (i == 0 or not flags[i - 1]))
        assert pair.input_ids.count(MASK_ID) == runs
        # target is the original sequence plus eos
        assert pair.target_ids == tuple(ids) + (EOS_ID,)
        # unmasked ids survive in order
        kept = [t for t in pair.input_ids if t != MASK_ID]
        want_kept = [t for t, f in zip(ids, flags) if not f]
        assert kept == want_kept

    def test_low_rate_limit_identity(self):
        ids = list(range(10, 40))
        cfg = CorruptionConfig(mask_rate=1e-12, max_len=512, seed=1)
        pair = mask_tokens(ids, cfg, seed=1)
        assert pair.input_ids == tuple(ids)
        assert pair.target_ids == tuple(ids) + (EOS_ID,)

    def test_empty_input(self):
        pair = mask_tokens([], self.CFG, seed=3)
        assert pair == DenoisePair((), ())

    def test_reserved_ids_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            mask_tokens([5, PAD_ID, 6], self.CFG, seed=0)

    def test_mask_fraction_100k(self):
        flags = mask_positions(100_000, 0.15, 7)
        frac = sum(flags) / len(flags)
        assert 0.14 <= frac <= 0.16

    def test_subsequence_invariant_fuzz(self):
        rng = random.Random(77)
        for trial in range(200):
            ids = [rng.randrange(4, 100) for _ in range(rng.randrange(1, 60))]
            cfg = CorruptionConfig(mask_rate=rng.uniform(0.05, 0.9),
                                   max_len=512, seed=trial)
            pair = mask_tokens(ids, cfg, seed=trial)
            assert len(pair.input_ids) <= len(pair.target_ids)
            it = iter(pair.target_ids)
            assert all(tok in it for tok in pair.input_ids if tok != MASK_ID)

    def test_same_seed_identical(self):
        ids = list(range(20, 50))
        a = mask_tokens(ids, self.CFG, seed=99)
        b = mask_tokens(ids, self.CFG, seed=99)
        assert a == b


class TestMaskLanes:
    """make_pretrain_batch steps every document's generator together as
    uint64 lanes; they must draw the scalar generator's bits."""

    SEEDS = [0, MASK64] + [random.Random(8).randrange(2 ** 64) for _ in range(200)]

    def test_lanes_draw_the_scalar_generators_bits(self):
        lanes, scalar = _Lanes(self.SEEDS), [Xoshiro256StarStar(s) for s in self.SEEDS]
        for step in range(64):
            width = len(self.SEEDS) - 3 * step  # narrowing, as longer lanes outlast
            assert lanes.next_u64(width).tolist() == [r.next_u64() for r in scalar[:width]]
            assert lanes.random(width).tolist() == [r.random() for r in scalar[:width]]

    @pytest.mark.parametrize("rate", [1e-9, 0.15, 0.999999])
    def test_flags_equal_mask_positions_over_mixed_lengths(self, rate, monkeypatch):
        rng = random.Random(9)
        lengths = [0, 600, 1] + [rng.randrange(0, 601) for _ in self.SEEDS[3:]]
        want = [flag for n, seed in zip(lengths, self.SEEDS)
                for flag in mask_positions(n, rate, seed)]
        assert _mask_flags(lengths, rate, self.SEEDS).tolist() == want
        monkeypatch.setattr(corruption, "_LANES", 7)  # lanes in groups of 7
        assert _mask_flags(lengths, rate, self.SEEDS).tolist() == want

    def test_batch_pairs_equal_mask_tokens_with_empty_documents(self):
        vocab = tiny_vocab()
        cfg = CorruptionConfig(mask_rate=0.5, max_len=9, seed=3)
        rng = random.Random(12)
        docs = ["", doc_of(["a", "b", "c", "d", "e"] * 3), "", doc_of(["e", "d"]), ""]
        docs += [doc_of(rng.choices("abcde", k=rng.randrange(0, 4))) for _ in range(40)] + [""]
        pairs = make_pretrain_batch(docs, vocab, cfg)
        for i, (doc, pair) in enumerate(zip(docs, pairs)):
            want = mask_tokens(encode(vocab, doc)[:9], cfg, derive_seed(cfg.seed, i))
            assert pair == DenoisePair(want.input_ids, want.target_ids[:9]), i
        assert pairs[0] == pairs[-1] == DenoisePair((), ())
        assert make_pretrain_batch([], vocab, cfg) == []


def tiny_vocab():
    corpus = ["a b c d e", "b c d", "a e c"]
    return train_vocab(corpus, vocab_size=24)


def doc_of(words):
    return " ".join(words)


class TestMakePretrainBatch:
    def test_pairs_are_unpadded_and_fit_max_len(self):
        vocab = tiny_vocab()
        cfg = CorruptionConfig(mask_rate=0.15, max_len=8, seed=0)
        docs = [doc_of(["a"]), doc_of(["a", "b", "c", "d", "e"] * 4)]
        short, long = make_pretrain_batch(docs, vocab, cfg)
        assert short.target_ids[-1] == EOS_ID and len(short.target_ids) < 8
        assert len(long.target_ids) == 8
        for pair in (short, long):
            for ids in (pair.input_ids, pair.target_ids):
                assert PAD_ID not in ids and 0 < len(ids) <= 8

    def test_long_document_truncated_to_max_len(self):
        vocab = tiny_vocab()
        cfg = CorruptionConfig(mask_rate=0.15, max_len=512, seed=0)
        docs = [doc_of(["a", "b", "c", "d", "e"] * 200)]  # >> 512 tokens
        (pair,) = make_pretrain_batch(docs, vocab, cfg)
        assert len(pair.target_ids) == 512
        assert PAD_ID not in pair.target_ids
        assert EOS_ID not in pair.target_ids  # eos fell off the truncation

    def test_regeneration_identical(self):
        vocab = tiny_vocab()
        cfg = CorruptionConfig(mask_rate=0.3, max_len=32, seed=11)
        docs = [doc_of(["a", "b", "c"]), doc_of(["d", "e"]), doc_of(["c", "c", "b"])]
        assert make_pretrain_batch(docs, vocab, cfg) == make_pretrain_batch(docs, vocab, cfg)

    def test_pair_i_is_mask_tokens_at_derived_seed_cut_to_max_len(self):
        vocab = tiny_vocab()
        cfg = CorruptionConfig(mask_rate=0.3, max_len=12, seed=11)
        docs = [doc_of(["a", "b", "c", "d"] * 2), doc_of(["a", "b", "c", "d"] * 2),
                doc_of(["a", "b", "c", "d", "e"] * 4)]
        pairs = make_pretrain_batch(docs, vocab, cfg)
        for i, (doc, pair) in enumerate(zip(docs, pairs)):
            ids = encode(vocab, doc)[:cfg.max_len]
            want = mask_tokens(ids, cfg, derive_seed(cfg.seed, i))
            assert pair == DenoisePair(want.input_ids[:cfg.max_len],
                                       want.target_ids[:cfg.max_len])
        assert pairs[0] != pairs[1]  # same text, different per-example seeds


class TestPairCache:
    def test_round_trip(self, tmp_path):
        vocab = tiny_vocab()
        cfg = CorruptionConfig(mask_rate=0.3, max_len=16, seed=4)
        docs = [doc_of(["a", "b"]), doc_of(["c", "d", "e"])]
        pairs = make_pretrain_batch(docs, vocab, cfg)
        path = tmp_path / "pairs.bin"
        write_pair_cache(path, pairs, cfg.max_len)
        loaded, max_len = read_pair_cache(path)
        assert max_len == 16
        assert [(p.input_ids, p.target_ids) for p in loaded] == \
               [(p.input_ids, p.target_ids) for p in pairs]

    def test_failed_write_keeps_previous_cache(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_pair_cache(path, [DenoisePair((4, 5), (4, 5, 1))], 16)
        before = path.read_bytes()
        # a negative id fails to pack as u32 after the first pair is written
        with pytest.raises(struct.error):
            write_pair_cache(path, [DenoisePair((4,), (4, 1)),
                                    DenoisePair((-1,), (1,))], 16)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.bin"]

    def test_header(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_pair_cache(path, [], 512)
        blob = path.read_bytes()
        assert blob[:4] == b"DNPZ"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="magic"):
            read_pair_cache(bad)

    def _three_pairs(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_pair_cache(path, [DenoisePair((4, 5), (4, 5, 1)),
                                DenoisePair((6,), (6, 1)),
                                DenoisePair((7, 8, 9), (1,))], 16)
        return path, path.read_bytes()

    def test_truncated_cache_is_a_value_error_naming_the_path(self, tmp_path):
        path, blob = self._three_pairs(tmp_path)
        for cut in (2, 10, 30, len(blob) - 3, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
                read_pair_cache(path)

    def test_trailing_bytes_are_a_value_error_naming_the_path(self, tmp_path):
        path, blob = self._three_pairs(tmp_path)
        assert len(read_pair_cache(path)[0]) == 3
        path.write_bytes(blob + b"junk")
        with pytest.raises(ValueError, match=re.escape(f"{path}: 4 bytes after the last of 3 pairs")):
            read_pair_cache(path)

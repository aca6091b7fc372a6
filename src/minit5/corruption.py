"""Denoising pretraining pairs: mask tokens at a fixed rate, collapse masked
runs to a single mask token, target is the original sequence plus eos."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .atomic import atomic_write, read_binary
from .rng import GOLDEN, Xoshiro256StarStar, check_seed, derive_seed
from .unigram import EOS_ID, MASK_ID, N_RESERVED, UNK_ID, UnigramVocab, encode_many


@dataclass(frozen=True)
class CorruptionConfig:
    mask_rate: float = 0.15
    max_len: int = 512
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.mask_rate < 1.0:
            raise ValueError("mask_rate must be in (0, 1)")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class DenoisePair:
    input_ids: tuple[int, ...]   # corrupted
    target_ids: tuple[int, ...]  # original + eos


def mask_positions(n: int, mask_rate: float, seed: int) -> list[bool]:
    """Independent Bernoulli(mask_rate) draw per position from the seeded PRNG."""
    rng = Xoshiro256StarStar(seed)
    return [rng.random() < mask_rate for _ in range(n)]


_LANES = 4096  # bounds _mask_flags' [steps, lanes] flag grid


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


class _Lanes:
    """One rng.Xoshiro256StarStar per seed, all stepped together as uint64
    arrays, which wrap mod 2**64 as the scalar generator masks: the same
    splitmix64 seeding, the same next_u64 and random. A call steps only the
    first `width` lanes."""

    def __init__(self, seeds: list[int]):
        s = np.array(seeds, dtype=np.uint64)
        lanes = []
        for _ in range(4):
            s = s + np.uint64(GOLDEN)
            x = (s ^ (s >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            lanes.append(x ^ (x >> np.uint64(31)))
        self._s = lanes

    def next_u64(self, width: int) -> np.ndarray:
        s0, s1, s2, s3 = (lane[:width] for lane in self._s)  # views: updates in place
        out = _rotl(s1 * np.uint64(5), 7) * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = _rotl(s3, 45)
        return out

    def random(self, width: int) -> np.ndarray:
        """Uniform doubles in [0, 1) from the top 53 bits."""
        return (self.next_u64(width) >> np.uint64(11)) * (2.0 ** -53)


def _mask_flags(lengths: list[int], mask_rate: float, seeds: list[int]) -> np.ndarray:
    """mask_positions(n, mask_rate, seed) for every (n, seed) pair, laid end
    to end, _LANES sequences at a time. The lanes run longest first, so a
    step draws for the first lanes only, those still short of their length."""
    if len(lengths) > _LANES:
        return np.concatenate([_mask_flags(lengths[k:k + _LANES], mask_rate,
                                           seeds[k:k + _LANES])
                               for k in range(0, len(lengths), _LANES)])
    order = np.argsort([-n for n in lengths], kind="stable")
    longest_first = np.array(lengths, dtype=np.int64)[order]
    lanes = _Lanes([seeds[k] for k in order.tolist()])
    steps = int(longest_first[0]) if len(lengths) else 0
    flags = np.zeros((steps, len(lengths)), dtype=bool)
    widths = np.searchsorted(-longest_first, -np.arange(steps), side="right").tolist()
    for t, width in enumerate(widths):  # the lanes longer than t
        flags[t, :width] = lanes.random(width) < mask_rate
    by_doc = np.empty_like(flags.T)
    by_doc[order] = flags.T
    return by_doc[np.arange(steps) < np.array(lengths, dtype=np.int64)[:, None]]


def _denoise_pairs(docs: list[list[int]], masked: np.ndarray) -> list[DenoisePair]:
    """Each sequence's pair under its masked flags, laid end to end: every
    maximal run of masked positions collapses to a single mask id, and the
    target is the sequence plus eos (an empty sequence's is empty)."""
    lengths = [len(ids) for ids in docs]
    flat = np.fromiter(chain.from_iterable(docs), dtype=np.int64, count=sum(lengths))
    bounds = np.cumsum([0] + lengths)
    follows = np.zeros(len(flat) + 1, dtype=bool)  # the position before is masked
    follows[1:] = masked
    follows[bounds] = False  # no run crosses into the next sequence
    keep = ~(masked & follows[:-1])
    out = np.where(masked, MASK_ID, flat)[keep].tolist()
    kept = np.append(0, np.cumsum(keep))[bounds].tolist()
    return [DenoisePair(tuple(out[a:b]), tuple(ids) + (EOS_ID,) if ids else ())
            for ids, a, b in zip(docs, kept, kept[1:])]


def mask_tokens(ids: list[int], cfg: CorruptionConfig, seed: int) -> DenoisePair:
    """Corrupt one sequence. Maximal runs of masked positions become a single
    mask id; the target is ids + eos."""
    if any(i < N_RESERVED for i in ids):
        raise ValueError("input ids must not contain reserved ids")
    masked = np.array(mask_positions(len(ids), cfg.mask_rate, seed), dtype=bool)
    return _denoise_pairs([ids], masked)[0]


def _uncovered_message(vocab: UnigramVocab, text: str, ids: list[int],
                       index: int) -> str:
    # every piece before the first <unk> spans len(piece) characters of the
    # text and <unk> itself spans one
    k = ids.index(UNK_ID)
    pos = sum(len(vocab.piece(i)) for i in ids[:k])
    return (f"document {index + 1}: the text has characters the vocabulary "
            f"does not cover; first {text[pos]!r} at character offset {pos}")


def make_pretrain_batch(texts: list[str], vocab: UnigramVocab,
                        cfg: CorruptionConfig) -> list[DenoisePair]:
    """Encode each document text cut to max_len ids, corrupt it, and cut its
    target to max_len: no pads, so a document that fills max_len loses its
    target's eos.

    Per-example seeds derive from (cfg.seed, index), so regeneration and
    parallel generation produce identical pairs.
    """
    docs = [ids[:cfg.max_len] for ids in encode_many(vocab, texts)]
    for index, (text, ids) in enumerate(zip(texts, docs)):
        if UNK_ID in ids:
            raise ValueError(_uncovered_message(vocab, text, ids, index))
    masked = _mask_flags([len(ids) for ids in docs], cfg.mask_rate,
                         [derive_seed(cfg.seed, index) for index in range(len(docs))])
    return [DenoisePair(pair.input_ids, pair.target_ids[:cfg.max_len])
            for pair in _denoise_pairs(docs, masked)]


CACHE_MAGIC = b"DNPZ"
CACHE_VERSION = 1


def write_pair_cache(path: str, pairs: list[DenoisePair], max_len: int) -> None:
    """Little-endian binary cache: header {magic, version, max_len, count},
    then per example two u32-length-prefixed u32 id arrays, unpadded."""
    with atomic_write(path, binary=True) as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<IIQ", CACHE_VERSION, max_len, len(pairs)))
        for pair in pairs:
            for ids in (pair.input_ids, pair.target_ids):
                fh.write(struct.pack("<I", len(ids)))
                fh.write(struct.pack(f"<{len(ids)}I", *ids))


def read_pair_cache(path: str) -> tuple[list[DenoisePair], int]:
    """Read a cache written by write_pair_cache. A file that is cut short or
    holds bytes after its last pair is a ValueError naming the path."""
    take, finish = read_binary(path, "pair cache")
    magic = bytes(take(4))
    if magic != CACHE_MAGIC:
        raise ValueError(f"{path}: not a pair cache (bad magic {magic!r})")
    version, max_len, count = take("<IIQ")
    if version != CACHE_VERSION:
        raise ValueError(f"{path}: unsupported cache version {version}")
    pairs: list[DenoisePair] = []
    for _ in range(count):
        arrays = [take(f"<{take('<I')[0]}I") for _ in range(2)]
        pairs.append(DenoisePair(*arrays))
    finish(f"{count} pairs")
    return pairs, max_len

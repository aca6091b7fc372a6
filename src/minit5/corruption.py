"""Denoising pretraining pairs: mask tokens at a fixed rate, collapse masked
runs to a single mask token, target is the original sequence plus eos."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .atomic import atomic_write, read_binary
from .rng import Xoshiro256StarStar, check_seed, derive_seed
from .unigram import EOS_ID, MASK_ID, N_RESERVED, UNK_ID, UnigramVocab, encode


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


def mask_tokens(ids: list[int], cfg: CorruptionConfig, seed: int) -> DenoisePair:
    """Corrupt one sequence. Maximal runs of masked positions become a single
    mask id; the target is ids + eos."""
    if any(i < N_RESERVED for i in ids):
        raise ValueError("input ids must not contain reserved ids")
    if not ids:
        return DenoisePair((), ())
    masked = mask_positions(len(ids), cfg.mask_rate, seed)
    out: list[int] = []
    for tok, hit in zip(ids, masked):
        if hit:
            if out and out[-1] == MASK_ID:
                continue
            out.append(MASK_ID)
        else:
            out.append(tok)
    return DenoisePair(tuple(out), tuple(ids) + (EOS_ID,))


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
    pairs: list[DenoisePair] = []
    for index, text in enumerate(texts):
        ids = encode(vocab, text)[:cfg.max_len]
        if UNK_ID in ids:
            raise ValueError(_uncovered_message(vocab, text, ids, index))
        pair = mask_tokens(ids, cfg, derive_seed(cfg.seed, index))
        pairs.append(DenoisePair(pair.input_ids, pair.target_ids[:cfg.max_len]))
    return pairs


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

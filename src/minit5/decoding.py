"""Greedy and length-normalized beam decoding.

The beam core advances all live hypotheses with one batched step call, so the
transformer runs incrementally (`DecoderStepper`: encoder once, cached decoder
keys and values), while `beam_search` drives the same core from any function
mapping a generated prefix to next-token log-probabilities, which is how
small table-based models are searched in tests.
"""

from __future__ import annotations

import numpy as np

from .model import DecoderStepper, ModelParams, log_softmax
from .unigram import EOS_ID


def _normalized(cum: float, length: int) -> float:
    return cum / length


def _hyp_sort_key(item):
    ids, cum = item
    # higher normalized score, then shorter, then lexicographically smaller ids
    return (-_normalized(cum, len(ids)), len(ids), ids)


def _row_top(scores: np.ndarray, width: int):
    """(row, token) pairs of the best `width` finite scores of every row by
    (-score, token). A partition finds each row's cut; every score at or
    above it is kept, so ties at the cut survive into the small lexsort."""
    finite = scores > -np.inf
    k = min(width, scores.shape[1])
    neg = -scores
    cut = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    rows, toks = np.nonzero(finite & (neg <= cut))
    order = np.lexsort((toks, neg[rows, toks], rows))
    rows, toks = rows[order], toks[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    keep = rank < width
    return rows[keep], toks[keep]


def _beam(step, width: int, max_out: int, eos_id: int) -> list[int]:
    """Beam search core. step(parents, prefixes) returns [len(prefixes), V]
    next-token log-probs for the live hypotheses, where prefixes[r] extends
    row parents[r] of the previous call by its last id (parents is None on
    the first call, for the empty prefix).

    Children are ranked on the float sum cum + lp, as a full sort over every
    (hypothesis, token) pair would rank them. Only a hypothesis's best
    `width` children can be among the `width` survivors, and within one
    hypothesis the order (-score, ids) is (-score, token), so ranking just
    those gives exactly the full sort's survivors.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if max_out < 1:
        raise ValueError("max_out must be >= 1")
    live: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    finished: list[tuple[tuple[int, ...], float]] = []
    parents = None
    for _ in range(max_out):
        lp = np.asarray(step(parents, [ids for ids, _ in live]), dtype=np.float64)
        scores = np.array([cum for _, cum in live])[:, None] + lp
        rows, toks = _row_top(scores, width)
        if rows.size == 0:
            break
        candidates = [(live[r][0] + (int(tok),), float(scores[r, tok]), int(r))
                      for r, tok in zip(rows, toks)]
        candidates.sort(key=lambda item: (-item[1], item[0]))
        live, parents = [], []
        for ids, cum, row in candidates[:width]:
            if ids[-1] == eos_id:
                finished.append((ids, cum))
            else:
                live.append((ids, cum))
                parents.append(row)
        if not live:
            break
    finished.extend(live)  # max-length survivors count as complete
    best = min(finished, key=_hyp_sort_key)
    return list(best[0])


def beam_search(step_logprobs, width: int, max_out: int,
                eos_id: int = EOS_ID) -> list[int]:
    """Beam search over step_logprobs(prefix_tuple) -> array of log-probs.

    Candidates are ranked by cumulative log-probability during the search;
    hypotheses that emit eos retire to the finished pool. The returned
    hypothesis maximizes length-normalized log-probability (cumulative divided
    by length) over finished hypotheses plus any max-length survivors, with
    ties broken toward shorter then lexicographically smaller sequences.
    Width 1 reduces exactly to greedy decoding.
    """

    def step(parents, prefixes):
        return [np.asarray(step_logprobs(ids), dtype=np.float64) for ids in prefixes]

    return _beam(step, width, max_out, eos_id)


def _decode(params: ModelParams, enc_ids, width: int, max_out: int) -> list[int]:
    """The beam core over the model's decoder, all live hypotheses advanced
    by one incremental step."""
    stepper = DecoderStepper(params, enc_ids)

    def step(parents, prefixes):
        if parents is None:
            return log_softmax(stepper.step([EOS_ID]))
        return log_softmax(stepper.step([ids[-1] for ids in prefixes], parents))

    return _beam(step, width, max_out, EOS_ID)


def greedy_decode(params: ModelParams, enc_ids, max_out: int) -> list[int]:
    """The width-1 beam: from an eos start, take the token with the best
    cum + lp until eos is emitted or max_out is reached; ties break toward
    the lowest id."""
    return _decode(params, enc_ids, 1, max_out)


def beam_decode(params: ModelParams, enc_ids, width: int = 5,
                max_out: int = 32) -> list[int]:
    """Length-normalized beam search over the model's decoder."""
    return _decode(params, enc_ids, width, max_out)

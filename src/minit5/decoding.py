"""Greedy and length-normalized beam decoding.

The beam core runs one independent search per source and advances the live
hypotheses of all of them with one batched step call, so the transformer runs
incrementally over a chunk of inputs (`DecoderStepper`: each encoder once,
cached decoder keys and values), while `beam_search` drives the same core
from any function mapping a generated prefix to next-token log-probabilities,
which is how small table-based models are searched in tests.
"""

from __future__ import annotations

import numpy as np

from .model import DecoderStepper, ModelParams, log_softmax
from .unigram import EOS_ID

# Sources decoded together by decode_sources. A step holds [rows, vocab]
# logits and a few same-sized temporaries, rows up to DECODE_CHUNK * width:
# at V=8k a 16-source greedy step's logits are 1 MB.
DECODE_CHUNK = 16


def _normalized(cum: float, length: int) -> float:
    return cum / length


def _hyp_sort_key(item):
    ids, cum = item
    # higher normalized score, then shorter, then lexicographically smaller ids
    return (-_normalized(cum, len(ids)), len(ids), ids)


def _row_top(scores: np.ndarray, width: int):
    """(row, token) pairs of the best `width` finite scores of every row by
    (-score, token). Each pass takes every row's argmax, which is the lowest
    token on a tie, and masks it out, so ties at the cut resolve as in the
    full sort."""
    left = scores.copy()
    rows = np.arange(len(left))
    k = min(width, left.shape[1])
    toks = np.empty((len(left), k), dtype=np.intp)
    best = np.empty((len(left), k))
    for t in range(k):
        toks[:, t] = top = left.argmax(axis=1)
        best[:, t] = left[rows, top]
        left[rows, top] = -np.inf
    keep = best.ravel() > -np.inf
    return np.repeat(rows, k)[keep], toks.ravel()[keep]


def _beam(step, width: int, max_outs, eos_id: int) -> list[list[int]]:
    """Beam search core: one independent search per entry of max_outs, each
    stopping after at most its own max_out steps. step(parents, prefixes)
    returns [len(prefixes), V] next-token log-probs for the live hypotheses of
    every unfinished search, search after search, where prefixes[r] extends
    row parents[r] of the previous call by its last id (parents is None on
    the first call, whose rows are every search's empty prefix).

    Children are ranked on the float sum cum + lp, as a full sort over every
    (hypothesis, token) pair would rank them. Only a hypothesis's best
    `width` children can be among the `width` survivors, and within one
    hypothesis the order (-score, ids) is (-score, token), so ranking just
    those gives exactly the full sort's survivors.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if any(m < 1 for m in max_outs):
        raise ValueError("max_out must be >= 1")
    live = [[((), 0.0)] for _ in max_outs]
    finished: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in max_outs]
    searching = list(range(len(max_outs)))  # in the order of step's rows
    parents = None
    n_steps = 0
    while searching:
        n_steps += 1
        lp = np.asarray(step(parents, [ids for s in searching for ids, _ in live[s]]),
                        dtype=np.float64)
        scores = lp  # cum + lp, added in place
        scores += np.array([cum for s in searching for _, cum in live[s]])[:, None]
        rows, toks = _row_top(scores, width)
        first = np.cumsum([0] + [len(live[s]) for s in searching])
        cut = np.searchsorted(rows, first)  # each search's span of (rows, toks)
        still, parents = [], []
        for j, s in enumerate(searching):
            a, b = cut[j], cut[j + 1]
            if a == b:
                continue  # no finite child: the search ends as it stands
            candidates = [(live[s][r - first[j]][0] + (int(tok),), float(scores[r, tok]), int(r))
                          for r, tok in zip(rows[a:b], toks[a:b])]
            candidates.sort(key=lambda item: (-item[1], item[0]))
            live[s], kept = [], []
            for ids, cum, row in candidates[:width]:
                if ids[-1] == eos_id:
                    finished[s].append((ids, cum))
                else:
                    live[s].append((ids, cum))
                    kept.append(row)
            if live[s] and n_steps < max_outs[s]:
                still.append(s)
                parents += kept
        searching = still
    # max-length survivors count as complete
    return [list(min(f + l, key=_hyp_sort_key)[0]) for f, l in zip(finished, live)]


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

    return _beam(step, width, [max_out], eos_id)[0]


def decode_sources(params: ModelParams, sources, width: int, max_outs) -> list[list[int]]:
    """One length-normalized beam search (width 1: greedy) per encoder input
    in sources, source i stopping after at most max_outs[i] tokens. Sources
    run DECODE_CHUNK at a time through one DecoderStepper, which advances
    every live hypothesis of every search in the chunk by one batched step;
    each search keeps its own hypotheses, ranking and ties."""
    if len(max_outs) != len(sources):
        raise ValueError("one max_out per source")
    out: list[list[int]] = []
    for i in range(0, len(sources), DECODE_CHUNK):
        stepper = DecoderStepper(params, sources[i:i + DECODE_CHUNK])

        def step(parents, prefixes):
            if parents is None:
                logits = stepper.step([EOS_ID] * len(prefixes))
            else:
                logits = stepper.step([ids[-1] for ids in prefixes], parents)
            return log_softmax(logits, out=logits)

        out += _beam(step, width, max_outs[i:i + DECODE_CHUNK], EOS_ID)
    return out


def greedy_decode(params: ModelParams, enc_ids, max_out: int) -> list[int]:
    """The width-1 beam: from an eos start, take the token with the best
    cum + lp until eos is emitted or max_out is reached; ties break toward
    the lowest id."""
    return decode_sources(params, [enc_ids], 1, [max_out])[0]


def beam_decode(params: ModelParams, enc_ids, width: int = 5,
                max_out: int = 32) -> list[int]:
    """Length-normalized beam search over the model's decoder."""
    return decode_sources(params, [enc_ids], width, [max_out])[0]

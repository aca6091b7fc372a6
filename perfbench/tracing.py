"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each minit5 module by rebinding the
module-level name in every minit5 module that holds it, for example
``minit5.decoding.forward`` and ``minit5.train.beam_decode``, so calls are
caught where they are made. No file of the program changes. Spans live in
memory as [name, start, end, parent, run id, extra] and are written out once
the run ends; they are recorded only inside a stage span opened by the
benchmark, so the benchmark's own output checks are never counted.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import sys
import time
from collections import defaultdict

DECODE_SPANS = ("decoding.beam_decode", "decoding.greedy_decode")
STAGES = ("preprocess", "train-vocab", "make-pretrain-data", "pretrain",
          "finetune", "evaluate")


def _encode_chars(args, kwargs, out):
    return len(args[1])


def _out_len(args, kwargs, out):
    return len(out)


def _dec_len(args, kwargs, out):
    return len(args[2])


def _lm_or_pooled_tokens(args, kwargs, out):
    """Input plus non-pad target tokens of a (micro)batch."""
    tokens = 0
    for item in args[1]:
        tokens += len(item[0])
        if len(item) == 3:
            tokens += sum(1 for t in item[2] if t != 0)
    return tokens


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


def _flagged(args, kwargs, out):
    return bool(out.flags)


def _unparsed(args, kwargs, out):
    return not out.ok


# (module, function, extra recorded from (args, kwargs, result))
TARGETS = (
    ("corpus", "fix_encoding", None),
    ("corpus", "split_sentences", None),
    ("corpus", "pack_sentences", None),
    ("unigram", "train_vocab", None),
    ("unigram", "build_seed_vocab", None),
    ("unigram", "em_step", None),
    ("unigram", "prune_vocab", None),
    ("unigram", "encode", _encode_chars),
    ("unigram", "decode", None),
    ("corruption", "mask_positions", None),
    ("corruption", "make_pretrain_batch", None),
    ("corruption", "write_pair_cache", None),
    ("model", "init_model", None),
    ("model", "accumulate_loss_and_grad", _lm_or_pooled_tokens),
    ("model", "forward", _dec_len),
    ("model", "encoder_mean_pool", None),
    ("model", "_encoder_fwd", None),
    ("optim", "adafactor_step", None),
    ("optim", "adamw_step", None),
    ("optim", "radam_step", None),
    ("decoding", "beam_decode", _out_len),
    ("decoding", "beam_search", None),
    ("decoding", "greedy_decode", _out_len),
    ("ner", "parse_tagged_output", _flagged),
    ("ner", "merge_windows", None),
    ("ner", "extract_entities", None),
    ("tasks", "window_ner_example", None),
    ("tasks", "build_ner_target", None),
    ("tasks", "parse_score_string", _unparsed),
    ("metrics", "pearson", None),
    ("metrics", "mse", None),
    ("metrics", "accuracy", None),
    ("metrics", "macro_f1", None),
    ("metrics", "classification_report", None),
    ("metrics", "format_pair_task_report", None),
    ("checkpoint", "save_checkpoint", _file_bytes),
    ("checkpoint", "load_checkpoint", None),
    ("train", "run_pretrain", None),
    ("train", "run_finetune", None),
    ("train", "run_evaluate", None),
    ("train", "batch_loss", None),
)

NAME, START, END, PARENT, RUN, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, out)
            return out
        return traced

    def _rebind(self, orig, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "minit5" or modname.startswith("minit5."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, replacement)

    def install(self) -> None:
        from minit5 import train, unigram

        for modname, fname, extra in TARGETS:
            orig = getattr(sys.modules[f"minit5.{modname}"], fname)
            self._rebind(orig, self.wrap(f"{modname}.{fname}", orig, extra))
        load = unigram.UnigramVocab.__dict__["load"]
        self._undo.append((unigram.UnigramVocab, "load", load))
        unigram.UnigramVocab.load = classmethod(self.wrap("unigram.load", load.__func__))
        # validation runs in a closure handed to _train_loop; wrap it there
        loop = train._train_loop

        @functools.wraps(loop)
        def train_loop(params, items, objective, cfg, mask, val_fn=None, **kw):
            if val_fn is not None:
                val_fn = self.wrap("train.validation", val_fn)
            return loop(params, items, objective, cfg, mask, val_fn, **kw)

        self._rebind(loop, train_loop)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\trun_id\textra\n")
            for i, (name, start, end, parent, run, extra) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run}\t{extra}\n")


def _tail(durations: list[float]) -> float:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it, or
    the maximum when there are fewer than 100 samples."""
    ordered = sorted(durations)
    n = len(ordered)
    for q in (0.999, 0.99, 0.9):
        if n * (1.0 - q) >= 10:
            return ordered[min(n - 1, math.ceil(q * n) - 1)]
    return ordered[-1] if ordered else 0.0


class _Pass:
    """Per-name aggregates of one traced pass."""

    def __init__(self, spans: list[list], offset: int):
        child = [0.0] * len(spans)
        context: list[str | None] = [None] * len(spans)
        self.calls: dict[str, int] = defaultdict(int)
        self.ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.extra: dict[str, list] = defaultdict(list)
        self.by_context: dict[tuple[str, str | None], list[list]] = defaultdict(list)
        self.top_metrics_ms = 0.0
        for i, s in enumerate(spans):
            p = s[PARENT] - offset if s[PARENT] >= 0 else -1
            if p >= 0:
                child[p] += s[END] - s[START]
            inherited = context[p] if p >= 0 else None
            context[i] = s[NAME] if s[NAME] in DECODE_SPANS + ("train.batch_loss",) \
                else inherited
            self.by_context[s[NAME], inherited].append(s)
            if s[NAME].startswith("metrics.") and \
                    (p < 0 or not spans[p][NAME].startswith("metrics.")):
                self.top_metrics_ms += (s[END] - s[START]) * 1e3
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            self.calls[name] += 1
            self.ms[name] += dur * 1e3
            self.self_ms[name] += (dur - child[i]) * 1e3
            self.durations[name].append(dur * 1e3)
            if s[EXTRA] is not None:
                self.extra[name].append(s[EXTRA])

    def under(self, name: str, contexts) -> list[list]:
        return [s for c in contexts for s in self.by_context[name, c]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_figures(p: _Pass) -> dict[str, float]:
    """Per-pass totals: counts, busy ms, self ms and work ratios."""
    f: dict[str, float] = {}
    calls, ms, extra = p.calls, p.ms, p.extra
    for n in ("corpus.fix_encoding", "corpus.split_sentences", "corpus.pack_sentences",
              "unigram.build_seed_vocab", "unigram.load", "corruption.mask_positions",
              "corruption.write_pair_cache", "model.init_model", "ner.parse_tagged_output",
              "ner.merge_windows", "ner.extract_entities", "tasks.window_ner_example",
              "tasks.build_ner_target", "checkpoint.save_checkpoint",
              "checkpoint.load_checkpoint", "unigram.decode", "unigram.em_step",
              "model.encoder_mean_pool"):
        f[f"{n}.ms"] = ms[n]
    for n in ("unigram.em_step", "unigram.encode", "unigram.decode",
              "model.accumulate_loss_and_grad", "model.encoder_mean_pool",
              "optim.adafactor_step", "optim.adamw_step", "optim.radam_step",
              "decoding.beam_decode", "decoding.greedy_decode"):
        f[f"{n}.calls"] = calls[n]
    for n in ("unigram.prune_vocab", "corruption.make_pretrain_batch",
              "decoding.beam_search", "train.run_pretrain", "train.run_finetune",
              "train.run_evaluate"):
        f[f"{n}.self_ms"] = p.self_ms[n]
    f["unigram.encode.chars_per_s"] = _ratio(sum(extra["unigram.encode"]),
                                             ms["unigram.encode"] / 1e3)
    f["model.accumulate_loss_and_grad.tokens_per_s"] = _ratio(
        sum(extra["model.accumulate_loss_and_grad"]),
        ms["model.accumulate_loss_and_grad"] / 1e3)
    decode_fwd = p.under("model.forward", DECODE_SPANS)
    val_fwd = p.under("model.forward", ("train.batch_loss",))
    f["model.forward.decode_calls"] = len(decode_fwd)
    f["model.forward.decode_ms"] = sum(s[END] - s[START] for s in decode_fwd) * 1e3
    f["model.forward.val_ms"] = sum(s[END] - s[START] for s in val_fwd) * 1e3
    decodes = calls["decoding.beam_decode"] + calls["decoding.greedy_decode"]
    f["decoding.tokens_out"] = sum(extra["decoding.beam_decode"]) + \
        sum(extra["decoding.greedy_decode"])
    f["decoding.recompute_ratio"] = _ratio(sum(s[EXTRA] for s in decode_fwd),
                                           len(decode_fwd))
    f["decoding.encoder_runs_per_decode"] = _ratio(
        len(p.under("model._encoder_fwd", DECODE_SPANS)), decodes)
    flagged = extra["ner.parse_tagged_output"]
    f["ner.malformed_frac"] = _ratio(sum(flagged), len(flagged))
    unparsed = extra["tasks.parse_score_string"]
    f["tasks.score_unparsed_frac"] = _ratio(sum(unparsed), len(unparsed))
    f["metrics.ms"] = p.top_metrics_ms
    saved = extra["checkpoint.save_checkpoint"]
    f["checkpoint.save_checkpoint.bytes"] = saved[-1] if saved else 0
    f["train.validation_ms"] = ms["train.validation"]
    for stage in STAGES:
        f[f"cli.{stage}.ms"] = ms[f"cli.{stage}"]
    return f


def layer_metrics(spans: list[list], run_ids: list[str]) -> dict[str, float]:
    """Per-layer metrics over the traced passes: per-pass totals as medians
    across passes, per-call times pooled over all passes."""
    passes = []
    for r in run_ids:
        # a pass's spans are contiguous, and parents index the whole list
        idx = [i for i, s in enumerate(spans) if s[RUN] == r]
        passes.append(_Pass(spans[idx[0]:idx[-1] + 1], idx[0]))
    per_pass = [_layer_figures(p) for p in passes]
    out = {k: statistics.median(f[k] for f in per_pass) for k in per_pass[0]}
    for n in ("unigram.encode", "model.accumulate_loss_and_grad",
              "optim.adafactor_step", "optim.adamw_step", "optim.radam_step",
              "decoding.beam_decode", "decoding.greedy_decode"):
        pooled = [d for p in passes for d in p.durations[n]]
        out[f"{n}.ms_p50"] = statistics.median(pooled) if pooled else 0.0
        if not n.startswith(("optim.", "decoding.greedy")):
            out[f"{n}.ms_tail"] = _tail(pooled)
    return out

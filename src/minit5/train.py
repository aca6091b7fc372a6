"""Training and evaluation drivers: denoising pretraining, the three
fine-tuning tasks with early stopping, and metric evaluation."""

from __future__ import annotations

import math
import os
import socket
import sys
import time
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .atomic import format_rows, read_text, write_text
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .corruption import CorruptionConfig, make_pretrain_batch
from .decoding import decode_sources
from .metrics import (ENTAILMENT_CLASSES, classification_report,
                      format_pair_task_report, mse, pearson)
from .model import (ModelParams, TrainableMask,
                    accumulate_loss_and_grad, embedding_only_mask, init_model,
                    predict_entailment, predict_similarity, zero_grads)
from .ner import (LabelTable, NerScorer, extract_entities, format_ner_report,
                  parse_tagged_output, to_bio, merge_windows,
                  write_conll_predictions)
from .optim import DivergedError, make_optimizer
from .tasks import (SentencePairExample, assin_input_ids, build_ner_target, fit,
                    make_similarity_target, ner_input_ids, parse_score_string,
                    read_conll, read_pairs_tsv, strip_accents,
                    window_ner_example)
from .unigram import EOS_ID, UnigramVocab, decode, encode


class DataError(Exception):
    """Missing or malformed inputs; maps to exit code 2."""


class LockError(Exception):
    """The output directory is owned by another run."""


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float | None
    val_objective: float | None
    wall_seconds: float | None


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None


LOCK_NAME = ".lock"


def _lock_is_stale(path: str) -> bool:
    """True only when the lock reads "<pid> <host>", names this host, and no
    process with that pid exists."""
    try:
        pid, host = read_text(path).split()
        pid = int(pid)
    except (OSError, ValueError):
        return False
    if pid <= 0 or host != socket.gethostname():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        pass  # alive, owned by another user
    return False


def acquire_lock(out_dir: str) -> str:
    """Create out_dir/.lock holding "<pid> <host>". A lock left by a dead
    process on this host is reclaimed with a warning on stderr."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, LOCK_NAME)
    for attempt in range(2):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt or not _lock_is_stale(path):
                raise LockError(f"{out_dir} is locked by another run (remove "
                                f"{path} if that run is dead)") from None
            print(f"warning: reclaiming stale lock {path}", file=sys.stderr)
            os.remove(path)
    os.write(fd, f"{os.getpid()} {socket.gethostname()}".encode())
    os.close(fd)
    return path


def release_lock(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


def _require_file(path: str, what: str) -> str:
    if not path:
        raise DataError(f"no {what} path configured")
    if not os.path.exists(path):
        raise DataError(f"{what} not found: {path}")
    if not os.path.isfile(path):
        raise DataError(f"{what} is not a file: {path}")
    return path


def load_packed_corpus(path: str) -> list[str]:
    """Line-delimited packed corpus: one document of space-joined words per
    line, each returned as its words joined by single spaces."""
    docs: list[str] = []
    for line in read_text(path, newline="\n").split("\n"):
        words = line.split()
        if words:
            docs.append(" ".join(words))
    if not docs:
        raise DataError(f"{path}: empty corpus")
    return docs


def check_vocab_size(params: ModelParams, vocab: UnigramVocab) -> None:
    """A checkpoint only decodes with the vocabulary it was trained on."""
    if params.cfg.vocab_size != len(vocab):
        raise DataError(f"checkpoint vocab size {params.cfg.vocab_size} does "
                        f"not match vocabulary of {len(vocab)}")


def _load_model(cfg: RunConfig, vocab: UnigramVocab) -> ModelParams:
    if cfg.init_checkpoint:
        _require_file(cfg.init_checkpoint, "init checkpoint")
        params = load_checkpoint(cfg.init_checkpoint)
        check_vocab_size(params, vocab)
        return params
    return init_model(cfg.model_config(len(vocab)), cfg.seed)


def _length_limit(cfg: RunConfig, params: ModelParams) -> int:
    """Inputs, targets and decode lengths are cut to this: the run's seq_len,
    but never past the loaded model's max_len."""
    return min(cfg.seq_len, params.cfg.max_len)


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def _lm_item(enc, tgt):
    """(enc, dec_in, tgt) with the teacher-forcing shift dec_in = [EOS] + tgt[:-1]."""
    tgt = np.asarray(tgt, dtype=np.int64)
    return np.asarray(enc, dtype=np.int64), np.concatenate(([EOS_ID], tgt[:-1])), tgt


def batch_loss(params: ModelParams, items: list, objective: str) -> float:
    """Mean loss over items (validation use): the training loss path without
    its backward pass."""
    loss_sum, units = accumulate_loss_and_grad(params, items, objective, None)
    return loss_sum / units


def _train_loop(params: ModelParams, items: list, objective: str,
                cfg: RunConfig, mask: TrainableMask | None,
                val_fn=None, maximize: bool = False) -> tuple[ModelParams, TrainLog]:
    """Epoch loop with gradient accumulation and optional early stopping.

    val_fn(params) returns (val_loss, val_objective); the objective picks the
    best checkpoint. Early stopping counts the epochs since the objective or
    the validation loss was last at its best, so a noisy objective (NER's
    F1) does not stop a run whose loss still falls. Items are visited in their
    given order so reruns with the same seed are byte-identical. The epoch's
    losses are added onto one running sum, example by example, so the logged
    train loss does not depend on how the items are cut into microbatches.
    """
    _, step_fn = make_optimizer(cfg.optimizer, cfg.lr)
    log = TrainLog()
    best_value: float | None = None
    best_loss: float | None = None
    best_params: ModelParams | None = None
    since_best = 0
    macro = cfg.batch_size * cfg.grad_accum_steps
    grads = zero_grads(params)  # one set of buffers, zeroed before each step
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        epoch_loss, epoch_units = 0.0, 0
        for macro_batch in _chunks(items, macro):
            for g in grads.values():
                g.fill(0.0)
            units = 0
            for micro in _chunks(macro_batch, cfg.batch_size):
                epoch_loss, u = accumulate_loss_and_grad(params, micro, objective,
                                                         grads, epoch_loss)
                units += u
            for g in grads.values():
                g /= units
            if not math.isfinite(epoch_loss):
                raise DivergedError("diverged: non-finite training loss")
            step_fn(params.tensors, grads, mask)
            epoch_units += units
        train_loss = epoch_loss / epoch_units
        val_loss = val_objective = None
        if val_fn is not None:
            val_loss, val_objective = val_fn(params)
        wall = None if cfg.deterministic else time.perf_counter() - t0
        log.records.append(EpochRecord(epoch, train_loss, val_loss,
                                       val_objective, wall))
        if val_objective is not None:
            improved = best_value is None or (
                val_objective > best_value if maximize else val_objective < best_value)
            lower_loss = best_loss is None or val_loss < best_loss
            if lower_loss:
                best_loss = val_loss
            if improved:
                best_value = val_objective
                best_params = params.copy()
                log.best_epoch = epoch
            if improved or lower_loss:
                since_best = 0
            else:
                since_best += 1
                if cfg.patience is not None and since_best > cfg.patience:
                    break
    if best_params is not None:
        return best_params, log
    return params, log


def write_train_log(path: str, log: TrainLog) -> None:
    rows = [("epoch", "train_loss", "val_loss", "val_objective", "wall_seconds")]
    write_text(path, format_rows(rows + [astuple(r) for r in log.records])
               + "# " + format_rows([("best_epoch", log.best_epoch)], "="))


def write_curve(path: str, log: TrainLog) -> None:
    """Plot-ready TSV: epoch, train loss, validation loss."""
    rows = [("epoch", "train", "val")]
    write_text(path, format_rows(rows + [(r.epoch, r.train_loss, r.val_loss)
                                         for r in log.records]))


def _fit(cfg: RunConfig, params: ModelParams, items: list, objective: str,
         val_fn=None, maximize: bool = False) -> tuple[ModelParams, TrainLog]:
    """Train under out_dir's lock, honoring embeddings_only (every
    non-embedding tensor stays bit-identical), and write checkpoint.bin,
    train_log.tsv and curve.tsv to out_dir."""
    mask = embedding_only_mask(params) if cfg.embeddings_only else None
    lock = acquire_lock(cfg.out_dir)
    try:
        params, log = _train_loop(params, items, objective, cfg, mask, val_fn,
                                  maximize=maximize)
        save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.bin"), params)
        write_train_log(os.path.join(cfg.out_dir, "train_log.tsv"), log)
        write_curve(os.path.join(cfg.out_dir, "curve.tsv"), log)
    finally:
        release_lock(lock)
    return params, log


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def _pretrain_items(cfg: RunConfig, vocab: UnigramVocab, docs, limit: int) -> list:
    ccfg = CorruptionConfig(mask_rate=cfg.mask_rate, max_len=limit, seed=cfg.seed)
    pairs = make_pretrain_batch(docs, vocab, ccfg)
    return [_lm_item(p.input_ids, p.target_ids) for p in pairs]


def run_pretrain(cfg: RunConfig):
    """Denoising pretraining with Adafactor at a constant learning rate;
    _fit writes the outputs."""
    vocab = UnigramVocab.load(_require_file(cfg.vocab_path, "vocabulary"))
    docs = load_packed_corpus(_require_file(cfg.corpus_path, "packed corpus"))
    params = _load_model(cfg, vocab)
    limit = _length_limit(cfg, params)
    items = _pretrain_items(cfg, vocab, docs, limit)
    val_fn = None
    if cfg.val_path:
        val_docs = load_packed_corpus(_require_file(cfg.val_path, "validation corpus"))
        val_items = _pretrain_items(cfg, vocab, val_docs, limit)

        def val_fn(p, _items=val_items):
            loss = batch_loss(p, _items, "lm")
            return loss, None if cfg.patience is None else loss

    return _fit(cfg, params, items, "lm", val_fn)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def _read_split(cfg: RunConfig, path: str, what: str) -> list:
    """The examples of a fine-tuning split, accents stripped when the run
    asks for it. A missing or empty split, or a sentence pair without the
    task's label, is a data error naming the file."""
    if cfg.task not in ("similarity", "entailment", "ner"):
        raise DataError(f"task {cfg.task!r} is not a fine-tuning task")
    path = _require_file(path, what)
    if cfg.task == "ner":
        examples = read_conll(path)
        if cfg.strip_accents:
            examples = [replace(ex, words=tuple(map(strip_accents, ex.words)))
                        for ex in examples]
    else:
        examples = read_pairs_tsv(path)
        for ex in examples:
            # a sentence pair's label fields are named after their tasks
            if getattr(ex, cfg.task) is None:
                raise DataError(f"{path}: example {ex.id} has no {cfg.task} label")
        if cfg.strip_accents:
            examples = [replace(ex, sentence1=strip_accents(ex.sentence1),
                                sentence2=strip_accents(ex.sentence2))
                        for ex in examples]
    if not examples:
        raise DataError(f"{path}: {what} has no examples")
    return examples


def _pair_enc(vocab, ex: SentencePairExample, limit: int) -> list[int]:
    return fit(assin_input_ids(vocab, ex.sentence1, ex.sentence2), limit)


def _pair_items(vocab, examples, objective: str, limit: int) -> list:
    """Sentence-pair training items: the generated score string for "lm",
    the score for "regression", the label index for "classification"."""
    items = []
    for ex in examples:
        enc = _pair_enc(vocab, ex, limit)
        if objective == "lm":
            tgt = fit(make_similarity_target(ex.similarity, vocab), limit)
            items.append(_lm_item(enc, tgt))
        elif objective == "regression":
            items.append((enc, float(ex.similarity)))
        else:
            items.append((enc, ENTAILMENT_CLASSES.index(ex.entailment)))
    return items


def _ner_items(cfg, vocab, table, examples, limit: int) -> list:
    items = []
    for ex in examples:
        for _, words, tags in window_ner_example(ex, cfg.ner_window, cfg.ner_stride):
            target_text = build_ner_target(list(words), list(tags), table)
            tgt = fit(encode(vocab, target_text) + [EOS_ID], limit)
            items.append(_lm_item(fit(ner_input_ids(vocab, list(words)), limit), tgt))
    return items


def predict_similarity_scores(params, cfg, vocab, examples,
                              predict_override=None) -> tuple[list[float], int]:
    """Scores per example, and how many generated score strings did not
    parse (each of those scored as the scale midpoint)."""
    if predict_override is not None:
        return [float(predict_override(ex)) for ex in examples], 0
    limit = _length_limit(cfg, params)
    encs = [_pair_enc(vocab, ex, limit) for ex in examples]
    if cfg.output_strategy != "generate":
        return [predict_similarity(params, enc) for enc in encs], 0
    max_out = min(cfg.gen_max_tokens, limit)
    scores, unparsed = [], 0
    for generated in decode_sources(params, encs, 1, [max_out] * len(encs)):
        parsed = parse_score_string(generated, vocab)
        scores.append(parsed.value)
        unparsed += not parsed.ok
    return scores, unparsed


def predict_entailment_labels(params, cfg, vocab, examples,
                              predict_override=None) -> list[str]:
    labels = []
    limit = _length_limit(cfg, params)
    for ex in examples:
        if predict_override is not None:
            labels.append(predict_override(ex))
            continue
        probs = predict_entailment(params, _pair_enc(vocab, ex, limit))
        labels.append(ENTAILMENT_CLASSES[int(np.argmax(probs))])
    return labels


def evaluate_ner(params, cfg, vocab, table, examples, predict_override=None):
    """Window-wise decode, merge, and entity scoring over documents; the
    windows of all documents decode together.

    Returns (NerReport, rows, malformed_windows) where rows are
    (words, gold, pred) per doc, and a window is malformed when its tagged
    output had any parse flag."""
    windows = [[(offset, words) for offset, words, _tags
                in window_ner_example(ex, cfg.ner_window, cfg.ner_stride)]
               for ex in examples]
    flat = [words for doc in windows for _, words in doc]
    if predict_override is not None:
        texts = [predict_override(words) for words in flat]
    else:
        limit = _length_limit(cfg, params)
        encs = [fit(ner_input_ids(vocab, list(words)), limit) for words in flat]
        generated = decode_sources(params, encs, cfg.beam_width,
                                   [min(limit, 4 * len(words) + 8) for words in flat])
        texts = [decode(vocab, ids) for ids in generated]
    texts = iter(texts)  # in window order
    scorer = NerScorer()
    rows = []
    malformed = 0
    for ex, doc in zip(examples, windows):
        per_window = []
        for offset, words in doc:
            parsed = parse_tagged_output(next(texts), table)
            per_window.append((offset, to_bio(parsed.segments, list(words))))
            malformed += bool(parsed.flags)
        merged = merge_windows(per_window, len(ex.words))
        scorer.add(extract_entities(list(ex.tags)), extract_entities(merged))
        rows.append((list(ex.words), list(ex.tags), merged))
    return scorer.report(), rows, malformed


def run_finetune(cfg: RunConfig):
    """Task fine-tuning with early stopping on the validation objective:
    MSE for similarity, cross-entropy for entailment, micro-F1 for NER.
    Restores and saves the best checkpoint observed."""
    vocab = UnigramVocab.load(_require_file(cfg.vocab_path, "vocabulary"))
    params = _load_model(cfg, vocab)
    table = LabelTable(cfg.label_language)
    train_ex = _read_split(cfg, cfg.train_path, "training data")
    val_ex = _read_split(cfg, cfg.val_path, "validation data") if cfg.val_path else None

    limit = _length_limit(cfg, params)
    if cfg.task == "entailment":
        objective = "classification"
    elif cfg.task == "similarity" and cfg.output_strategy != "generate":
        objective = "regression"
    else:
        objective = "lm"

    def make_items(examples):
        if cfg.task == "ner":
            return _ner_items(cfg, vocab, table, examples, limit)
        return _pair_items(vocab, examples, objective, limit)

    items = make_items(train_ex)
    val_fn = None
    if val_ex is not None and cfg.task == "similarity":
        gold = [ex.similarity for ex in val_ex]

        def val_fn(p):
            preds, _ = predict_similarity_scores(p, cfg, vocab, val_ex)
            val_mse = mse(preds, gold)
            return val_mse, val_mse
    elif val_ex is not None:
        val_items = make_items(val_ex)

        def val_fn(p):
            loss = batch_loss(p, val_items, objective)
            if cfg.task == "ner":
                report, _, _ = evaluate_ner(p, cfg, vocab, table, val_ex)
                return loss, report.micro.f1
            return loss, loss

    return _fit(cfg, params, items, objective, val_fn,
                maximize=cfg.task == "ner")


def run_evaluate(cfg: RunConfig, params: ModelParams, split: str = "test",
                 predict_override=None) -> dict:
    """Evaluate a checkpoint on a split and write the metric report.

    Decode health rides along: NER reports count malformed_windows (windows
    whose tagged output had any parse flag), similarity reports count
    unparsed_scores (generated score strings that did not parse)."""
    vocab = UnigramVocab.load(_require_file(cfg.vocab_path, "vocabulary"))
    check_vocab_size(params, vocab)
    path = {"train": cfg.train_path, "val": cfg.val_path,
            "test": cfg.test_path}.get(split)
    if path is None:
        raise DataError(f"unknown split {split!r}")
    examples = _read_split(cfg, path, f"{split} data")
    out = None
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        out = lambda name: os.path.join(cfg.out_dir, name)

    if cfg.task == "similarity":
        gold = [ex.similarity for ex in examples]
        preds, unparsed = predict_similarity_scores(params, cfg, vocab,
                                                    examples, predict_override)
        try:
            pearson_v = pearson(preds, gold)
        except ValueError:
            pearson_v = float("nan")  # constant predictions from a weak model
        mse_v = mse(preds, gold)
        report = {"pearson": pearson_v, "mse": mse_v, "n": len(preds),
                  "unparsed_scores": unparsed}
        text = format_pair_task_report(pearson_v, mse_v, None, None, unparsed)
    elif cfg.task == "entailment":
        gold = [ex.entailment for ex in examples]
        preds = predict_entailment_labels(params, cfg, vocab, examples,
                                          predict_override)
        rep = classification_report(preds, gold)
        report = {"accuracy": rep.accuracy, "macro_f1": rep.macro_f1}
        text = format_pair_task_report(None, None, rep.accuracy, rep.macro_f1)
    else:
        table = LabelTable(cfg.label_language)
        ner_report, rows, malformed = evaluate_ner(params, cfg, vocab, table,
                                                   examples, predict_override)
        report = {"micro_precision": ner_report.micro.precision,
                  "micro_recall": ner_report.micro.recall,
                  "micro_f1": ner_report.micro.f1,
                  "per_class": ner_report.per_class,
                  "malformed_windows": malformed}
        text = format_ner_report(ner_report, malformed)
        if out:
            write_conll_predictions(out(f"predictions_{split}.conll"), rows)

    if out:
        write_text(out(f"eval_{split}.txt"), text)
    return report

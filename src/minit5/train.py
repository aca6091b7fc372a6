"""Training and evaluation drivers: denoising pretraining, the three
fine-tuning tasks with early stopping, and metric evaluation."""

from __future__ import annotations

import math
import os
import socket
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .atomic import atomic_write
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .corpus import PackedDocument, Sentence
from .corruption import CorruptionConfig, make_pretrain_batch
from .decoding import beam_decode, greedy_decode
from .metrics import (ENTAILMENT_CLASSES, classification_report,
                      format_pair_task_report, mse, pearson)
from .model import (ModelConfig, ModelParams, TrainableMask,
                    accumulate_loss_and_grad, embedding_only_mask, init_model,
                    predict_entailment, predict_similarity, zero_grads)
from .ner import (LabelTable, NerScorer, extract_entities, format_ner_report,
                  parse_tagged_output, to_bio, merge_windows,
                  write_conll_predictions)
from .optim import DivergedError, make_optimizer
from .tasks import (SentencePairExample, assin_input_ids, build_ner_target,
                    make_similarity_target, ner_input_ids, parse_score_string,
                    read_conll, read_pairs_tsv, strip_accents,
                    window_ner_example)
from .unigram import EOS_ID, PAD_ID, UnigramVocab, decode, encode


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
        with open(path, encoding="utf-8") as fh:
            pid, host = fh.read().split()
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
    return path


def load_packed_corpus(path: str) -> list[PackedDocument]:
    """Line-delimited packed corpus: one document of space-joined words per line."""
    docs: list[PackedDocument] = []
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for line in fh:
            words = line.split()
            if words:
                docs.append(PackedDocument((Sentence(tuple(words)),)))
    if not docs:
        raise DataError(f"{path}: empty corpus")
    return docs


def _model_config(cfg: RunConfig, vocab: UnigramVocab) -> ModelConfig:
    return ModelConfig(
        vocab_size=len(vocab), d_model=cfg.d_model, n_heads=cfg.n_heads,
        d_ff=cfg.d_ff, n_enc_layers=cfg.n_enc_layers,
        n_dec_layers=cfg.n_dec_layers, max_len=cfg.seq_len,
        position_scheme=cfg.position_scheme, tie_embeddings=cfg.tie_embeddings)


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
    return init_model(_model_config(cfg, vocab), cfg.seed)


def _length_limit(cfg: RunConfig, params: ModelParams) -> int:
    """Inputs, targets and decode lengths are cut to this: the run's seq_len,
    but never past the loaded model's max_len."""
    return min(cfg.seq_len, params.cfg.max_len)


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def _trim_pad(ids) -> list[int]:
    ids = list(ids)
    while ids and ids[-1] == PAD_ID:
        ids.pop()
    return ids


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

    val_fn(params) returns (val_loss, val_objective); the objective drives
    early stopping and best-checkpoint selection. Items are visited in their
    given order so reruns with the same seed are byte-identical.
    """
    _, step_fn = make_optimizer(cfg.optimizer, cfg.lr)
    log = TrainLog()
    best_value: float | None = None
    best_params: ModelParams | None = None
    since_best = 0
    macro = cfg.batch_size * cfg.grad_accum_steps
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        epoch_loss, epoch_units = 0.0, 0
        for macro_batch in _chunks(items, macro):
            grads = zero_grads(params)
            loss_sum, units = 0.0, 0
            for micro in _chunks(macro_batch, cfg.batch_size):
                ls, u = accumulate_loss_and_grad(params, micro, objective, grads)
                loss_sum += ls
                units += u
            for g in grads.values():
                g /= units
            if not math.isfinite(loss_sum):
                raise DivergedError("diverged: non-finite training loss")
            step_fn(params.tensors, grads, mask)
            epoch_loss += loss_sum
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
            if improved:
                best_value = val_objective
                best_params = params.copy()
                log.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if cfg.patience is not None and since_best > cfg.patience:
                    break
    if best_params is not None:
        return best_params, log
    return params, log


def write_train_log(path: str, log: TrainLog) -> None:
    def fmt(v):
        return "-" if v is None else f"{v:.6f}"

    with atomic_write(path) as fh:
        fh.write("epoch\ttrain_loss\tval_loss\tval_objective\twall_seconds\n")
        for r in log.records:
            fh.write(f"{r.epoch}\t{fmt(r.train_loss)}\t{fmt(r.val_loss)}"
                     f"\t{fmt(r.val_objective)}\t{fmt(r.wall_seconds)}\n")
        fh.write(f"# best_epoch={log.best_epoch if log.best_epoch is not None else '-'}\n")


def write_curve(path: str, log: TrainLog) -> None:
    """Plot-ready TSV: epoch, train loss, validation loss."""
    with atomic_write(path) as fh:
        fh.write("epoch\ttrain\tval\n")
        for r in log.records:
            val = "-" if r.val_loss is None else f"{r.val_loss:.6f}"
            fh.write(f"{r.epoch}\t{r.train_loss:.6f}\t{val}\n")


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
    return [_lm_item(_trim_pad(p.input_ids), _trim_pad(p.target_ids)) for p in pairs]


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


def _pair_enc(vocab, ex: SentencePairExample, limit: int) -> np.ndarray:
    ids = assin_input_ids(vocab, ex.sentence1, ex.sentence2)[:limit]
    return np.asarray(ids, dtype=np.int64)


def _pair_items(vocab, examples, objective: str, limit: int) -> list:
    """Sentence-pair training items: the generated score string for "lm",
    the score for "regression", the label index for "classification"."""
    items = []
    for ex in examples:
        enc = _pair_enc(vocab, ex, limit)
        if objective == "lm":
            tgt = make_similarity_target(ex.similarity, vocab)[:limit]
            items.append(_lm_item(enc, tgt))
        elif objective == "regression":
            items.append((enc, float(ex.similarity)))
        else:
            items.append((enc, ENTAILMENT_CLASSES.index(ex.entailment)))
    return items


def _ner_enc(vocab, words, limit: int) -> np.ndarray:
    return np.asarray(ner_input_ids(vocab, list(words))[:limit], dtype=np.int64)


def _ner_items(cfg, vocab, table, examples, limit: int) -> list:
    items = []
    for ex in examples:
        for offset, words, tags in window_ner_example(ex, cfg.ner_window,
                                                      cfg.ner_stride):
            target_text = build_ner_target(list(words), list(tags), table)
            tgt = (encode(vocab, target_text) + [EOS_ID])[:limit]
            items.append(_lm_item(_ner_enc(vocab, words, limit), tgt))
    return items


def predict_similarity_scores(params, cfg, vocab, examples,
                              predict_override=None) -> tuple[list[float], int]:
    """Scores per example, and how many generated score strings did not
    parse (each of those scored as the scale midpoint)."""
    scores, unparsed = [], 0
    limit = _length_limit(cfg, params)
    for ex in examples:
        if predict_override is not None:
            scores.append(float(predict_override(ex)))
            continue
        enc = _pair_enc(vocab, ex, limit)
        if cfg.output_strategy == "generate":
            generated = greedy_decode(params, enc,
                                      max_out=min(cfg.gen_max_tokens, limit))
            parsed = parse_score_string(generated, vocab)
            scores.append(parsed.value)
            unparsed += not parsed.ok
        else:
            scores.append(predict_similarity(params, enc))
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


def _decode_window_tags(params, cfg, vocab, table, words,
                        predict_override=None) -> tuple[list[str], bool]:
    """BIO tags for one window, and whether its tagged output was malformed
    (any parse flag)."""
    if predict_override is not None:
        text = predict_override(words)
    else:
        limit = _length_limit(cfg, params)
        generated = beam_decode(params, _ner_enc(vocab, words, limit),
                                width=cfg.beam_width,
                                max_out=min(limit, 4 * len(words) + 8))
        text = decode(vocab, generated)
    parsed = parse_tagged_output(text, table)
    return to_bio(parsed.segments, list(words)), bool(parsed.flags)


def evaluate_ner(params, cfg, vocab, table, examples, predict_override=None):
    """Window-wise decode, merge, and entity scoring over documents.

    Returns (NerReport, rows, malformed_windows) where rows are
    (words, gold, pred) per doc."""
    scorer = NerScorer()
    rows = []
    malformed = 0
    for ex in examples:
        per_window = []
        for offset, words, _tags in window_ner_example(ex, cfg.ner_window,
                                                       cfg.ner_stride):
            tags, flagged = _decode_window_tags(params, cfg, vocab, table,
                                                words, predict_override)
            per_window.append((offset, tags))
            malformed += flagged
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


def _with_counts(report: str, **counts: int) -> str:
    """A report with key=N lines added after its leading key=value lines,
    ahead of its table."""
    lines = report.splitlines()
    at = next(i for i, line in enumerate(lines) if "=" not in line)
    lines[at:at] = [f"{key}={n}" for key, n in counts.items()]
    return "\n".join(lines) + "\n"


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
        text = _with_counts(format_pair_task_report(pearson_v, mse_v, None, None),
                            unparsed_scores=unparsed)
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
        text = _with_counts(format_ner_report(ner_report),
                            malformed_windows=malformed)
        if out:
            write_conll_predictions(out(f"predictions_{split}.conll"), rows)

    if out:
        with atomic_write(out(f"eval_{split}.txt")) as fh:
            fh.write(text)
    return report

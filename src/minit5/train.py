"""Training and evaluation drivers: denoising pretraining, the three
fine-tuning tasks with early stopping, and metric evaluation."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .corpus import PackedDocument, Sentence
from .corruption import CorruptionConfig, make_pretrain_batch
from .decoding import beam_decode, greedy_decode
from .metrics import (classification_report, format_pair_task_report, mse,
                      pearson)
from .model import (ModelConfig, ModelParams, TrainableMask,
                    accumulate_loss_and_grad, apply_trainable_mask,
                    embedding_only_mask, encoder_mean_pool, full_mask,
                    init_model, log_softmax, loss_xent, predict_entailment,
                    predict_similarity, zero_grads, forward)
from .ner import (LabelTable, NerScorer, extract_entities, format_ner_report,
                  parse_tagged_output, to_bio, merge_windows,
                  write_conll_predictions)
from .optim import DivergedError, make_optimizer
from .tasks import (NerExample, SentencePairExample, assin_input_ids,
                    build_ner_target, make_similarity_target, ner_input_ids,
                    parse_score_string, read_conll, read_pairs_tsv,
                    strip_accents, window_ner_example)
from .unigram import EOS_ID, PAD_ID, UnigramVocab, decode, encode

ENTAILMENT_LABELS = ("entail", "none")


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


def acquire_lock(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, LOCK_NAME)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LockError(f"{out_dir} is locked by another run (remove {path} "
                        "if that run is dead)") from None
    os.write(fd, str(os.getpid()).encode())
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


def _chunks(items: list, size: int):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def _trim_pad(ids) -> list[int]:
    ids = list(ids)
    while ids and ids[-1] == PAD_ID:
        ids.pop()
    return ids


def _lm_item(input_ids, target_ids):
    enc = np.asarray(_trim_pad(input_ids), dtype=np.int64)
    tgt = np.asarray(_trim_pad(target_ids), dtype=np.int64)
    dec_in = np.concatenate(([EOS_ID], tgt[:-1]))
    return enc, dec_in, tgt


def batch_loss(params: ModelParams, items: list, objective: str) -> float:
    """Forward-only mean loss over items (validation use)."""
    if objective == "lm":
        total, tokens = 0.0, 0
        for enc, dec_in, tgt in items:
            logits = forward(params, enc, dec_in)
            keep = tgt != PAD_ID
            total += loss_xent(logits, tgt) * int(np.count_nonzero(keep))
            tokens += int(np.count_nonzero(keep))
        return total / tokens
    if objective == "regression":
        losses = [(predict_similarity(params, enc) - score) ** 2
                  for enc, score in items]
        return sum(losses) / len(losses)
    if objective == "classification":
        total = 0.0
        for enc, label in items:
            pool = encoder_mean_pool(params, enc)
            lp = log_softmax(pool @ params.tensors["cls.w"] + params.tensors["cls.b"])
            total += float(-lp[label])
        return total / len(items)
    raise ValueError(f"unknown objective {objective!r}")


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
            apply_trainable_mask(grads, mask)
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

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch\ttrain_loss\tval_loss\tval_objective\twall_seconds\n")
        for r in log.records:
            fh.write(f"{r.epoch}\t{fmt(r.train_loss)}\t{fmt(r.val_loss)}"
                     f"\t{fmt(r.val_objective)}\t{fmt(r.wall_seconds)}\n")
        fh.write(f"# best_epoch={log.best_epoch if log.best_epoch is not None else '-'}\n")


def write_curve(path: str, log: TrainLog) -> None:
    """Plot-ready TSV: epoch, train loss, validation loss."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch\ttrain\tval\n")
        for r in log.records:
            val = "-" if r.val_loss is None else f"{r.val_loss:.6f}"
            fh.write(f"{r.epoch}\t{r.train_loss:.6f}\t{val}\n")


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def _pretrain_items(cfg: RunConfig, vocab: UnigramVocab, docs) -> list:
    ccfg = CorruptionConfig(mask_rate=cfg.mask_rate, max_len=cfg.seq_len,
                            seed=cfg.seed)
    pairs = make_pretrain_batch(docs, vocab, ccfg)
    return [_lm_item(p.input_ids, p.target_ids) for p in pairs]


def run_pretrain(cfg: RunConfig):
    """Denoising pretraining with Adafactor at a constant learning rate.

    Honors embeddings_only (every non-embedding tensor stays bit-identical).
    Writes checkpoint.bin, train_log.tsv, and curve.tsv to out_dir.
    """
    vocab = UnigramVocab.load(_require_file(cfg.vocab_path, "vocabulary"))
    docs = load_packed_corpus(_require_file(cfg.corpus_path, "packed corpus"))
    params = _load_model(cfg, vocab)
    items = _pretrain_items(cfg, vocab, docs)
    mask = embedding_only_mask(params) if cfg.embeddings_only else full_mask(params)
    val_fn = None
    if cfg.val_path:
        val_docs = load_packed_corpus(_require_file(cfg.val_path, "validation corpus"))
        val_items = _pretrain_items(cfg, vocab, val_docs)

        def val_fn(p, _items=val_items):
            loss = batch_loss(p, _items, "lm")
            return loss, None if cfg.patience is None else loss

    lock = acquire_lock(cfg.out_dir)
    try:
        params, log = _train_loop(params, items, "lm", cfg, mask, val_fn)
        save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.bin"), params)
        write_train_log(os.path.join(cfg.out_dir, "train_log.tsv"), log)
        write_curve(os.path.join(cfg.out_dir, "curve.tsv"), log)
    finally:
        release_lock(lock)
    return params, log


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def _pair_words(cfg: RunConfig, text: str) -> str:
    return strip_accents(text) if cfg.strip_accents else text


def _pair_enc(cfg, vocab, ex: SentencePairExample) -> np.ndarray:
    ids = assin_input_ids(vocab, _pair_words(cfg, ex.sentence1),
                          _pair_words(cfg, ex.sentence2))[:cfg.seq_len]
    return np.asarray(ids, dtype=np.int64)


def _similarity_items(cfg, vocab, examples, generate: bool) -> list:
    items = []
    for ex in examples:
        if ex.similarity is None:
            raise DataError(f"{ex.id}: missing similarity label")
        enc = _pair_enc(cfg, vocab, ex)
        if generate:
            tgt = np.asarray(make_similarity_target(ex.similarity, vocab),
                             dtype=np.int64)[:cfg.seq_len]
            dec_in = np.concatenate(([EOS_ID], tgt[:-1]))
            items.append((enc, dec_in, tgt))
        else:
            items.append((enc, float(ex.similarity)))
    return items


def _entailment_items(cfg, vocab, examples) -> list:
    items = []
    for ex in examples:
        if ex.entailment is None:
            raise DataError(f"{ex.id}: missing entailment label")
        items.append((_pair_enc(cfg, vocab, ex),
                      ENTAILMENT_LABELS.index(ex.entailment)))
    return items


def _ner_doc_words(cfg: RunConfig, example: NerExample) -> NerExample:
    if not cfg.strip_accents:
        return example
    return NerExample(example.doc_id,
                      tuple(strip_accents(w) for w in example.words),
                      example.tags)


def _ner_items(cfg, vocab, table, examples) -> list:
    items = []
    for ex in examples:
        ex = _ner_doc_words(cfg, ex)
        for offset, words, tags in window_ner_example(ex, cfg.ner_window,
                                                      cfg.ner_stride):
            enc = np.asarray(ner_input_ids(vocab, list(words))[:cfg.seq_len],
                             dtype=np.int64)
            target_text = build_ner_target(list(words), list(tags), table)
            tgt = np.asarray((encode(vocab, target_text) + [EOS_ID])[:cfg.seq_len],
                             dtype=np.int64)
            dec_in = np.concatenate(([EOS_ID], tgt[:-1]))
            items.append((enc, dec_in, tgt))
    return items


def predict_similarity_scores(params, cfg, vocab, examples,
                              predict_override=None) -> list[float]:
    scores = []
    for ex in examples:
        if predict_override is not None:
            scores.append(float(predict_override(ex)))
            continue
        enc = _pair_enc(cfg, vocab, ex)
        if cfg.output_strategy == "generate":
            generated = greedy_decode(params, enc, max_out=cfg.gen_max_tokens)
            scores.append(parse_score_string(generated, vocab).value)
        else:
            scores.append(predict_similarity(params, enc))
    return scores


def predict_entailment_labels(params, cfg, vocab, examples,
                              predict_override=None) -> list[str]:
    labels = []
    for ex in examples:
        if predict_override is not None:
            labels.append(predict_override(ex))
            continue
        probs = predict_entailment(params, _pair_enc(cfg, vocab, ex))
        labels.append(ENTAILMENT_LABELS[int(np.argmax(probs))])
    return labels


def _decode_window_tags(params, cfg, vocab, table, words,
                        predict_override=None) -> list[str]:
    if predict_override is not None:
        text = predict_override(words)
    else:
        enc = np.asarray(ner_input_ids(vocab, list(words))[:cfg.seq_len],
                         dtype=np.int64)
        max_out = min(cfg.seq_len, 4 * len(words) + 8)
        generated = beam_decode(params, enc, width=cfg.beam_width,
                                max_out=max_out)
        text = decode(vocab, generated)
    parsed = parse_tagged_output(text, table)
    return to_bio(parsed.segments, list(words))


def evaluate_ner(params, cfg, vocab, table, examples, predict_override=None):
    """Window-wise decode, merge, and entity scoring over documents.

    Returns (NerReport, rows) where rows are (words, gold, pred) per doc."""
    scorer = NerScorer()
    rows = []
    for ex in examples:
        ex = _ner_doc_words(cfg, ex)
        per_window = []
        for offset, words, _tags in window_ner_example(ex, cfg.ner_window,
                                                       cfg.ner_stride):
            tags = _decode_window_tags(params, cfg, vocab, table, words,
                                       predict_override)
            per_window.append((offset, tags))
        merged = merge_windows(per_window, len(ex.words))
        scorer.add(extract_entities(list(ex.tags)), extract_entities(merged))
        rows.append((list(ex.words), list(ex.tags), merged))
    return scorer.report(), rows


def run_finetune(cfg: RunConfig, predict_override=None):
    """Task fine-tuning with early stopping on the validation objective:
    MSE for similarity, cross-entropy for entailment, micro-F1 for NER.
    Restores and saves the best checkpoint observed."""
    vocab = UnigramVocab.load(_require_file(cfg.vocab_path, "vocabulary"))
    params = _load_model(cfg, vocab)
    table = LabelTable(cfg.label_language)
    mask = embedding_only_mask(params) if cfg.embeddings_only else full_mask(params)
    train_path = _require_file(cfg.train_path, "training data")
    val_path = _require_file(cfg.val_path, "validation data") if cfg.val_path else None

    maximize = False
    if cfg.task == "similarity":
        generate = cfg.output_strategy == "generate"
        train_ex = read_pairs_tsv(train_path)
        items = _similarity_items(cfg, vocab, train_ex, generate)
        objective = "lm" if generate else "regression"
        val_fn = None
        if val_path:
            val_ex = read_pairs_tsv(val_path)
            gold = [ex.similarity for ex in val_ex]

            def val_fn(p):
                preds = predict_similarity_scores(p, cfg, vocab, val_ex)
                val_mse = mse(preds, gold)
                return val_mse, val_mse
    elif cfg.task == "entailment":
        train_ex = read_pairs_tsv(train_path)
        items = _entailment_items(cfg, vocab, train_ex)
        objective = "classification"
        val_fn = None
        if val_path:
            val_items = _entailment_items(cfg, vocab, read_pairs_tsv(val_path))

            def val_fn(p):
                ce = batch_loss(p, val_items, "classification")
                return ce, ce
    elif cfg.task == "ner":
        train_ex = read_conll(train_path)
        items = _ner_items(cfg, vocab, table, train_ex)
        objective = "lm"
        maximize = True
        val_fn = None
        if val_path:
            val_ex = read_conll(val_path)
            val_items = _ner_items(cfg, vocab, table, val_ex)

            def val_fn(p):
                report, _ = evaluate_ner(p, cfg, vocab, table, val_ex)
                return batch_loss(p, val_items, "lm"), report.micro.f1
    else:
        raise DataError("run_finetune requires a fine-tuning task")

    lock = acquire_lock(cfg.out_dir)
    try:
        params, log = _train_loop(params, items, objective, cfg, mask,
                                  val_fn, maximize=maximize)
        save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.bin"), params)
        write_train_log(os.path.join(cfg.out_dir, "train_log.tsv"), log)
        write_curve(os.path.join(cfg.out_dir, "curve.tsv"), log)
    finally:
        release_lock(lock)
    return params, log


def run_evaluate(cfg: RunConfig, params: ModelParams, split: str = "test",
                 predict_override=None) -> dict:
    """Evaluate a checkpoint on a split and write the metric report."""
    vocab = UnigramVocab.load(_require_file(cfg.vocab_path, "vocabulary"))
    check_vocab_size(params, vocab)
    path = {"train": cfg.train_path, "val": cfg.val_path,
            "test": cfg.test_path}.get(split)
    if path is None:
        raise DataError(f"unknown split {split!r}")
    path = _require_file(path, f"{split} data")
    out = None
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        out = lambda name: os.path.join(cfg.out_dir, name)

    if cfg.task == "similarity":
        examples = read_pairs_tsv(path)
        gold = [ex.similarity for ex in examples]
        if any(g is None for g in gold):
            raise DataError("similarity labels missing from evaluation data")
        preds = predict_similarity_scores(params, cfg, vocab, examples,
                                          predict_override)
        try:
            pearson_v = pearson(preds, gold)
        except ValueError:
            pearson_v = float("nan")  # constant predictions from a weak model
        mse_v = mse(preds, gold)
        report = {"pearson": pearson_v, "mse": mse_v, "n": len(preds)}
        text = format_pair_task_report(pearson_v, mse_v, None, None)
    elif cfg.task == "entailment":
        examples = read_pairs_tsv(path)
        gold = [ex.entailment for ex in examples]
        if any(g is None for g in gold):
            raise DataError("entailment labels missing from evaluation data")
        preds = predict_entailment_labels(params, cfg, vocab, examples,
                                          predict_override)
        rep = classification_report(preds, gold)
        report = {"accuracy": rep.accuracy, "macro_f1": rep.macro_f1}
        text = format_pair_task_report(None, None, rep.accuracy, rep.macro_f1)
    elif cfg.task == "ner":
        table = LabelTable(cfg.label_language)
        examples = read_conll(path)
        ner_report, rows = evaluate_ner(params, cfg, vocab, table, examples,
                                        predict_override)
        report = {"micro_precision": ner_report.micro.precision,
                  "micro_recall": ner_report.micro.recall,
                  "micro_f1": ner_report.micro.f1,
                  "per_class": ner_report.per_class}
        text = format_ner_report(ner_report)
        if out:
            write_conll_predictions(out(f"predictions_{split}.conll"), rows)
    else:
        raise DataError("evaluate requires a fine-tuning task")

    if out:
        with open(out(f"eval_{split}.txt"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(text)
    return report

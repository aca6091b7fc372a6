"""The four benchmark workloads.

A workload writes its generated inputs at set-up, lists the CLI stages of one
pass (run one after another in one process, closed loop), checks the outputs
of a finished pass, and turns a pass's stage walls into its own end-to-end
figures.

Why these four:
- data: preprocess, train-vocab by EM at V=2k, then make-pretrain-data with a
  generated 32k-piece vocabulary. Tokenizer and data path only, no model; the
  32k encode is where the piece table is rebuilt on every call.
- pretrain: one denoising epoch at L=256, V=8k, d=64, 2+2 layers, batch 8,
  Adafactor. Long sequences and BLAS-sized fwd+bwd; decoding does no work.
- ner: one fine-tuning epoch with beam-5 validation decode, then evaluate on
  the test split, at V=8k with short windows and AdamW with accumulation.
  The beam search's Python loop over V dominates.
- pairs: linear-head similarity, entailment and generated similarity, each
  fine-tuned for one epoch and evaluated. Many short inputs and small calls;
  the only workload on the pooled-encoder heads, RAdam, greedy decoding,
  score-string parsing and the metrics module.
"""

from __future__ import annotations

import math
import os
import random
import statistics
from dataclasses import dataclass, field

from minit5.checkpoint import load_checkpoint
from minit5.corruption import read_pair_cache
from minit5.model import init_model
from minit5.tasks import read_conll
from minit5.unigram import (EOS_ID, PAD_ID, RESERVED_PIECES, UnigramVocab,
                            decode, encode)

import gen

MODEL = {"d_model": 64, "n_heads": 4, "d_ff": 128, "n_enc_layers": 2,
         "n_dec_layers": 2}
# The program's own seed (model init, masking) is the same for every
# workload seed: with one epoch a fresh model's loss is mostly its init, so
# a per-seed init would make train_loss vary more than the data does.
PROGRAM_SEED = 0


@dataclass
class Check:
    stage: str
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Inputs:
    """Paths of what set-up wrote, and the sizes its metrics divide by."""
    root: str
    files: dict[str, str] = field(default_factory=dict)
    sizes: dict[str, float] = field(default_factory=dict)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _lines(items) -> str:
    return "".join(f"{item}\n" for item in items)


def _conll(docs) -> str:
    return "\n".join(_lines(f"{w} {t}" for w, t in doc) for doc in docs)


def _tsv(rows) -> str:
    header = ("id", "sentence1", "sentence2", "similarity", "entailment")
    return _lines("\t".join(r) for r in [header, *rows])


def _config(path: str, run: dict, paths: dict) -> str:
    parts = ["[run]", *(f"{k} = {v}" for k, v in run.items()),
             "[model]", *(f"{k} = {v}" for k, v in MODEL.items()),
             "[paths]", *(f"{k} = {v}" for k, v in paths.items())]
    return _write(path, _lines(parts))


def _read_kv(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh
                    if "=" in line)


def last_train_loss(out_dir: str) -> float:
    with open(os.path.join(out_dir, "train_log.tsv"), encoding="utf-8") as fh:
        rows = [line.split("\t") for line in fh if line[:1].isdigit()]
    return float(rows[-1][1])


def _guard(stage: str, name: str, fn) -> Check:
    """Run one output check; a missing or unreadable output fails it."""
    try:
        ok, detail = fn()
    except (OSError, ValueError, KeyError, IndexError, EOFError) as exc:
        return Check(stage, name, False, repr(exc))
    return Check(stage, name, bool(ok), str(detail))


def _loss_check(stage: str, out_dir: str) -> Check:
    def finite():
        loss = last_train_loss(out_dir)
        return math.isfinite(loss), repr(loss)
    return _guard(stage, "train_loss is finite", finite)


def _in_unit(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _cli(*args: str, config: str | None = None) -> list[str]:
    return ["--config", config] * (config is not None) + ["--deterministic", *args]


class Workload:
    name = ""

    def setup(self, seed: int, root: str) -> Inputs:
        """Generate and write every input of the workload under root."""
        raise NotImplementedError

    def stages(self, inp: Inputs, out: str) -> list[tuple[str, list[str]]]:
        """(label, CLI argv) of one pass writing under out; writes configs."""
        raise NotImplementedError

    def checks(self, inp: Inputs, out: str) -> list[Check]:
        raise NotImplementedError

    def figures(self, inp: Inputs, out: str, walls: dict[str, float]) -> dict:
        """This workload's own end-to-end figures of one pass:
        name -> (value, unit)."""
        raise NotImplementedError

    def train_loss(self, inp: Inputs, out: str) -> float:
        """Last-epoch training objective of the pass's training stage(s)."""
        raise NotImplementedError


def _vocab(lex, size: int, covered: list[str], path: str) -> str:
    gen.build_vocab(lex, size, covered).save(path)
    return path


class Data(Workload):
    name = "data"
    EM_VOCAB = 2000
    MAX_WORDS = 64

    def setup(self, seed, root):
        rng, lex = random.Random(seed), gen.language()
        raw, clean = gen.raw_text(rng, lex, n_chars=80000,
                                  sentences_per_paragraph=8)
        sents = gen.sentences(rng, lex, n_chars=9000)
        inp = Inputs(root)
        inp.files["raw"] = _write(os.path.join(root, "raw.txt"), raw)
        inp.files["sentences"] = _write(os.path.join(root, "sentences.txt"),
                                        _lines(sents))
        inp.files["vocab"] = _vocab(lex, 32000, clean + sents,
                                    os.path.join(root, "vocab32k.tsv"))
        inp.sizes["raw_bytes"] = len(raw.encode("utf-8"))
        return inp

    def stages(self, inp, out):
        packed = os.path.join(out, "packed.txt")
        return [
            ("preprocess", _cli("preprocess", inp.files["raw"], "--output", packed,
                                "--stats", os.path.join(out, "stats.txt"),
                                "--max-words", str(self.MAX_WORDS))),
            ("train-vocab", _cli("train-vocab", "--corpus", inp.files["sentences"],
                                 "--output", os.path.join(out, "vocab2k.tsv"),
                                 "--vocab-size", str(self.EM_VOCAB))),
            ("make-pretrain-data", _cli("make-pretrain-data",
                                        "--vocab", inp.files["vocab"],
                                        "--corpus", packed,
                                        "--output", os.path.join(out, "pairs.bin"))),
        ]

    @staticmethod
    def _docs(out):
        with open(os.path.join(out, "packed.txt"), encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]

    def checks(self, inp, out):
        def stats():
            n = int(_read_kv(os.path.join(out, "stats.txt"))["n_documents"])
            return n == len(self._docs(out)), f"n_documents={n}"

        def vocab2k():
            vocab = UnigramVocab.load(os.path.join(out, "vocab2k.tsv"))
            head = tuple(vocab.piece(i) for i in range(len(RESERVED_PIECES)))
            return (len(vocab) == self.EM_VOCAB and head == RESERVED_PIECES,
                    f"size={len(vocab)} head={head}")

        def pairs():
            return read_pair_cache(os.path.join(out, "pairs.bin"))[0]

        def one_per_doc():
            n, docs = len(pairs()), len(self._docs(out))
            return n == docs, f"{n} pairs for {docs} documents"

        def eos():
            bad = 0
            for p in pairs():
                t, n = p.target_ids, len(p.target_ids)
                while n and t[n - 1] == PAD_ID:
                    n -= 1
                bad += n == 0 or t[n - 1] != EOS_ID or PAD_ID in t[:n]
            return bad == 0, f"{bad} targets without EOS before padding"

        def round_trip():
            # a cached target is encode(line) + EOS, so decoding it checks
            # decode(encode(line)) == line without encoding again
            vocab = UnigramVocab.load(inp.files["vocab"])
            bad = sum(decode(vocab, p.target_ids) != line
                      for p, line in zip(pairs(), self._docs(out)))
            return bad == 0, f"{bad} lines differ"

        return [
            _guard("preprocess", "stats n_documents matches the packed corpus", stats),
            _guard("train-vocab", "vocabulary has the requested size, reserved ids 0-3",
                   vocab2k),
            _guard("make-pretrain-data", "read_pair_cache gives one pair per document",
                   one_per_doc),
            _guard("make-pretrain-data", "each target ends in EOS before its padding", eos),
            _guard("make-pretrain-data", "decode(encode(line)) == line at V=32k",
                   round_trip),
        ]

    def figures(self, inp, out, walls):
        with open(os.path.join(out, "packed.txt"), encoding="utf-8") as fh:
            chars = sum(len(line) - 1 for line in fh)
        return {
            "preprocess_mb_per_s": (inp.sizes["raw_bytes"] / 1e6 / walls["preprocess"],
                                    "MB/s"),
            "train_vocab_s": (walls["train-vocab"], "s"),
            "make_data_chars_per_s": (chars / walls["make-pretrain-data"], "1/s"),
        }

    def train_loss(self, inp, out):
        """Viterbi negative log-likelihood per character of the EM corpus
        under the trained 2k vocabulary: what train-vocab minimizes."""
        vocab = UnigramVocab.load(os.path.join(out, "vocab2k.tsv"))
        nll, chars = 0.0, 0
        with open(inp.files["sentences"], encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                nll -= sum(vocab.log_prob(i) for i in encode(vocab, line))
                chars += len(line)
        return nll / chars


def _checkpoint_check(stage: str, out_dir: str, vocab_size: int,
                      seq_len: int) -> Check:
    def shapes():
        params = load_checkpoint(os.path.join(out_dir, "checkpoint.bin"))
        cfg = params.cfg
        want = dict(MODEL, vocab_size=vocab_size, max_len=seq_len)
        got = {k: getattr(cfg, k) for k in want}
        ref = init_model(cfg, 0).tensors
        same = {k: v.shape for k, v in ref.items()} == \
            {k: v.shape for k, v in params.tensors.items()}
        return got == want and same, f"config={got} shapes_match={same}"
    return _guard(stage, "checkpoint loads with the configured shapes", shapes)


class Pretrain(Workload):
    name = "pretrain"
    VOCAB = 8000
    SEQ_LEN = 256

    def setup(self, seed, root):
        rng, lex = random.Random(seed), gen.language()
        train = gen.packed_documents(rng, lex, 24, min_words=300)
        val = gen.packed_documents(rng, lex, 4, min_words=300)
        inp = Inputs(root)
        inp.files["corpus"] = _write(os.path.join(root, "packed.txt"), _lines(train))
        inp.files["val"] = _write(os.path.join(root, "val.txt"), _lines(val))
        inp.files["vocab"] = _vocab(lex, self.VOCAB, train + val,
                                    os.path.join(root, "vocab8k.tsv"))
        return inp

    def stages(self, inp, out):
        cfg = _config(os.path.join(out, "pretrain.cfg"),
                      {"task": "pretrain", "optimizer": "adafactor", "lr": 0.003,
                       "max_epochs": 1, "mask_rate": 0.15,
                       "seq_len": self.SEQ_LEN, "batch_size": 8,
                       "seed": PROGRAM_SEED, "deterministic": "true"},
                      {"vocab": inp.files["vocab"], "corpus": inp.files["corpus"],
                       "val": inp.files["val"], "out_dir": out})
        return [("pretrain", _cli("pretrain", config=cfg))]

    def checks(self, inp, out):
        return [_loss_check("pretrain", out),
                _checkpoint_check("pretrain", out, self.VOCAB, self.SEQ_LEN)]

    def _target_tokens(self, inp):
        """Non-pad target tokens of one epoch: encode(doc)[:L] + EOS, cut to L."""
        if "target_tokens" not in inp.sizes:
            vocab = UnigramVocab.load(inp.files["vocab"])
            with open(inp.files["corpus"], encoding="utf-8") as fh:
                inp.sizes["target_tokens"] = sum(
                    min(len(encode(vocab, line.rstrip("\n"))) + 1, self.SEQ_LEN)
                    for line in fh)
        return inp.sizes["target_tokens"]

    def figures(self, inp, out, walls):
        return {"pretrain_tokens_per_s": (self._target_tokens(inp) / walls["pretrain"],
                                          "1/s")}

    def train_loss(self, inp, out):
        return last_train_loss(out)


class Ner(Workload):
    name = "ner"
    VOCAB = 8000
    # a fresh model never emits EOS, so every window decodes the full
    # 4 * words + 8 steps at about 0.1 s a step; 4-word windows and one
    # window per validation and test document keep a pass near five seconds
    WINDOW, STRIDE = 4, 2

    def setup(self, seed, root):
        rng, lex = random.Random(seed), gen.language()
        train = [gen.ner_document(rng, lex, self.WINDOW) for _ in range(48)]
        val = [gen.ner_document(rng, lex, self.WINDOW)]
        test = [gen.ner_document(rng, lex, self.WINDOW)]
        inp = Inputs(root)
        for split, docs in (("train", train), ("val", val), ("test", test)):
            inp.files[split] = _write(os.path.join(root, f"{split}.conll"), _conll(docs))
        words = [" ".join(w for w, _ in doc) for doc in train + val + test]
        inp.files["vocab"] = _vocab(lex, self.VOCAB, words + gen.fixed_strings(),
                                    os.path.join(root, "vocab8k.tsv"))
        inp.sizes["test_words"] = sum(len(doc) for doc in test)
        return inp

    def stages(self, inp, out):
        cfg = _config(os.path.join(out, "ner.cfg"),
                      {"task": "ner", "optimizer": "adamw", "lr": 0.0002,
                       "batch_size": 2, "grad_accum_steps": 4, "max_epochs": 1,
                       "seq_len": 64, "beam_width": 5, "label_language": "pt",
                       "ner_window": self.WINDOW, "ner_stride": self.STRIDE,
                       "seed": PROGRAM_SEED, "deterministic": "true"},
                      {"vocab": inp.files["vocab"], "train": inp.files["train"],
                       "val": inp.files["val"], "test": inp.files["test"],
                       "out_dir": out})
        return [("finetune", _cli("finetune", config=cfg)),
                ("evaluate", _cli("evaluate", "--checkpoint",
                                  os.path.join(out, "checkpoint.bin"),
                                  "--split", "test", config=cfg))]

    def checks(self, inp, out):
        def rows():
            gold = [w for doc in read_conll(inp.files["test"]) for w in doc.words]
            with open(os.path.join(out, "predictions_test.conll"), encoding="utf-8") as fh:
                pred = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
            ok = len(pred) == len(gold) and all(len(r) == 3 for r in pred) and \
                [r[0] for r in pred] == gold
            return ok, f"{len(pred)} rows for {len(gold)} gold words"

        def f1():
            value = float(_read_kv(os.path.join(out, "eval_test.txt"))["micro_f1"])
            return _in_unit(value), f"micro_f1={value}"

        return [_loss_check("finetune", out),
                _guard("evaluate", "one 3-column prediction row per gold word", rows),
                _guard("evaluate", "micro-F1 is in [0, 1]", f1)]

    def figures(self, inp, out, walls):
        return {"finetune_epoch_s": (walls["finetune"], "s"),
                "ner_eval_words_per_s": (inp.sizes["test_words"] / walls["evaluate"],
                                         "1/s")}

    def train_loss(self, inp, out):
        return last_train_loss(out)


# (name, config [run] entries) of the three sentence-pair tasks
PAIR_TASKS = (
    ("similarity-linear", {"task": "similarity", "output_strategy": "linear-head"}),
    ("entailment", {"task": "entailment"}),
    ("similarity-generate", {"task": "similarity", "output_strategy": "generate",
                             "gen_max_tokens": 5}),
)


class Pairs(Workload):
    name = "pairs"
    VOCAB = 8000

    def setup(self, seed, root):
        rng, lex = random.Random(seed), gen.language()
        splits = {"train": 96, "val": 16, "test": 48}
        inp = Inputs(root)
        covered, start = list(gen.fixed_strings()), 0
        for split, n in splits.items():
            rows = gen.pair_rows(rng, lex, n, start)
            start += n
            covered += [r[1] for r in rows] + [r[2] for r in rows] + [r[3] for r in rows]
            inp.files[split] = _write(os.path.join(root, f"{split}.tsv"), _tsv(rows))
        inp.files["vocab"] = _vocab(lex, self.VOCAB, covered,
                                    os.path.join(root, "vocab8k.tsv"))
        inp.sizes["test_examples"] = splits["test"]
        return inp

    def stages(self, inp, out):
        stages = []
        for task, run in PAIR_TASKS:
            task_dir = os.path.join(out, task)
            os.makedirs(task_dir)
            cfg = _config(os.path.join(task_dir, "task.cfg"),
                          {**run, "optimizer": "radam", "lr": 0.0001,
                           "batch_size": 16, "max_epochs": 1, "seq_len": 64,
                           "seed": PROGRAM_SEED, "deterministic": "true"},
                          {"vocab": inp.files["vocab"], "train": inp.files["train"],
                           "val": inp.files["val"], "test": inp.files["test"],
                           "out_dir": task_dir})
            stages += [(f"finetune/{task}", _cli("finetune", config=cfg)),
                       (f"evaluate/{task}", _cli("evaluate", "--checkpoint",
                                                 os.path.join(task_dir, "checkpoint.bin"),
                                                 "--split", "test", config=cfg))]
        return stages

    def checks(self, inp, out):
        out_checks = []
        for task, run in PAIR_TASKS:
            task_dir = os.path.join(out, task)
            report = os.path.join(task_dir, "eval_test.txt")
            out_checks.append(_loss_check(f"finetune/{task}", task_dir))
            if run["task"] == "similarity":
                def mse(report=report):
                    value = float(_read_kv(report)["mse"])
                    return math.isfinite(value), f"mse={value}"
                out_checks.append(_guard(f"evaluate/{task}", "MSE is finite", mse))
            else:
                def unit(report=report):
                    kv = _read_kv(report)
                    acc, f1 = float(kv["accuracy"]), float(kv["f1"])
                    return _in_unit(acc) and _in_unit(f1), f"accuracy={acc} f1={f1}"
                out_checks.append(_guard(f"evaluate/{task}",
                                         "accuracy and macro-F1 are in [0, 1]", unit))
        return out_checks

    def figures(self, inp, out, walls):
        finetune = [walls[f"finetune/{t}"] for t, _ in PAIR_TASKS]
        evaluate = sum(walls[f"evaluate/{t}"] for t, _ in PAIR_TASKS)
        return {"finetune_epoch_s": (statistics.fmean(finetune), "s"),
                "pair_eval_examples_per_s": (
                    len(PAIR_TASKS) * inp.sizes["test_examples"] / evaluate, "1/s")}

    def train_loss(self, inp, out):
        return statistics.fmean(last_train_loss(os.path.join(out, t))
                                for t, _ in PAIR_TASKS)


WORKLOADS = {w.name: w for w in (Data(), Pretrain(), Ner(), Pairs())}

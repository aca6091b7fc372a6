"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from minit5.config import RunConfig
from minit5.corruption import CorruptionConfig, mask_positions, mask_tokens
from minit5.decoding import beam_decode, beam_search, greedy_decode
from minit5.metrics import macro_f1, mse, pearson
from minit5.model import (ModelConfig, classification_head, encoder_mean_pool,
                          forward, init_model, loss_and_grad, loss_xent,
                          regression_head)
from minit5.ner import (EntitySpan, LabelTable, entity_prf,
                        parse_tagged_output, to_bio, validate_bio)
from minit5.tasks import build_ner_target
from minit5.train import run_finetune, run_evaluate, run_pretrain, _model_config
from minit5.unigram import (EOS_ID, RESERVED_PIECES, UnigramVocab,
                            build_seed_vocab, decode, em_step, encode,
                            train_vocab)

from oracles import (best_segmentation, exhaustive_decode, max_rel_error,
                     reference_align_tagged, reference_macro_f1,
                     reference_pearson, reference_prf)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


PT_WORDS = ["casa", "gato", "agua", "pao", "sol", "mar", "rio", "dia",
            "flor", "vento", "noite", "luz"]


def pt_corpus(n, seed=0, max_words=6):
    rng = random.Random(seed)
    return [" ".join(rng.choice(PT_WORDS) for _ in range(rng.randrange(1, max_words)))
            for _ in range(n)]


def make_vocab(scored):
    return UnigramVocab([(p, 0.0) for p in RESERVED_PIECES] + list(scored.items()))


def test_criterion_01_tokenizer_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2024)
    alphabet = "abc"
    mismatches = 0
    for _ in range(500):
        pieces = {ch: None for ch in alphabet}
        while len(pieces) < rng.randrange(4, 21):
            ln = rng.randrange(2, 5)
            pieces["".join(rng.choice(alphabet) for _ in range(ln))] = None
        raw = {p: rng.random() + 0.05 for p in pieces}
        total = sum(raw.values())
        scored = {p: math.log(v / total) for p, v in raw.items()}
        vocab = make_vocab(scored)
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 13)))
        got = tuple(vocab.piece(i) for i in encode(vocab, s))
        if got != best_segmentation(s, scored):
            mismatches += 1
    elapsed = time.time() - t0
    report(1, "Viterbi encode equals exhaustive best segmentation on 500 "
              "random instances", mismatches == 0 and elapsed < 10.0,
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_em_monotonicity():
    t0 = time.time()
    corpus = pt_corpus(200, seed=3)
    vocab = build_seed_vocab(corpus, 400)
    prev = None
    worst = 0.0
    for _ in range(20):
        vocab, ll = em_step(corpus, vocab)
        if prev is not None:
            drop = (prev - ll) / abs(prev)
            worst = max(worst, drop)
        prev = ll
    elapsed = time.time() - t0
    report(2, "20 EM iterations never decrease log-likelihood beyond 1e-9 "
              "relative", worst <= 1e-9 and elapsed < 30.0,
           f"worst relative drop {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_round_trip_10k():
    corpus = pt_corpus(80, seed=19)
    vocab = train_vocab(corpus, vocab_size=150)
    chars = sorted({ch for line in corpus for ch in line})
    rng = random.Random(999)
    failures = 0
    for _ in range(10_000):
        s = "".join(rng.choice(chars) for _ in range(rng.randrange(0, 24))).strip()
        if decode(vocab, encode(vocab, s)) != s:
            failures += 1
    report(3, "decode(encode(s)) == s for 10,000 fuzzed covered strings",
           failures == 0, f"{failures} failures")


def test_criterion_04_corruption_rate_and_target():
    flags = mask_positions(100_000, 0.15, seed=7)
    frac = sum(flags) / len(flags)
    rate_ok = 0.14 <= frac <= 0.16
    rng = random.Random(5)
    target_ok = True
    for trial in range(200):
        ids = [rng.randrange(4, 200) for _ in range(rng.randrange(1, 80))]
        cfg = CorruptionConfig(mask_rate=0.15, max_len=512, seed=trial)
        pair = mask_tokens(ids, cfg, seed=trial)
        if pair.target_ids != tuple(ids) + (EOS_ID,):
            target_ok = False
    report(4, "pre-collapse mask fraction of 100,000 seeded tokens in "
              "[0.14, 0.16] and target always equals original + eos",
           rate_ok and target_ok, f"fraction {frac:.5f}")


@pytest.mark.slow
def test_criterion_05_gradient_check_all_tensors():
    t0 = time.time()
    cfg = ModelConfig(vocab_size=30, d_model=32, n_heads=4, d_ff=48,
                      n_enc_layers=2, n_dec_layers=2, max_len=10)
    params = init_model(cfg, seed=11)
    t = params.tensors
    h = 1e-3
    worst = 0.0
    worst_name = ""

    def run_check(objective, batch, names, loss_fn):
        nonlocal worst, worst_name
        _, grads = loss_and_grad(params, batch, objective)
        for name in names:
            flat = t[name].ravel()
            num = np.zeros(flat.size)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                fp = loss_fn(batch)
                flat[i] = old - h
                fm = loss_fn(batch)
                flat[i] = old
                num[i] = (fp - fm) / (2 * h)
            rel = max_rel_error(grads[name].ravel(), num)
            if rel > worst:
                worst, worst_name = rel, name

    def lm_loss(batch):
        total, toks = 0.0, 0
        for enc, dec, tgt in batch:
            keep = int(np.count_nonzero(tgt != 0))
            total += loss_xent(forward(params, enc, dec), tgt) * keep
            toks += keep
        return total / toks

    def reg_loss(batch):
        total = 0.0
        for enc, score in batch:
            pool = encoder_mean_pool(params, enc)
            total += (regression_head(pool, t["reg.w"], t["reg.b"]) - score) ** 2
        return total / len(batch)

    def cls_loss(batch):
        total = 0.0
        for enc, label in batch:
            pool = encoder_mean_pool(params, enc)
            total += -math.log(classification_head(pool, t["cls.w"],
                                                   t["cls.b"])[label])
        return total / len(batch)

    lm_batch = [(np.array([5, 6, 7, 0]), np.array([1, 8, 9]), np.array([8, 9, 1])),
                (np.array([4, 9]), np.array([1, 5]), np.array([5, 1]))]
    lm_names = [n for n in t if not n.startswith(("reg.", "cls."))]
    run_check("lm", lm_batch, lm_names, lm_loss)
    run_check("regression", [(np.array([5, 6, 7]), 2.5)],
              ["reg.w", "reg.b"], reg_loss)
    run_check("classification", [(np.array([5, 6, 7]), 0)],
              ["cls.w", "cls.b"], cls_loss)
    elapsed = time.time() - t0
    report(5, "analytic gradients match central finite differences within "
              "1e-3 on a 2-layer d=32 model, all tensors including both heads",
           worst < 1e-3 and elapsed < 120.0,
           f"max rel err {worst:.2e} at {worst_name}, {elapsed:.0f}s")


def _pretrain_fixture(tmp_path, out_name, **kw):
    rng = random.Random(3)
    docs = []
    for _ in range(200):
        phrase = [rng.choice(PT_WORDS[:8]) for _ in range(3)]
        docs.append(" ".join(" ".join(phrase) for _ in range(rng.randrange(3, 6))))
    corpus_path = tmp_path / "packed.txt"
    corpus_path.write_text("\n".join(docs) + "\n", encoding="utf-8")
    vocab = train_vocab(docs[:40], vocab_size=60)
    vocab_path = tmp_path / "vocab.tsv"
    vocab.save(vocab_path)
    base = dict(task="pretrain", optimizer="adafactor", lr=3e-3, batch_size=4,
                max_epochs=4, seed=0, deterministic=True, mask_rate=0.15,
                seq_len=64, d_model=64, n_heads=2, d_ff=128, n_enc_layers=1,
                n_dec_layers=1, vocab_path=str(vocab_path),
                corpus_path=str(corpus_path), out_dir=str(tmp_path / out_name))
    base.update(kw)
    return RunConfig(**base)


def test_criterion_06_pretraining_smoke(tmp_path):
    t0 = time.time()
    cfg = _pretrain_fixture(tmp_path, "full")
    _, log = run_pretrain(cfg)
    losses = [r.train_loss for r in log.records]
    halved = losses[-1] < 0.5 * losses[0]
    emb_cfg = _pretrain_fixture(tmp_path, "embonly", embeddings_only=True,
                                max_epochs=1)
    params, _ = run_pretrain(emb_cfg)
    vocab = UnigramVocab.load(emb_cfg.vocab_path)
    init = init_model(_model_config(emb_cfg, vocab), emb_cfg.seed)
    frozen_ok = all(np.array_equal(params.tensors[k], init.tensors[k])
                    for k in init.tensors if k != "tok_emb")
    elapsed = time.time() - t0
    report(6, "4-epoch Adafactor (lr 0.003) pretraining halves the epoch loss "
              "on 200 synthetic documents; embedding-only mode freezes the rest "
              "bit-exactly", halved and frozen_ok and elapsed < 300.0,
           f"loss {losses[0]:.3f}->{losses[-1]:.3f}, {elapsed:.0f}s")


def test_criterion_07_head_formulas():
    rng = np.random.default_rng(12)
    in_range = True
    for z in rng.normal(0.0, 25.0, size=10_000):
        s = regression_head(np.array([z]), np.ones(1), np.zeros(1))
        if not 1.0 <= s <= 5.0:
            in_range = False
    midpoint = regression_head(np.zeros(3), np.ones(3), np.zeros(1))
    report(7, "regression head stays in [1, 5] over 10,000 random "
              "pre-activations and maps pre-activation 0 to exactly 3.0",
           in_range and midpoint == 3.0, f"midpoint {midpoint}")


def test_criterion_08_ner_inverse_property():
    table = LabelTable("en")
    label_to_class = {"person": "Person", "organization": "Organization",
                      "local": "Location", "value": "Value", "date": "Date",
                      "other": "Other"}
    rng = random.Random(11)
    fuzz_ok = True
    for _ in range(1000):
        n = rng.randrange(1, 12)
        words = [f"w{i}" for i in range(n)]
        tags = []
        i = 0
        while i < n:
            if rng.random() < 0.4:
                cls = rng.choice(("PER", "LOC"))
                run = min(rng.randrange(1, 4), n - i)
                tags.append(f"B-{cls}")
                tags.extend(f"I-{cls}" for _ in range(run - 1))
                i += run
            else:
                tags.append("O")
                i += 1
        parsed = parse_tagged_output(build_ner_target(words, tags, table), table)
        if to_bio(parsed.segments, words) != tags:
            fuzz_ok = False
    exhaustive_ok = True
    options = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
    for n in range(1, 6):
        for combo in itertools.product(options, repeat=n):
            tags = list(combo)
            try:
                validate_bio(tags)
            except ValueError:
                continue
            words = [f"w{i}" for i in range(n)]
            text = build_ner_target(words, tags, table)
            parsed = parse_tagged_output(text, table)
            got = to_bio(parsed.segments, words)
            if got != tags or got != reference_align_tagged(text, words,
                                                            label_to_class):
                exhaustive_ok = False
    report(8, "tagged-output build/parse/align round-trips 1,000 fuzzed BIO "
              "sequences and matches the brute-force aligner exhaustively",
           fuzz_ok and exhaustive_ok)


def test_criterion_09_worked_example():
    parsed = parse_tagged_output(
        "John [Person] lives in [Other] New York [Local]", LabelTable("en"))
    got = to_bio(parsed.segments, ["John", "lives", "in", "New", "York"])
    report(9, "the tagged worked example decodes to B-PER O O B-LOC I-LOC",
           got == ["B-PER", "O", "O", "B-LOC", "I-LOC"], str(got))


def _toy_table_model(seed):
    def step(prefix):
        rng = np.random.default_rng((seed, len(prefix)) + tuple(prefix))
        logits = rng.normal(0.0, 1.0, 4)
        finite = logits[1:]
        z = np.log(np.exp(finite - finite.max()).sum()) + finite.max()
        lp = np.full(4, -np.inf)
        lp[1:] = finite - z
        return lp
    return step


def test_criterion_10_beam_search():
    beam_ok = True
    for seed in range(100):
        step = _toy_table_model(seed)
        if beam_search(step, width=4, max_out=3) != exhaustive_decode(step, 4, 3, EOS_ID):
            beam_ok = False
    cfg = ModelConfig(vocab_size=10, d_model=16, n_heads=2, d_ff=24,
                      n_enc_layers=1, n_dec_layers=1, max_len=12)
    greedy_ok = True
    for seed in range(10):
        params = init_model(cfg, seed=seed)
        enc = np.array([4 + seed % 5, 5, 6])
        if beam_decode(params, enc, width=1, max_out=6) != \
                greedy_decode(params, enc, max_out=6):
            greedy_ok = False
    report(10, "width-4 beam equals exhaustive search on 100 random 3-step "
               "toy decoders and width-1 beam equals greedy",
           beam_ok and greedy_ok)


def test_criterion_11_metric_oracles():
    hand_ok = (pearson([1, 2, 3], [1, 2, 2]) == pytest.approx(math.sqrt(3) / 2,
                                                              abs=1e-15)
               and macro_f1(["entail", "none", "none", "none"],
                            ["entail", "entail", "none", "none"])
               == pytest.approx(11 / 15, abs=1e-15))
    rng = np.random.default_rng(13)
    random_ok = True
    for _ in range(50):
        x = rng.normal(0, 2, 200).tolist()
        y = rng.normal(1, 3, 200).tolist()
        if abs(pearson(x, y) - reference_pearson(x, y)) >= 1e-12:
            random_ok = False
        want_mse = float(np.mean((np.asarray(x) - np.asarray(y)) ** 2))
        if abs(mse(x, y) - want_mse) >= 1e-12:
            random_ok = False
    rnd = random.Random(17)
    for _ in range(50):
        n = rnd.randrange(2, 40)
        gold = [rnd.choice(["entail", "none"]) for _ in range(n)]
        pred = [rnd.choice(["entail", "none"]) for _ in range(n)]
        if abs(macro_f1(pred, gold) - reference_macro_f1(pred, gold,
                                                         ("entail", "none"))) >= 1e-12:
            random_ok = False

        def spans():
            return {(i, i + rnd.randrange(0, 3), rnd.choice(
                ("Person", "Location", "Value")))
                for i in rnd.sample(range(0, 60, 3), rnd.randrange(0, 8))}
        g, p = spans(), spans()
        rep = entity_prf([EntitySpan(*s) for s in g], [EntitySpan(*s) for s in p])
        wp, wr, wf = reference_prf(g, p)
        if max(abs(rep.micro.precision - wp), abs(rep.micro.recall - wr),
               abs(rep.micro.f1 - wf)) >= 1e-12:
            random_ok = False
    report(11, "Pearson/MSE/macro-F1/entity-PRF match independent scorers to "
               "1e-12 and the hand cases hold exactly", hand_ok and random_ok)


def test_criterion_12_end_to_end_synthetic_tasks(tmp_path):
    t0 = time.time()
    # similarity: 32 pairs, score a monotone function of token overlap
    rng = random.Random(0)
    words = PT_WORDS[:8]
    rows = ["id\tsentence1\tsentence2\tsimilarity\tentailment"]
    for i in range(32):
        s1 = [rng.choice(words) for _ in range(4)]
        overlap = rng.randrange(0, 5)
        s2 = [s1[k] if k < overlap else rng.choice(words) for k in range(4)]
        score = 1.0 + 4.0 * sum(a == b for a, b in zip(s1, s2)) / 4
        rows.append(f"{i}\t{' '.join(s1)}\t{' '.join(s2)}\t{round(score, 1)}\t")
    (tmp_path / "pairs.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    vocab = train_vocab([" ".join(words), "ASSIN sentence1: x", "sentence2: y",
                         "0 1 2 3 4 5 6 7 8 9 . ,"], vocab_size=90)
    vocab.save(tmp_path / "vocab.tsv")
    sim_cfg = RunConfig(task="similarity", optimizer="radam", lr=1e-2,
                        batch_size=8, max_epochs=80, patience=5, seed=0,
                        deterministic=True, output_strategy="linear-head",
                        seq_len=48, d_model=32, n_heads=2, d_ff=64,
                        n_enc_layers=1, n_dec_layers=1,
                        vocab_path=str(tmp_path / "vocab.tsv"),
                        train_path=str(tmp_path / "pairs.tsv"),
                        val_path=str(tmp_path / "pairs.tsv"),
                        out_dir=str(tmp_path / "sim"))
    _, sim_log = run_finetune(sim_cfg)
    sim_mse = min(r.val_objective for r in sim_log.records)

    # NER: 5-word vocabulary, 2 classes, 64 training sentences, overfit,
    # then beam-5 decode with window merging
    rng = random.Random(7)
    lex = {"ana": "PER", "bob": "PER", "foz": "LOC", "mar": "LOC", "sol": None}

    def make_doc(n):
        ws = [rng.choice(list(lex)) for _ in range(n)]
        return ws, [f"B-{lex[w]}" if lex[w] else "O" for w in ws]

    docs = [make_doc(rng.randrange(4, 7)) for _ in range(62)] + \
        [make_doc(12), make_doc(12)]
    val_docs = docs[:7] + [docs[-1]]

    def render(doc_list):
        out = []
        for ws, ts in doc_list:
            out.extend(f"{w} {t}" for w, t in zip(ws, ts))
            out.append("")
        return "\n".join(out) + "\n"

    (tmp_path / "train.conll").write_text(render(docs), encoding="utf-8")
    (tmp_path / "val.conll").write_text(render(val_docs), encoding="utf-8")
    ner_vocab = train_vocab([" ".join(lex), "Recognize Entities: x",
                             "[Person] [Local] [Other]",
                             "ana [Person] sol [Other] foz [Local]"],
                            vocab_size=90)
    ner_vocab.save(tmp_path / "nvocab.tsv")
    ner_cfg = RunConfig(task="ner", optimizer="adamw", lr=3e-3, batch_size=2,
                        grad_accum_steps=4, max_epochs=60, patience=3, seed=0,
                        deterministic=True, seq_len=64, beam_width=5,
                        label_language="en", ner_window=8, ner_stride=4,
                        d_model=48, n_heads=2, d_ff=96, n_enc_layers=1,
                        n_dec_layers=1, vocab_path=str(tmp_path / "nvocab.tsv"),
                        train_path=str(tmp_path / "train.conll"),
                        val_path=str(tmp_path / "val.conll"),
                        out_dir=str(tmp_path / "ner"))
    ner_params, _ = run_finetune(ner_cfg)
    ner_report = run_evaluate(ner_cfg, ner_params, split="val")
    elapsed = time.time() - t0
    report(12, "synthetic similarity fine-tune reaches val MSE < 0.1 with "
               "patience-5 early stopping and synthetic NER reaches micro-F1 "
               ">= 0.95 via beam-5 decode and window merge",
           sim_mse < 0.1 and ner_report["micro_f1"] >= 0.95 and elapsed < 1200.0,
           f"MSE {sim_mse:.4f}, F1 {ner_report['micro_f1']:.3f}, {elapsed:.0f}s")


def test_criterion_13_determinism(tmp_path):
    corpus = pt_corpus(60, seed=9)
    v1 = tmp_path / "v1.tsv"
    v2 = tmp_path / "v2.tsv"
    train_vocab(corpus, vocab_size=80).save(v1)
    train_vocab(corpus, vocab_size=80).save(v2)
    vocab_ok = v1.read_bytes() == v2.read_bytes()

    cfg1 = _pretrain_fixture(tmp_path, "d1", max_epochs=2, d_model=32, d_ff=64)
    cfg2 = _pretrain_fixture(tmp_path, "d2", max_epochs=2, d_model=32, d_ff=64)
    run_pretrain(cfg1)
    run_pretrain(cfg2)
    run_ok = True
    for name in ("checkpoint.bin", "train_log.tsv", "curve.tsv"):
        a = (tmp_path / "d1" / name).read_bytes()
        b = (tmp_path / "d2" / name).read_bytes()
        run_ok = run_ok and a == b

    from minit5.corruption import make_pretrain_batch, write_pair_cache
    from minit5.train import load_packed_corpus
    docs = load_packed_corpus(cfg1.corpus_path)
    ccfg = CorruptionConfig(mask_rate=0.15, max_len=64, seed=5)
    c1 = tmp_path / "c1.bin"
    c2 = tmp_path / "c2.bin"
    write_pair_cache(c1, make_pretrain_batch(docs, UnigramVocab.load(cfg1.vocab_path), ccfg), 64)
    write_pair_cache(c2, make_pretrain_batch(docs, UnigramVocab.load(cfg1.vocab_path), ccfg), 64)
    cache_ok = c1.read_bytes() == c2.read_bytes()
    report(13, "vocabulary files, pretraining outputs, and pair caches are "
               "byte-identical across reruns with the same seed",
           vocab_ok and run_ok and cache_ok)

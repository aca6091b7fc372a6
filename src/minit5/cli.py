"""Command-line pipeline driver.

Subcommands: preprocess, train-vocab, make-pretrain-data, pretrain, finetune,
evaluate, decode. Exit codes: 0 success, 1 usage error, 2 data error,
3 divergence.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import corpus as corpus_mod
from .atomic import format_rows, format_value, read_text, write_text
from .checkpoint import load_checkpoint
from .config import load_run_config
from .corruption import CorruptionConfig, make_pretrain_batch, write_pair_cache
from .decoding import beam_decode, decode_sources
from .optim import DivergedError
from .rng import check_seed
from .tasks import fit
from .train import (DataError, LockError, check_vocab_size, load_packed_corpus,
                    run_evaluate, run_finetune, run_pretrain)
from .unigram import BOUNDARY, EOS_ID, UnigramVocab, decode, encode_many, train_vocab


class UsageError(Exception):
    pass


# the commands that read a run config: the only ones --config and --seed apply to
CONFIG_COMMANDS = ("pretrain", "finetune", "evaluate")


def _default(fn, name: str):
    """The library's default for fn's parameter `name`, which its flag shares."""
    return inspect.signature(fn).parameters[name].default


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="minit5", description=__doc__)
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--deterministic", action="store_true", default=None,
                        help="timestamp-free logs; byte-identical reruns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="repair, split, and pack raw text")
    p.add_argument("inputs", nargs="+", help="source text files")
    p.add_argument("--line-mode", action="store_true",
                   help="treat each input line as one source document")
    p.add_argument("--output", required=True, help="packed corpus (one doc per line)")
    p.add_argument("--stats", help="write a key=value statistics report here")
    p.add_argument("--max-words", type=int,
                   default=_default(corpus_mod.prepare_documents, "max_words"))
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train-vocab", help="train the Unigram vocabulary")
    p.add_argument("--corpus", required=True, help="one sentence per line")
    p.add_argument("--output", required=True, help="vocabulary file to write")
    p.add_argument("--vocab-size", type=int, default=_default(train_vocab, "vocab_size"))
    p.add_argument("--seed-size", type=int, default=None)
    p.set_defaults(func=_cmd_train_vocab)

    p = sub.add_parser("make-pretrain-data", help="write a denoising pair cache")
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True, help="packed corpus file")
    p.add_argument("--output", required=True, help="binary pair cache")
    p.add_argument("--mask-rate", type=float, default=CorruptionConfig.mask_rate)
    p.add_argument("--max-len", type=int, default=CorruptionConfig.max_len)
    p.add_argument("--data-seed", type=int, default=CorruptionConfig.seed)
    p.set_defaults(func=_cmd_make_pretrain_data)

    p = sub.add_parser("pretrain", help="denoising pretraining run")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune on a task")
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("decode", help="decode one input line per output line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--beam", type=int, default=_default(beam_decode, "width"),
                   help="beam width (1 = greedy)")
    p.add_argument("--max-out", type=int, default=_default(beam_decode, "max_out"))
    p.set_defaults(func=_cmd_decode)
    return parser


def _run_config(args):
    """The run configuration, whose task must suit the command: pretrain
    takes the pretrain task, finetune and evaluate a fine-tuning task."""
    if not args.config:
        raise UsageError(f"{args.command} requires --config")
    overrides = {"seed": args.seed}
    if args.deterministic:
        overrides["deterministic"] = True
    try:
        cfg = load_run_config(args.config, overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if (cfg.task == "pretrain") != (args.command == "pretrain"):
        want = "pretrain" if args.command == "pretrain" else "fine-tuning task"
        raise UsageError(f"{args.command} requires a {want} config, "
                         f"got task {cfg.task!r}")
    return cfg


def _cmd_preprocess(args):
    if args.max_words < 1:
        raise UsageError("--max-words must be >= 1")
    raw_texts: list[str] = []
    for path in args.inputs:
        text = read_text(path)
        if args.line_mode:
            raw_texts.extend(text.split("\n"))
        else:
            raw_texts.append(text)
    docs = corpus_mod.prepare_documents(raw_texts, max_words=args.max_words)
    if not docs:
        raise DataError("no documents produced")
    write_text(args.output, "".join(" ".join(doc) + "\n" for doc in docs))
    report = corpus_mod.format_stats_report(corpus_mod.corpus_stats(docs))
    if args.stats:
        write_text(args.stats, report)
    else:
        sys.stdout.write(report)


def _cmd_train_vocab(args):
    if args.vocab_size < 1:
        raise UsageError("--vocab-size must be >= 1")
    if args.seed_size is not None and args.seed_size < 1:
        raise UsageError("--seed-size must be >= 1")
    numbered = [(k, line) for k, line in enumerate(read_text(args.corpus).split("\n"), 1)
                if line.strip()]
    for lineno, line in numbered:
        if "\t" in line:  # it would become a piece the vocabulary file cannot hold
            raise DataError(f"{args.corpus}:{lineno}: tab in a corpus line")
        if BOUNDARY in line:  # training would read it as a space, encode as <unk>
            raise DataError(f"{args.corpus}:{lineno}: literal {BOUNDARY!r} (U+2581) "
                            "in a corpus line")
    sentences = [line for _, line in numbered]
    if not sentences:
        raise DataError(f"{args.corpus}: empty corpus")
    vocab = train_vocab(sentences, vocab_size=args.vocab_size,
                        seed_size=args.seed_size)
    vocab.save(args.output)
    print(f"wrote {len(vocab)} pieces to {args.output}")


def _cmd_make_pretrain_data(args):
    try:
        check_seed(args.data_seed, "--data-seed")
        cfg = CorruptionConfig(mask_rate=args.mask_rate, max_len=args.max_len,
                               seed=args.data_seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    vocab = UnigramVocab.load(args.vocab)
    docs = load_packed_corpus(args.corpus)
    pairs = make_pretrain_batch(docs, vocab, cfg)
    write_pair_cache(args.output, pairs, cfg.max_len)
    print(f"wrote {len(pairs)} pairs to {args.output}")


def _cmd_pretrain(args):
    _, log = run_pretrain(_run_config(args))
    last = log.records[-1]
    print(f"pretrained {last.epoch} epochs, final train loss "
          f"{format_value(last.train_loss)}")


def _cmd_finetune(args):
    _, log = run_finetune(_run_config(args))
    best = log.best_epoch if log.best_epoch is not None else len(log.records)
    print(f"finetuned {len(log.records)} epochs, best epoch {best}")


def _cmd_evaluate(args):
    cfg = _run_config(args)
    params = load_checkpoint(args.checkpoint)
    report = run_evaluate(cfg, params, split=args.split)
    sys.stdout.write(format_rows([(key, value) for key, value in report.items()
                                  if isinstance(value, (int, float))], "="))


def _cmd_decode(args):
    if args.beam < 1:
        raise UsageError("--beam must be >= 1")
    if args.max_out < 1:
        raise UsageError("--max-out must be >= 1")
    params = load_checkpoint(args.checkpoint)
    vocab = UnigramVocab.load(args.vocab)
    check_vocab_size(params, vocab)
    max_out = min(args.max_out, params.cfg.max_len)
    lines = read_text(args.input).split("\n")
    if not lines[-1]:  # the text ends in a newline, or is empty
        lines.pop()
    encs = [fit(ids + [EOS_ID], params.cfg.max_len) for ids in encode_many(vocab, lines)]
    outs = decode_sources(params, encs, args.beam, [max_out] * len(encs))
    write_text(args.output, "".join(decode(vocab, out) + "\n" for out in outs))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, value in (("--config", args.config), ("--seed", args.seed)):
            if value is not None and args.command not in CONFIG_COMMANDS:
                raise UsageError(f"{args.command} reads no config, so {flag} does not apply")
        args.func(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, LockError, OSError, ValueError) as exc:
        # OSError: an input that is missing, a directory or unreadable; its
        # message names the path
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

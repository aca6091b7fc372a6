"""Run configuration: sectioned key=value files plus per-task defaults.

Defaults mirror the training recipes the pipeline targets: pretraining uses
Adafactor at a constant 0.003 for four epochs with 15% corruption and length
512; sentence-pair fine-tuning uses RAdam at 1e-4, length 128, patience 5
(similarity) or 10 (entailment); NER uses AdamW at 2e-4 with batch 2 and
4-step gradient accumulation and beam width 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corruption import CorruptionConfig
from .model import ModelConfig
from .ner import LabelTable
from .tasks import check_windows
from .unigram import N_RESERVED

TASKS = ("pretrain", "similarity", "entailment", "ner")
OUTPUT_STRATEGIES = ("generate", "linear-head")


@dataclass
class RunConfig:
    task: str
    optimizer: str = ""
    lr: float = 0.0
    batch_size: int = 0
    grad_accum_steps: int = 1
    max_epochs: int = 0
    patience: int | None = None
    seed: int = 0
    deterministic: bool = False
    embeddings_only: bool = False
    output_strategy: str = "linear-head"
    mask_rate: float = 0.15
    seq_len: int = 512
    beam_width: int = 5
    gen_max_tokens: int = 5
    label_language: str = "pt"
    strip_accents: bool = False
    ner_window: int = 256
    ner_stride: int = 128
    # model
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    position_scheme: str = "learned-absolute"
    tie_embeddings: bool = True
    # paths
    vocab_path: str = ""
    train_path: str = ""
    val_path: str = ""
    test_path: str = ""
    corpus_path: str = ""
    out_dir: str = ""
    init_checkpoint: str = ""

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.output_strategy not in OUTPUT_STRATEGIES:
            raise ValueError(f"unknown output_strategy {self.output_strategy!r}")
        if self.optimizer not in ("adafactor", "adamw", "radam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1 or self.grad_accum_steps < 1 or self.max_epochs < 1:
            raise ValueError("batch_size, grad_accum_steps, max_epochs must be >= 1")
        if self.patience is not None and self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.seq_len < 1 or self.beam_width < 1 or self.gen_max_tokens < 1:
            raise ValueError("seq_len, beam_width, gen_max_tokens must be >= 1")
        # the owning modules' checks: the [model] ranges (the vocabulary's
        # size is known only once it loads), mask_rate in (0, 1), the window
        # rule and a known label language
        self.model_config(N_RESERVED + 1)
        CorruptionConfig(mask_rate=self.mask_rate)
        check_windows(self.ner_window, self.ner_stride)
        LabelTable(self.label_language)

    def model_config(self, vocab_size: int) -> ModelConfig:
        """The [model] section, with seq_len as the model's max_len."""
        return ModelConfig(
            vocab_size=vocab_size, d_model=self.d_model, n_heads=self.n_heads,
            d_ff=self.d_ff, n_enc_layers=self.n_enc_layers,
            n_dec_layers=self.n_dec_layers, max_len=self.seq_len,
            position_scheme=self.position_scheme, tie_embeddings=self.tie_embeddings)


TASK_DEFAULTS: dict[str, dict] = {
    "pretrain": dict(optimizer="adafactor", lr=3e-3, max_epochs=4,
                     batch_size=8, seq_len=512, mask_rate=0.15),
    "similarity": dict(optimizer="radam", lr=1e-4, max_epochs=50, patience=5,
                       batch_size=32, seq_len=128),
    "entailment": dict(optimizer="radam", lr=1e-4, max_epochs=50, patience=10,
                       batch_size=32, seq_len=128),
    "ner": dict(optimizer="adamw", lr=2e-4, max_epochs=50, patience=5,
                batch_size=2, grad_accum_steps=4, seq_len=512, beam_width=5),
}


def parse_config_file(path: str) -> dict[str, dict[str, str]]:
    """Sections in brackets, key = value lines, # comments, UTF-8."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                current = sections.setdefault(name, {})
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            if current is None:
                raise ValueError(f"{path}:{lineno}: key outside any [section]")
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    return sections


def _to_bool(value: str) -> bool:
    v = value.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


_FIELD_SECTIONS = {
    "run": {
        "task": str, "optimizer": str, "lr": float, "batch_size": int,
        "grad_accum_steps": int, "max_epochs": int, "patience": int,
        "seed": int, "deterministic": _to_bool, "embeddings_only": _to_bool,
        "output_strategy": str, "mask_rate": float, "seq_len": int,
        "beam_width": int, "gen_max_tokens": int, "label_language": str,
        "strip_accents": _to_bool, "ner_window": int, "ner_stride": int,
    },
    "model": {
        "d_model": int, "n_heads": int, "d_ff": int, "n_enc_layers": int,
        "n_dec_layers": int, "position_scheme": str, "tie_embeddings": _to_bool,
    },
    "paths": {
        "vocab": str, "train": str, "val": str, "test": str, "corpus": str,
        "out_dir": str, "init_checkpoint": str,
    },
}

_PATH_FIELD = {"vocab": "vocab_path", "train": "train_path", "val": "val_path",
               "test": "test_path", "corpus": "corpus_path", "out_dir": "out_dir",
               "init_checkpoint": "init_checkpoint"}


def build_run_config(sections: dict[str, dict[str, str]],
                     overrides: dict | None = None) -> RunConfig:
    """Task defaults, then config file values, then explicit overrides."""
    run = sections.get("run", {})
    if "task" not in run:
        raise ValueError("config must set task in [run]")
    task = run["task"]
    if task not in TASK_DEFAULTS:
        raise ValueError(f"unknown task {task!r}")
    values: dict = dict(task=task, **TASK_DEFAULTS[task])
    for section_name, fields in _FIELD_SECTIONS.items():
        section = sections.get(section_name, {})
        for key, value in section.items():
            if key not in fields:
                raise ValueError(f"unknown key {key!r} in [{section_name}]")
            conv = fields[key]
            target = _PATH_FIELD[key] if section_name == "paths" else key
            try:
                values[target] = conv(value)
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r}: {exc}") from exc
    for name in sections:
        if name not in _FIELD_SECTIONS:
            raise ValueError(f"unknown config section [{name}]")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def load_run_config(path: str, overrides: dict | None = None) -> RunConfig:
    return build_run_config(parse_config_file(path), overrides)

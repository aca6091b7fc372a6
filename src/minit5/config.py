"""Run configuration: sectioned key=value files, whose schema is read from
the RunConfig and ModelConfig dataclasses, plus per-task recipe defaults
(TASK_DEFAULTS), the training recipes the pipeline targets."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields

from .atomic import read_text
from .corruption import CorruptionConfig
from .model import ModelConfig
from .ner import LabelTable
from .optim import check_optimizer
from .tasks import check_windows
from .unigram import N_RESERVED

TASK_DEFAULTS: dict[str, dict] = {
    "pretrain": dict(optimizer="adafactor", lr=3e-3, max_epochs=4,
                     batch_size=8, seq_len=512),
    "similarity": dict(optimizer="radam", lr=1e-4, max_epochs=50, patience=5,
                       batch_size=32, seq_len=128),
    "entailment": dict(optimizer="radam", lr=1e-4, max_epochs=50, patience=10,
                       batch_size=32, seq_len=128),
    "ner": dict(optimizer="adamw", lr=2e-4, max_epochs=50, patience=5,
                batch_size=2, grad_accum_steps=4, seq_len=512, beam_width=5),
}
TASKS = tuple(TASK_DEFAULTS)
OUTPUT_STRATEGIES = ("generate", "linear-head")
# the ModelConfig fields a run sets in [model]; the vocabulary sets
# vocab_size and [run] seq_len sets max_len
MODEL_KEYS = tuple(f.name for f in fields(ModelConfig)
                   if f.name not in ("vocab_size", "max_len"))


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
    mask_rate: float = CorruptionConfig.mask_rate
    seq_len: int = 512
    beam_width: int = 5
    gen_max_tokens: int = 5
    label_language: str = "pt"
    strip_accents: bool = False
    ner_window: int = 256
    ner_stride: int = 128
    # model: MODEL_KEYS, with ModelConfig's defaults
    d_model: int = ModelConfig.d_model
    n_heads: int = ModelConfig.n_heads
    d_ff: int = ModelConfig.d_ff
    n_enc_layers: int = ModelConfig.n_enc_layers
    n_dec_layers: int = ModelConfig.n_dec_layers
    position_scheme: str = ModelConfig.position_scheme
    tie_embeddings: bool = ModelConfig.tie_embeddings
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
        check_optimizer(self.optimizer)
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1 or self.grad_accum_steps < 1 or self.max_epochs < 1:
            raise ValueError("batch_size, grad_accum_steps, max_epochs must be >= 1")
        if self.patience is not None and self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.seq_len < 1 or self.beam_width < 1 or self.gen_max_tokens < 1:
            raise ValueError("seq_len, beam_width, gen_max_tokens must be >= 1")
        # the owning modules' checks: the [model] ranges (the vocabulary's
        # size is known only once it loads), mask_rate in (0, 1), the seed
        # range, the window rule and a known label language
        self.model_config(N_RESERVED + 1)
        CorruptionConfig(mask_rate=self.mask_rate, seed=self.seed)
        check_windows(self.ner_window, self.ner_stride)
        LabelTable(self.label_language)

    def model_config(self, vocab_size: int) -> ModelConfig:
        """The [model] section, with seq_len as the model's max_len."""
        return ModelConfig(vocab_size=vocab_size, max_len=self.seq_len,
                           **{key: getattr(self, key) for key in MODEL_KEYS})


_PATHS = {"vocab": "vocab_path", "train": "train_path", "val": "val_path",
          "test": "test_path", "corpus": "corpus_path", "out_dir": "out_dir",
          "init_checkpoint": "init_checkpoint"}
# Each config section's keys, each naming the one RunConfig field it sets:
# [paths] by _PATHS, [model] the MODEL_KEYS and [run] every other field.
SECTIONS: dict[str, dict[str, str]] = {
    "run": {f.name: f.name for f in fields(RunConfig)
            if f.name not in MODEL_KEYS and f.name not in _PATHS.values()},
    "model": {key: key for key in MODEL_KEYS},
    "paths": _PATHS,
}


def parse_config_file(path: str) -> dict[str, dict[str, str]]:
    """Sections in brackets, key = value lines, # comments, UTF-8. A key set
    twice in one section, under one header or two copies of it, is an error."""
    sections: dict[str, dict[str, str]] = {}
    name, current = "", None
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current:
            raise ValueError(f"{path}:{lineno}: {key!r} set twice in [{name}]")
        current[key] = value
    return sections


def _to_bool(value: str) -> bool:
    v = value.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _converter(field_type):
    """The parser of a config value for a RunConfig field of this type."""
    if field_type is bool:
        return _to_bool
    if typing.get_args(field_type):  # int | None parses as int
        return typing.get_args(field_type)[0]
    return field_type


_CONVERTERS = {name: _converter(t) for name, t in typing.get_type_hints(RunConfig).items()}


def build_run_config(sections: dict[str, dict[str, str]],
                     overrides: dict | None = None) -> RunConfig:
    """Task defaults, then config file values, then explicit overrides."""
    run = sections.get("run", {})
    if "task" not in run:
        raise ValueError("config must set task in [run]")
    # an unknown task gets no defaults, and RunConfig rejects it
    values: dict = dict(TASK_DEFAULTS.get(run["task"], {}))
    for section_name, keys in SECTIONS.items():
        for key, value in sections.get(section_name, {}).items():
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in [{section_name}]")
            target = keys[key]
            try:
                values[target] = _CONVERTERS[target](value)
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r}: {exc}") from exc
    for name in sections:
        if name not in SECTIONS:
            raise ValueError(f"unknown config section [{name}]")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def load_run_config(path: str, overrides: dict | None = None) -> RunConfig:
    return build_run_config(parse_config_file(path), overrides)

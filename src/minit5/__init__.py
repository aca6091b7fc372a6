"""Desk-scale seq2seq pipeline: corpus packing, Unigram vocabulary training,
denoising pretraining, and text-to-text fine-tuning for sentence-pair and
generative NER tasks."""

from .corpus import (CorpusStats, corpus_stats, fix_encoding, pack_sentences,
                     prepare_documents, split_sentences)
from .corruption import (CorruptionConfig, DenoisePair, make_pretrain_batch,
                         mask_tokens, read_pair_cache, write_pair_cache)
from .decoding import beam_decode, beam_search, decode_sources, greedy_decode
from .metrics import accuracy, classification_report, macro_f1, mse, pearson
from .model import (ModelConfig, ModelParams, classification_head,
                    embedding_only_mask, encoder_mean_pool, forward,
                    init_model, loss_and_grad, loss_xent, regression_head)
from .ner import (EntitySpan, LabelTable, NerReport, entity_prf,
                  extract_entities, merge_windows, parse_tagged_output, to_bio)
from .optim import (AdafactorState, AdamState, DivergedError, adafactor_step,
                    adamw_step, radam_step)
from .tasks import (NerExample, SentencePairExample, build_ner_target,
                    format_assin_pair, format_ner_input, make_similarity_target,
                    parse_score_string, strip_accents, window_offsets)
from .unigram import (UnigramVocab, build_seed_vocab, decode, em_step, encode,
                      encode_many, prune_vocab, train_vocab)

__version__ = "0.1.0"

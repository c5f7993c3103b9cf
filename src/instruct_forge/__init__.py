"""Desk-scale instruction tuning pipeline.

Byte-level data pipeline, a small decoder-only transformer with reverse-mode
autodiff, low-rank adapter tuning, and likelihood/perplexity evaluation.
"""

from .autodiff import Tensor
from .tokenizer import ByteTokenizer, BOS, EOS, PAD, VOCAB_SIZE
from .records import (
    InstructionRecord,
    load_records,
    read_jsonl,
    save_records,
    filter_by_category,
    convert_typo_pair,
    convert_qa_pair,
    dataset_stats,
)
from .prompts import PromptTemplate, render_prompt, template_for
from .model import ModelConfig, DecoderModel, ContextOverflowError, load_checkpoint
from .lora import LoraConfig, LoraAdapter, inject, trainable_param_count, merge_all
from .training import TrainConfig, TrainingBatch, AdamW, build_batch, train_step, train
from .evaluation import (
    ChoiceTask,
    FewShotSpec,
    PerplexityItem,
    QuestionTemplate,
    EvalReport,
    assemble_fewshot_prompt,
    score_continuation,
    classify_by_likelihood,
    corpus_perplexity,
    run_choice_eval,
)
from .sampling import GenerationParams, GenerationResult, apply_repetition_penalty, generate

__version__ = "0.1.0"

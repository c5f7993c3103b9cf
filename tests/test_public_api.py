"""The public API: every name ``instruct_forge`` exports, with its parameters.

A failing diff here means a parameter, default, method or export was added or
removed; log such a change in CHANGES.md and update the table.
"""

import inspect
import types

import instruct_forge
from instruct_forge import archive, lora

QUESTION_BODY = "Write a response to answer the following question.\\n\\n### Question:\\n{question}\\n\\n### Response:\\n"

API = {
    "Tensor": "(data, requires_grad=False, name=None)",
    "Tensor.item": "(self)",
    "Tensor.backward": "(self)",
    "ByteTokenizer": "()",
    "ByteTokenizer.encode": "(self, text)",
    "ByteTokenizer.decode": "(self, tokens)",
    "BOS": "256",
    "EOS": "257",
    "PAD": "258",
    "VOCAB_SIZE": "259",
    "InstructionRecord": "(instruction, output, input=None, category='other', source='unknown')",
    "InstructionRecord.to_json": "(self)",
    "load_records": "(path)",
    "read_jsonl": "(path, make)",
    "save_records": "(records, path)",
    "filter_by_category": "(records, excluded)",
    "convert_typo_pair": "(wrong_text, corrected_text)",
    "convert_qa_pair": "(question, answer)",
    "dataset_stats": "(records)",
    "PromptTemplate": "(kind='with-input', body=None)",
    "render_prompt": "(record, template, include_response=True)",
    "template_for": "(record)",
    "ModelConfig": "(vocab_size=259, d_model=64, n_heads=4, n_layers=4, d_ff=None, max_seq_len=512, "
                   "attention_layout='split-qv', seed=0)",
    "DecoderModel": "(config)",
    "DecoderModel.new_cache": "(self)",
    "DecoderModel.forward": "(self, tokens, cache=None, last=None, rng=None)",
    "DecoderModel.logits": "(self, ids, cache=None, last=None)",
    "DecoderModel.checkpoint": "(self)",
    "DecoderModel.save_checkpoint": "(self, path)",
    "ContextOverflowError": "(ValueError)",
    "load_checkpoint": "(path)",
    "LoraConfig": "(r=4, alpha=16.0, dropout=0.05, target_names=<factory>)",
    "LoraAdapter": "(name, weight, config, rng)",
    "LoraAdapter.delta": "(self)",
    "LoraAdapter.forward": "(self, x, rng=None)",
    "inject": "(model, config)",
    "trainable_param_count": "(model)",
    "merge_all": "(model)",
    "TrainConfig": "(learning_rate=0.0003, batch_size=8, epochs=1, train_seq_len=256, mask_policy='response-only', "
                   "seed=0)",
    "TrainingBatch": "(tokens, targets, loss_mask, dropped=0)",
    "AdamW": "(params, lr)",
    "AdamW.step": "(self)",
    "AdamW.zero_grad": "(self)",
    "build_batch": "(records, template, tokenizer, config)",
    "train_step": "(model, batch, optimizer)",
    "train": "(model, records, config, template=None)",
    "ChoiceTask": "(instruction, fields, choices, gold, version='v0.3', constraints=None, answer_label='Response')",
    "FewShotSpec": "(k, demonstrations=())",
    "PerplexityItem": "(question, response)",
    "QuestionTemplate": f"(body='{QUESTION_BODY}')",
    "QuestionTemplate.render": "(self, question)",
    "EvalReport": "(accuracy=<factory>, tuning_overflows=0, model_overflows=0, perplexity_pooled=None, "
                  "perplexity_mean=None, item_perplexities=<factory>)",
    "EvalReport.to_dict": "(self)",
    "assemble_fewshot_prompt": "(task, spec)",
    "score_continuation": "(model, prompt, continuation)",
    "classify_by_likelihood": "(model, task, spec)",
    "corpus_perplexity": "(model, items, prompt_template=None)",
    "run_choice_eval": "(model, tasks, shots, tuning_seq_len=None)",
    "GenerationParams": "(temperature=0.0, repetition_penalty=1.0, max_new_tokens=64, stop_token=257)",
    "GenerationResult": "(text, token_ids, truncated=False)",
    "apply_repetition_penalty": "(logits, generated_ids, penalty)",
    "generate": "(model, prompt, params, seed=0)",
}


def shape(obj) -> str:
    """Parameter names, kinds and defaults; the base of an exception; the value of a constant."""
    if not callable(obj):
        return repr(obj)
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return f"({obj.__base__.__name__})"
    sig = inspect.signature(obj)
    return str(sig.replace(parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
                           return_annotation=sig.empty))


def exported() -> dict:
    """Every exported name, and each public method of an exported class, with its shape."""
    out = {}
    for name, value in vars(instruct_forge).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        out[name] = shape(value)
        if inspect.isclass(value):
            out.update({f"{name}.{m}": shape(fn) for m, fn in vars(value).items()
                        if not m.startswith("_") and inspect.isfunction(fn)})
    return out


def test_public_api_is_pinned():
    assert exported() == API


# The checkpoint writers of the modules that ``instruct_forge`` does not re-export;
# ``save_archive``, ``save_adapters`` and ``DecoderModel.save_checkpoint`` are what the
# benchmark calls and traces.
WRITERS = {
    "archive.write_atomic": "(files)",
    "archive.archive_chunks": "(arrays, meta=None)",
    "archive.save_archive": "(path, arrays, meta=None)",
    "lora.adapter_checkpoint": "(model, arrays=None)",
    "lora.save_adapters": "(model, path, arrays=None)",
}


def test_checkpoint_writers_are_pinned():
    modules = {"archive": archive, "lora": lora}
    assert {name: shape(getattr(modules[name.split(".")[0]], name.split(".")[1])) for name in WRITERS} == WRITERS

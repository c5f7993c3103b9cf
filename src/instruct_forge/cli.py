"""Command-line surface: build-dataset, train, eval, ppl, generate.

Each setting is one row of ``SETTINGS``; ``resolve`` takes the raw string of
flag > config file > INSTRUCT_FORGE_SEED (seed only) and parses it with
``Setting.cast``, else takes the default. The config file is plain text, one
"section.key = value" per line; a key that no row declares is an error. A bad
argv raises ValueError like any other input, so it too is one ``error:`` line.
Every subcommand finishes its work and then leaves through ``_emit``, so stdout
is written once, after success, and a failure leaves it empty.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Callable

from .archive import archive_chunks, write_atomic
from .evaluation import VERSIONS, ChoiceTask, PerplexityItem, QuestionTemplate, corpus_perplexity, run_choice_eval
from .lora import LoraConfig, adapter_checkpoint, inject, load_adapters, trainable_param_count
from .model import LAYOUTS, DecoderModel, ModelConfig, _keep_freed_memory, load_checkpoint
from .records import (CATEGORIES, convert_qa_pair, convert_typo_pair, dataset_stats, filter_by_category, load_records,
                      read_jsonl, save_records)
from .sampling import GenerationParams, generate
from .training import MASK_POLICIES, TrainConfig, train


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from exc


def load_config_file(path) -> dict:
    """Parse "section.key = value" lines; a '#' at a line's start or after whitespace starts a comment."""
    cfg = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _csv(raw: str) -> list[str]:
    return [t.strip() for t in raw.split(",") if t.strip()]


def _ints(raw: str) -> list[int]:
    return [int(t) for t in _csv(raw)]


@dataclasses.dataclass(frozen=True)
class Setting:
    """One settings row; its flag is ``--`` and the key's last segment, ``_`` as ``-``.
    The default is field ``field`` of a default ``owner``, else ``literal``
    parsed like a file value, else None."""

    key: str
    parse: Callable[[str], object]
    commands: tuple[str, ...]
    owner: type | None = None
    field: str | None = None
    choices: tuple[str, ...] | None = None
    literal: str | None = None
    help: str | None = None

    def cast(self, raw: str):
        """A flag, file or environment value, parsed and checked."""
        try:
            value = self.parse(raw)
        except ValueError as exc:
            raise ValueError(f"{self.key} = {raw}: {exc}") from None
        if self.choices and value not in self.choices:
            raise ValueError(f"{self.key} = {raw}: expected one of {', '.join(self.choices)}")
        return value

    def default(self):
        if self.owner is not None:
            return getattr(self.owner(), self.field)
        return None if self.literal is None else self.cast(self.literal)


TRAIN, EVAL, GENERATE = ("train",), ("eval",), ("generate",)
SETTINGS = (
    Setting("build.exclude", _csv, ("build-dataset",), help="comma-separated categories to drop"),
    Setting("model.d_model", int, TRAIN, ModelConfig, "d_model"),
    Setting("model.n_heads", int, TRAIN, ModelConfig, "n_heads"),
    Setting("model.n_layers", int, TRAIN, ModelConfig, "n_layers"),
    Setting("model.max_seq_len", int, TRAIN, ModelConfig, "max_seq_len"),
    Setting("model.layout", str, TRAIN, ModelConfig, "attention_layout", LAYOUTS),
    Setting("train.lr", float, TRAIN, TrainConfig, "learning_rate"),
    Setting("train.batch", int, TRAIN, TrainConfig, "batch_size"),
    Setting("train.epochs", int, TRAIN, TrainConfig, "epochs"),
    Setting("train.seq_len", int, TRAIN, TrainConfig, "train_seq_len"),
    Setting("train.mask_policy", str, TRAIN, TrainConfig, "mask_policy", MASK_POLICIES),
    Setting("lora.rank", int, TRAIN, LoraConfig, "r"),
    Setting("lora.alpha", float, TRAIN, LoraConfig, "alpha"),
    Setting("lora.dropout", float, TRAIN, LoraConfig, "dropout"),
    Setting("lora.targets", _csv, TRAIN, LoraConfig, "target_names"),
    Setting("eval.shots", _ints, EVAL, literal="1,2,3", help="comma-separated, e.g. 1,2,3"),
    Setting("eval.prompt_version", str, EVAL, choices=VERSIONS),
    Setting("eval.seq_len", int, EVAL, help="tuning length for overflow counting"),
    Setting("generate.temperature", float, GENERATE, GenerationParams, "temperature"),
    Setting("generate.repetition_penalty", float, GENERATE, GenerationParams, "repetition_penalty"),
    Setting("generate.max_new_tokens", int, GENERATE, GenerationParams, "max_new_tokens"),
    Setting("seed", int, TRAIN + GENERATE, TrainConfig, "seed"),
)


def resolve(command: str, args, cfg: dict, defaults: dict | None = None) -> dict:
    """{key: value} for the rows of ``command``: flag > file > INSTRUCT_FORGE_SEED
    (seed only), through ``Setting.cast``, else ``defaults`` (by key) > the row's default."""
    settings = {}
    for s in (s for s in SETTINGS if command in s.commands):
        raw = getattr(args, s.key.rsplit(".", 1)[-1])
        if raw is None:
            raw = cfg.get(s.key, os.environ.get("INSTRUCT_FORGE_SEED") if s.key == "seed" else None)
        settings[s.key] = (defaults or {}).get(s.key, s.default()) if raw is None else s.cast(raw)
    return settings


def _build(owner, settings: dict, **extra):
    """An ``owner`` dataclass from the resolved values of the rows it owns."""
    fields = {s.field: settings[s.key] for s in SETTINGS if s.owner is owner}
    return owner(**fields, **extra)


def _emit(settings: dict, notes: dict, payload: str, report=None) -> int:
    """A subcommand's one output, after all its work: ``payload`` to ``report``
    first (a bad path fails before stdout), then on stdout the resolved ``settings``
    as ``--config`` lines (lists comma-joined, unset values left out), ``notes``
    (paths and counts) as comments, and ``payload``."""
    if report:
        write_atomic({report: [payload.encode("utf-8")]})
    lines = ["# effective-config"]
    lines += [f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}"
              for key, value in settings.items() if value is not None]
    lines += [f"# {key} = {value}" for key, value in notes.items()]
    print("\n".join([*lines, payload]))
    return 0


def _load_model(args) -> DecoderModel:
    model = load_checkpoint(args.model)
    if args.adapters:
        load_adapters(model, args.adapters)
    return model


# -- subcommands ----------------------------------------------------------------


def cmd_build_dataset(args, cfg) -> int:
    settings = resolve("build-dataset", args, cfg)
    unknown = sorted(set(settings["build.exclude"] or ()) - CATEGORIES)
    if unknown:
        raise ValueError(f"build.exclude: unknown categories {unknown}; expected some of {sorted(CATEGORIES)}")
    records = []
    for spec in map(Path, args.input or []):
        for path in sorted(spec.glob("*.jsonl")) if spec.is_dir() else [spec]:
            records.extend(load_records(path)[0])
    if args.typo_pairs:
        records += read_jsonl(args.typo_pairs, lambda p: convert_typo_pair(p["wrong"], p["corrected"]))
    if args.qa_pairs:
        records += read_jsonl(args.qa_pairs, lambda p: convert_qa_pair(p["question"], p["answer"]))
    if not records:
        raise ValueError("no records")
    records = filter_by_category(records, set(settings["build.exclude"] or ()))
    if not records:
        raise ValueError("no records left after filtering")
    save_records(records, args.output)
    return _emit(settings, {"output": args.output}, json.dumps(dataset_stats(records), indent=2))


def cmd_train(args, cfg) -> int:
    # --init-from: the checkpoint's model config stands; a model.* flag or file value may only repeat it
    base = load_checkpoint(args.init_from) if args.init_from else None
    pinned = {s.key: getattr(base.config, s.field) for s in SETTINGS if base and s.owner is ModelConfig}
    settings = resolve("train", args, cfg, defaults=pinned)
    conflicts = [f"{k} = {settings[k]} (checkpoint has {v})" for k, v in pinned.items() if settings[k] != v]
    if conflicts:
        raise ValueError(f"--init-from {args.init_from}: {'; '.join(conflicts)}")
    train_cfg = _build(TrainConfig, settings)
    lora_cfg = _build(LoraConfig, settings)
    model = base or DecoderModel(_build(ModelConfig, settings, seed=settings["seed"]))
    records = load_records(args.data)[0]
    inject(model, lora_cfg)
    report, adapters = train(model, records, train_cfg)
    # publish only a finished run, in one write_atomic: a failure leaves --out as it was
    lines = [json.dumps(entry, allow_nan=False) for entry in report]
    out = Path(args.out)
    files = {out / f"adapters-epoch{epoch}.ifta": archive_chunks(*adapter_checkpoint(model, arrays))
             for epoch, arrays in enumerate(adapters)}
    files[out / "model.ifta"] = archive_chunks(*model.checkpoint())
    log = out / "train-report.jsonl"   # earlier runs' lines, then this run's
    files[log] = [log.read_bytes() if log.exists() else b"", *(f"{line}\n".encode("utf-8") for line in lines)]
    made = [d for d in (out, *out.parents) if not d.exists()]   # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(files)
    except BaseException:
        for d in made:   # a failed run leaves no directory it made behind
            if d.is_dir():
                d.rmdir()
        raise
    notes = {"data": args.data, "out": args.out,
             "trainable_params": trainable_param_count(model), "adapters": len(model.adapters)}
    return _emit(settings, notes, "\n".join(lines))


def _load_tasks(path, version=None):
    def task(obj):
        optional = {k: obj[k] for k in ("version", "constraints", "answer_label") if k in obj}
        if version:
            optional["version"] = version
        return ChoiceTask(obj["instruction"], obj["fields"], obj["choices"], obj["gold"], **optional)

    return read_jsonl(path, task)


def cmd_eval(args, cfg) -> int:
    settings = resolve("eval", args, cfg)
    model = _load_model(args)
    tasks = _load_tasks(args.tasks, settings["eval.prompt_version"])
    report = run_choice_eval(model, tasks, settings["eval.shots"], tuning_seq_len=settings["eval.seq_len"])
    payload = json.dumps(report.to_dict(), indent=2, allow_nan=False)
    return _emit(settings, {"model": args.model, "tasks": args.tasks}, payload, args.report)


def cmd_ppl(args, cfg) -> int:
    template = QuestionTemplate(body=_read_text(args.template)) if args.template else QuestionTemplate()
    model = _load_model(args)
    items = read_jsonl(args.items, lambda o: PerplexityItem(question=o["question"], response=o["response"]))
    if not items:
        raise ValueError("no items")
    report = corpus_perplexity(model, items, template)
    payload = json.dumps(report.to_dict(), indent=2, allow_nan=False)
    return _emit({}, {"model": args.model, "items": args.items, "count": len(items)}, payload, args.report)


def cmd_generate(args, cfg) -> int:
    settings = resolve("generate", args, cfg)
    params = _build(GenerationParams, settings)
    model = _load_model(args)
    result = generate(model, args.prompt, params, seed=settings["seed"])
    if result.truncated:
        print("warning: context overflowed during generation; output truncated", file=sys.stderr)
    return _emit(settings, {"model": args.model}, result.text)


# -- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argv fault raises ValueError, so ``main`` reports it as one ``error:`` line."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it as it was."""
    parser = _Parser(prog="instruct-forge")
    parser.add_argument("--config", help="key = value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, func, help, model=False):
        p = sub.add_parser(command, help=help)
        p.set_defaults(func=func)
        for s in SETTINGS:
            if command in s.commands:
                flag = "--" + s.key.rsplit(".", 1)[-1].replace("_", "-")
                p.add_argument(flag, metavar=f"{{{','.join(s.choices)}}}" if s.choices else None, help=s.help)
        if model:
            p.add_argument("--model", required=True)
            p.add_argument("--adapters")
        return p

    p = add("build-dataset", cmd_build_dataset, "ingest, convert, filter, and write a dataset")
    p.add_argument("--input", action="append", help="JSONL file or directory (repeatable)")
    p.add_argument("--typo-pairs", help="JSONL of {wrong, corrected} pairs")
    p.add_argument("--qa-pairs", help="JSONL of {question, answer} pairs")
    p.add_argument("--output", required=True)

    p = add("train", cmd_train, "LoRA-tune a model on an instruction dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init-from", help="base model checkpoint (default: fresh init)")

    p = add("eval", cmd_eval, "few-shot choice classification accuracy", model=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--report")

    p = add("ppl", cmd_ppl, "response-only perplexity over question/answer items", model=True)
    p.add_argument("--items", required=True)
    p.add_argument("--template", help="question template file with a {question} slot")
    p.add_argument("--report")

    p = add("generate", cmd_generate, "greedy/sampled generation from a prompt", model=True)
    p.add_argument("--prompt", required=True)

    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config_file(args.config) if args.config else {}
        unknown = sorted(set(cfg) - {s.key for s in SETTINGS})
        if unknown:
            raise ValueError(f"{args.config}: unknown config key(s): {', '.join(unknown)}")
        return args.func(args, cfg)
    except (OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

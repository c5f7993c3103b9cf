"""Span recorder and the instrumentation that feeds it.

The benchmark traces the program from the outside: ``Instrumentation``
replaces each public function or method of ``instruct_forge`` where it is
looked up (``model.save_archive``, ``cli.train``, ``autodiff.matmul``,
``DecoderModel.logits``, ...) with a wrapper that opens and closes a span.
No file of the program changes. ``remove()`` puts every original back, so a
run can alternate traced and untraced operations and report the overhead.

A span holds its name, start, end, parent span and request id. Spans stay in
memory and are written out once, when the run ends. A span's self time is
its duration minus the durations of its direct children.

Autodiff ops get two spans: the forward call, and the backward closure of
the tensor the op returned, which the wrapper replaces with a timed one.
Each op span is tagged with the transformer sublayer it belongs to. The tag
comes from the weight a linear call uses (its name says attn, mlp or
lm_head), from the layer-norm gain (ln1, ln2, final_norm) and from the op
kind (embedding, gelu, softmax_cross_entropy); every other op inherits the
tag of the op before it, so rotary, softmax and 4-D matmuls count as
attention. This is an outside approximation, not in-program attribution.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

OPS = ("matmul", "gelu", "softmax", "scale", "add", "layer_norm", "rotary", "dropout",
       "softmax_cross_entropy", "transpose", "reshape", "slice_last", "embedding")
SUBLAYERS = ("embedding", "attention", "mlp", "head", "loss")
_EMB, _ATT, _MLP, _HEAD, _LOSS = range(len(SUBLAYERS))

# Public functions and methods traced as plain spans: (module, attribute,
# span name). Functions are patched in every instruct_forge module that
# binds them; methods are patched on their class.
FUNCTIONS = (
    ("archive", "save_archive", "archive.save_archive"),
    ("archive", "load_archive", "archive.load_archive"),
    ("records", "load_records", "records.load_records"),
    ("prompts", "render_prompt", "prompts.render_prompt"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("lora", "inject", "lora.inject"),
    ("lora", "load_adapters", "lora.load_adapters"),
    ("lora", "save_adapters", "lora.save_adapters"),
    ("lora", "merge_all", "lora.merge_all"),
    ("training", "train", "training.train"),
    ("training", "train_step", "training.train_step"),
    ("training", "build_batch", "training.build_batch"),
    ("evaluation", "run_choice_eval", "evaluation.run_choice_eval"),
    ("evaluation", "classify_by_likelihood", "evaluation.classify_by_likelihood"),
    ("evaluation", "score_continuation", "evaluation.score_continuation"),
    ("evaluation", "assemble_fewshot_prompt", "evaluation.assemble_fewshot_prompt"),
    ("evaluation", "corpus_perplexity", "evaluation.corpus_perplexity"),
    ("sampling", "generate", "sampling.generate"),
    ("sampling", "apply_repetition_penalty", "sampling.apply_repetition_penalty"),
    ("cli", "main", "cli.main"),
)
METHODS = (
    ("autodiff", "Tensor", "backward", "autodiff.backward"),
    ("tokenizer", "ByteTokenizer", "encode", "tokenizer.encode"),
    ("tokenizer", "ByteTokenizer", "decode", "tokenizer.decode"),
    ("model", "DecoderModel", "forward", "model.forward"),
    ("model", "DecoderModel", "logits", "model.logits"),
    ("model", "DecoderModel", "save_checkpoint", "model.save_checkpoint"),
    ("lora", "LoraAdapter", "forward", "lora.forward"),
    ("training", "AdamW", "step", "training.optimizer"),
)

# Earlier logits inputs of the same request that a new one is compared with.
_PREFIX_WINDOW = 8


# Metrics that are not totals: they are not divided by the number of rounds.
_NOT_PER_ROUND = {"model.reprocessed_share", "training.train_step.s.p50", "training.train_step.s.p90",
                  "training.pad_share", "training.supervised_share", "evaluation.shared_prefix_share",
                  "sampling.logits_calls_per_token", "trace.overhead_share", "trace.op_share_of_step"}


def quantile(values, q: float) -> float:
    """Inclusive quantile ``q`` in (0, 1) of ``values``; 0.0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


class Recorder:
    """In-memory spans: name, start, end, parent, request id, sublayer tag."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, tag: int = -1) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([nid, perf_counter(), 0.0, parent, self.request, tag])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def arrays(self) -> dict:
        """Columns of every span (in start order) plus its self time, its
        name as text and whether it is an autodiff op span."""
        n = len(self.spans)
        cols = np.array(self.spans, dtype=np.float64).reshape(n, 6)
        name, start, end = cols[:, 0].astype(np.int64), cols[:, 1], cols[:, 2]
        parent, tag = cols[:, 3].astype(np.int64), cols[:, 5].astype(np.int64)
        dur = end - start
        children = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        is_op = [x.startswith("autodiff.") and x.endswith((".fwd", ".bwd")) for x in self.names]
        return {"label": np.asarray(self.names + [""], dtype=object)[name],
                "is_op": np.asarray(is_op + [False])[name],
                "start": start, "end": end, "tag": tag, "dur": dur, "self": dur - children}

    def write(self, path) -> None:
        """Write every span as one JSON array per line, names resolved."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["name", "start_s", "end_s", "parent", "request", "sublayer"],
                                 "sublayers": list(SUBLAYERS)}) + "\n")
            for nid, start, end, parent, request, tag in self.spans:
                fh.write(json.dumps([self.names[nid], round(start, 7), round(end, 7), parent, request, tag])
                         + "\n")


def _module(name: str):
    return importlib.import_module(f"instruct_forge.{name}")


def _lcp(a: np.ndarray, b: np.ndarray) -> int:
    n = min(len(a), len(b))
    diff = np.flatnonzero(a[:n] != b[:n])
    return int(diff[0]) if diff.size else n


class Instrumentation:
    """Installs and removes the wrappers that record into a ``Recorder``."""

    def __init__(self, recorder: Recorder):
        from instruct_forge import prompts
        from instruct_forge.tokenizer import PAD

        self.rec = recorder
        for name in {m for m, *_ in FUNCTIONS + METHODS}:
            _module(name)
        self.modules = [m for k, m in sys.modules.items()
                        if (k == "instruct_forge" or k.startswith("instruct_forge.")) and m is not None]
        self.current = _EMB
        self._prefix_history: dict[int, list] = defaultdict(list)
        self._classify_inputs: list | None = None
        self.prefix = Counter()
        self.ranked_ops: list[str] = []
        self._originals = {"render_prompt": prompts.render_prompt, "template_for": prompts.template_for}
        self._pad = PAD
        self._wrappers = self._build()

    # -- installation -----------------------------------------------------

    def _build(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every patch site."""
        sites = []
        # mul and tsum are unused by the model today; tracing them keeps the
        # op share of a train step whole if that changes
        for op in OPS + ("mul", "tsum"):
            fn = getattr(_module("autodiff"), op)
            sites += [(mod, attr, fn, w) for mod, attr, w in self._bindings(fn, self._op(op, fn))]
        after = {
            "archive.save_archive": self._after_save_archive,
            "archive.load_archive": self._after_load_archive,
            "records.load_records": lambda a, k, out: self.rec.counts.update({"records.loaded": len(out[0])}),
            "training.build_batch": self._after_build_batch,
            "evaluation.run_choice_eval": self._after_run_choice_eval,
            "evaluation.score_continuation": self._after_score_continuation,
            "sampling.generate": self._after_generate,
            "cli.main": lambda a, k, out: self.rec.counts.update({"cli.exit_nonzero": int(out != 0)}),
            "tokenizer.encode": lambda a, k, out: self.rec.counts.update({"tokenizer.encode.bytes": len(out)}),
            "model.forward": self._after_forward,
            "model.logits": self._after_logits,
        }
        for mod_name, attr, span in FUNCTIONS:
            fn = getattr(_module(mod_name), attr)
            make = self._classify_span if span == "evaluation.classify_by_likelihood" else self._span
            wrapper = make(span, fn, after.get(span))
            sites += [(mod, a, fn, w) for mod, a, w in self._bindings(fn, wrapper)]
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(_module(mod_name), cls_name)
            fn = cls.__dict__[attr]
            sites.append((cls, attr, fn, self._span(span, fn, after.get(span))))
        return sites

    def _bindings(self, fn, wrapper):
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    yield mod, attr, wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        rec = self.rec
        nid = rec.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _classify_span(self, name: str, fn, after=None):
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._classify_inputs = []
            try:
                return inner(*args, **kwargs)
            finally:
                inputs, self._classify_inputs = self._classify_inputs, None
                if inputs:
                    common = min(_lcp(inputs[0], x) for x in inputs)
                    self.prefix["shared"] += common * len(inputs)
                    self.prefix["choice_tokens"] += sum(len(x) for x in inputs)

        return wrapper

    def _sublayer(self, kind: str, args) -> int:
        if kind == "embedding":
            tag = _EMB
        elif kind == "gelu":
            tag = _MLP
        elif kind == "softmax_cross_entropy":
            tag = _LOSS
        elif kind in ("layer_norm", "transpose"):
            weight = args[1] if kind == "layer_norm" else args[0]
            wname = getattr(weight, "name", None) or ""
            if ".ln1." in wname or ".attn." in wname:
                tag = _ATT
            elif ".ln2." in wname or ".mlp." in wname:
                tag = _MLP
            elif wname.startswith(("final_norm", "lm_head")):
                tag = _HEAD
            else:
                tag = self.current
        else:
            tag = self.current
        self.current = tag
        return tag

    def _op(self, kind: str, fn):
        rec = self.rec
        fwd, bwd = rec.name_id(f"autodiff.{kind}.fwd"), rec.name_id(f"autodiff.{kind}.bwd")
        counts = rec.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = self._sublayer(kind, args)
            idx = rec.open(fwd, tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            closure = getattr(out, "_backward_fn", None)
            if closure is not None and not any(out is a for a in args):
                counts["autodiff.nodes"] += 1

                def timed(g):
                    j = rec.open(bwd, tag)
                    try:
                        closure(g)
                    finally:
                        rec.close(j)

                out._backward_fn = timed
            return out

        return wrapper

    # -- counters taken from arguments and results --------------------------------

    def _after_save_archive(self, args, kwargs, out):
        self.rec.counts["archive.save_archive.bytes"] += os.path.getsize(args[0])

    def _after_load_archive(self, args, kwargs, out):
        self.rec.counts["archive.load_archive.bytes"] += os.path.getsize(args[0])

    def _after_build_batch(self, args, kwargs, batch):
        records, template, _, config = args[:4]
        render, template_for = self._originals["render_prompt"], self._originals["template_for"]
        for record in records:
            text = render(record, template if template is not None else template_for(record), True)
            # inputs are BOS + rendered text; train keeps the last train_seq_len of them
            if len(text.encode("utf-8")) + 1 > config.train_seq_len:
                self.rec.counts["training.truncated_records"] += 1
        c = self.rec.counts
        c["training.dropped_records"] += batch.dropped
        c["training.positions"] += batch.tokens.size
        c["training.pad"] += int(np.count_nonzero(batch.tokens == self._pad))
        c["training.supervised"] += int(np.count_nonzero(batch.loss_mask))

    def _after_run_choice_eval(self, args, kwargs, report):
        self.rec.counts["evaluation.model_overflows"] += report.model_overflows
        self.rec.counts["evaluation.tuning_overflows"] += report.tuning_overflows

    def _after_score_continuation(self, args, kwargs, out):
        model, prompt, continuation = args[:3]
        n = 1 + len(prompt.encode("utf-8")) + len(continuation.encode("utf-8"))
        if n > model.max_seq_len:
            self.rec.counts["evaluation.left_truncations"] += 1

    def _after_generate(self, args, kwargs, result):
        params = args[2] if len(args) > 2 else kwargs["params"]
        c = self.rec.counts
        c["sampling.tokens"] += len(result.token_ids)
        c["sampling.truncated_requests"] += int(result.truncated)
        if len(result.token_ids) < params.max_new_tokens:
            c["sampling.eos_stops"] += 1

    def _after_forward(self, args, kwargs, out):
        self.rec.counts["model.forward.tokens"] += int(np.prod(out.shape[:-1]))

    def _after_logits(self, args, kwargs, out):
        ids = np.asarray(getattr(args[1], "ids", args[1]), dtype=np.int64).reshape(-1)
        history = self._prefix_history[self.rec.request]
        self.prefix["fed"] += len(ids)
        self.prefix["reprocessed"] += max((_lcp(ids, h) for h in history), default=0)
        history.append(ids)
        del history[:-_PREFIX_WINDOW]
        self.rec.counts["model.logits.tokens"] += len(ids)
        if self._classify_inputs is not None:
            self._classify_inputs.append(ids)
        if len(self._prefix_history) > 4:
            for stale in sorted(self._prefix_history)[:-2]:
                del self._prefix_history[stale]

    # -- summary ------------------------------------------------------------------

    def summarize(self, rounds: int, overhead: float) -> dict:
        """Every per-layer metric of BENCHMARK.json; totals are per traced round."""
        rec = self.rec
        cols = rec.arrays()
        masks = {}

        def sel(name):
            if name not in masks:
                masks[name] = cols["label"] == name
            return masks[name]

        def total(name, col="dur"):
            return float(cols[col][sel(name)].sum())

        def calls(name):
            return float(np.count_nonzero(sel(name)))

        c = rec.counts
        out: dict[str, float] = {}
        for op in OPS:
            out[f"autodiff.{op}.fwd_s"] = total(f"autodiff.{op}.fwd", "self")
            out[f"autodiff.{op}.bwd_s"] = total(f"autodiff.{op}.bwd", "self")
            out[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}.fwd")
        out["autodiff.backward.self_s"] = total("autodiff.backward", "self")
        out["autodiff.nodes"] = float(c["autodiff.nodes"])
        out["model.forward.calls"] = calls("model.forward")
        out["model.forward.tokens"] = float(c["model.forward.tokens"])
        out["model.forward.self_s"] = total("model.forward", "self")
        out["model.logits.calls"] = calls("model.logits")
        out["model.logits.tokens"] = float(c["model.logits.tokens"])
        for i, sub in enumerate(SUBLAYERS):
            out[f"model.{sub}.s"] = float(cols["self"][cols["is_op"] & (cols["tag"] == i)].sum())
        out["model.reprocessed_share"] = _share(self.prefix["reprocessed"], self.prefix["fed"])
        out["lora.forward.calls"] = calls("lora.forward")
        for name in ("lora.forward", "lora.inject", "lora.load_adapters", "lora.save_adapters", "lora.merge_all"):
            out[name + ".s"] = total(name)
        steps = cols["dur"][sel("training.train_step")]
        out["training.train_step.s.p50"] = quantile(steps, 0.5)
        out["training.train_step.s.p90"] = quantile(steps, 0.9)
        out["training.build_batch.s"] = total("training.build_batch")
        out["training.optimizer.s"] = total("training.optimizer")
        out["training.pad_share"] = _share(c["training.pad"], c["training.positions"])
        out["training.supervised_share"] = _share(c["training.supervised"],
                                                  c["training.positions"] - c["training.pad"])
        out["training.truncated_records"] = float(c["training.truncated_records"])
        out["training.dropped_records"] = float(c["training.dropped_records"])
        for name in ("run_choice_eval", "classify_by_likelihood", "corpus_perplexity"):
            out[f"evaluation.{name}.s"] = total(f"evaluation.{name}")
        for name in ("score_continuation", "assemble_fewshot_prompt"):
            out[f"evaluation.{name}.calls"] = calls(f"evaluation.{name}")
            out[f"evaluation.{name}.s"] = total(f"evaluation.{name}")
        out["evaluation.shared_prefix_share"] = _share(self.prefix["shared"], self.prefix["choice_tokens"])
        for name in ("left_truncations", "model_overflows", "tuning_overflows"):
            out[f"evaluation.{name}"] = float(c[f"evaluation.{name}"])
        out["sampling.generate.s"] = total("sampling.generate")
        out["sampling.generate.self_s"] = total("sampling.generate", "self")
        out["sampling.apply_repetition_penalty.calls"] = calls("sampling.apply_repetition_penalty")
        out["sampling.apply_repetition_penalty.s"] = total("sampling.apply_repetition_penalty")
        gen_logits = np.count_nonzero(_inside(cols, sel("sampling.generate")) & sel("model.logits"))
        out["sampling.logits_calls_per_token"] = _share(gen_logits, c["sampling.tokens"] + c["sampling.eos_stops"])
        out["sampling.truncated_requests"] = float(c["sampling.truncated_requests"])
        out["sampling.eos_stops"] = float(c["sampling.eos_stops"])
        out["tokenizer.encode.calls"] = calls("tokenizer.encode")
        out["tokenizer.encode.bytes"] = float(c["tokenizer.encode.bytes"])
        out["tokenizer.encode.s"] = total("tokenizer.encode")
        out["tokenizer.decode.s"] = total("tokenizer.decode")
        out["prompts.render_prompt.calls"] = calls("prompts.render_prompt")
        out["prompts.render_prompt.s"] = total("prompts.render_prompt")
        out["records.load_records.s"] = total("records.load_records")
        out["records.loaded"] = float(c["records.loaded"])
        for name in ("save_archive", "load_archive"):
            out[f"archive.{name}.s"] = total(f"archive.{name}")
            out[f"archive.{name}.bytes"] = float(c[f"archive.{name}.bytes"])
        out["cli.main.s"] = total("cli.main")
        out["cli.self_s"] = total("cli.main", "self")
        out["cli.exit_nonzero"] = float(c["cli.exit_nonzero"])
        out["trace.overhead_share"] = overhead
        out["trace.spans"] = float(len(rec.spans))
        out["trace.op_share_of_step"], self.ranked_ops = self.step_coverage(cols)
        per_round = max(rounds, 1)
        return {k: (v if k in _NOT_PER_ROUND else v / per_round) for k, v in out.items()}

    @staticmethod
    def step_coverage(cols) -> tuple[float, list]:
        """Share of train_step wall time spent in op self time, and the ops
        ranked by their forward plus backward self time inside steps."""
        steps = cols["label"] == "training.train_step"
        if not np.any(steps):
            return 0.0, []
        inside = _inside(cols, steps) & cols["is_op"]
        per_op = Counter()
        for label, t in zip(cols["label"][inside], cols["self"][inside]):
            per_op[label.split(".")[1]] += float(t)
        return float(cols["self"][inside].sum() / cols["dur"][steps].sum()), [op for op, _ in per_op.most_common()]


def _inside(cols, parents) -> np.ndarray:
    """Mask of spans that lie within one of the ``parents`` spans, which must
    not overlap each other."""
    if not np.any(parents):
        return np.zeros(len(cols["start"]), dtype=bool)
    p_start, p_end = cols["start"][parents], cols["end"][parents]
    pos = np.searchsorted(p_start, cols["start"], side="right") - 1
    return (pos >= 0) & (cols["end"] <= p_end[np.clip(pos, 0, None)])


def _share(part, whole) -> float:
    return float(part) / float(whole) if whole else 0.0


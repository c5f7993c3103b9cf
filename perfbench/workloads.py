"""The tune, score and decode workloads.

Each workload is a closed loop with one caller: the benchmark process issues
an operation, waits for it, then issues the next. An operation is one CLI
call made in-process through ``cli.main`` or one ``sampling.generate``
request. A round is the fixed unit of work a workload repeats: one ``train``
call (tune), one ``eval`` call followed by one ``ppl`` call (score), or the
whole request plan (decode).

``setup`` makes and loads the checkpoints the operations need and warms up;
it returns the seconds spent in program calls. ``run_round`` passes each
operation to ``self.execute``, which the traced run replaces to run it twice,
untraced and traced; every execution appends one record to ``self.ops``.
``checks`` verifies outputs against references the benchmark computes itself.
"""

from __future__ import annotations

import functools
import io
import json
import math
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from instruct_forge import cli, evaluation, lora, sampling
from instruct_forge.evaluation import ChoiceTask, FewShotSpec, QuestionTemplate
from instruct_forge.lora import LoraConfig
from instruct_forge.model import DecoderModel, ModelConfig, load_checkpoint
from instruct_forge.sampling import GenerationParams
from instruct_forge.tokenizer import BOS, EOS, ByteTokenizer

import inputs
from tracer import quantile

SHOTS = (1, 2, 3)
TUNE_EPOCHS = 2
TUNE_BATCH = 8
TUNE_SEQ_LEN = 256


def run_cli(argv: list[str]) -> tuple[int | None, float, str, str]:
    """One in-process CLI call: (exit code or None if it raised, wall, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a benchmark crash
            traceback.print_exc()
            rc = None
        wall = perf_counter() - start
    return rc, wall, out.getvalue(), err.getvalue()


def log_softmax_score(model, prompt: str, continuation: str) -> float:
    """Summed float64 log-probability of ``continuation`` after ``prompt``,
    recomputed from ``DecoderModel.logits`` with the same left truncation."""
    cont = list(continuation.encode("utf-8"))
    ids = [BOS] + list(prompt.encode("utf-8")) + cont
    ids = ids[-model.max_seq_len:]
    rows = np.asarray(model.logits(ids[:-1]), dtype=np.float64)[-len(cont):]
    top = rows.max(axis=1)
    lse = top + np.log(np.exp(rows - top[:, None]).sum(axis=1))
    return float((rows[np.arange(len(cont)), cont] - lse).sum())


def randomize_adapters(model, rng: np.random.Generator) -> None:
    """Give every adapter a non-zero B so the adapters change the output."""
    for adapter in model.adapters.values():
        adapter.B.data = rng.normal(0.0, 0.05, adapter.B.shape).astype(np.float32)


def close(a: float, b: float, rel: float = 1e-6) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.ops: list[dict] = []
        self.execute = lambda operation: operation()

    def op(self, kind: str, wall: float, ok: bool, error: str = "", **info) -> dict:
        record = {"kind": kind, "wall": wall, "ok": bool(ok), "error": error, **info}
        self.ops.append(record)
        return record


# -- tune ------------------------------------------------------------------------


class Tune(Workload):
    name = "tune"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        from instruct_forge.prompts import render_prompt, template_for
        from instruct_forge.records import InstructionRecord

        self.records = inputs.tune_records(self.rng)
        self.data = work / "data.jsonl"
        inputs.write_jsonl(self.data, self.records)
        self.base = work / "base.ifta"
        self.lengths = []
        for row in self.records:
            rec = InstructionRecord(**row)
            self.lengths.append(len(render_prompt(rec, template_for(rec)).encode("utf-8")) + 2)
        # non-PAD inputs: BOS + rendered text, tail-kept to TUNE_SEQ_LEN
        self.tokens_per_call = TUNE_EPOCHS * sum(min(n - 1, TUNE_SEQ_LEN) for n in self.lengths)
        self.steps = math.ceil(len(self.records) / TUNE_BATCH)
        self.last_out: Path | None = None

    def setup(self) -> float:
        from instruct_forge import training
        from instruct_forge.records import InstructionRecord

        warm = [InstructionRecord(**row) for row in self.records[:TUNE_BATCH]]
        start = perf_counter()
        DecoderModel(ModelConfig(seed=self.seed)).save_checkpoint(self.base)
        model = load_checkpoint(self.base)
        lora.inject(model, LoraConfig())
        # one full-size step, so the first measured call does not pay for cold caches
        config = training.TrainConfig(train_seq_len=TUNE_SEQ_LEN, seed=self.seed)
        batch = training.build_batch(warm, None, ByteTokenizer(), config)
        training.train_step(model, batch, training.AdamW(lora.adapter_parameters(model), lr=config.learning_rate))
        return perf_counter() - start

    def argv(self, out: Path) -> list[str]:
        return ["train", "--data", str(self.data), "--out", str(out), "--init-from", str(self.base),
                "--targets", "q_proj,v_proj", "--rank", "4", "--dropout", "0.05", "--batch", str(TUNE_BATCH),
                "--seq-len", str(TUNE_SEQ_LEN), "--mask-policy", "response-only",
                "--epochs", str(TUNE_EPOCHS), "--seed", str(self.seed)]

    def run_round(self) -> None:
        self.execute(self.train_call)

    def train_call(self) -> None:
        out = self.work / f"train{len(self.ops)}"
        rc, wall, stdout, stderr = run_cli(self.argv(out))
        error, loss = "", float("nan")
        try:
            reports = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
            if rc != 0:
                error = f"exit code {rc}: {stderr.strip()[-300:]}"
            elif len(reports) != TUNE_EPOCHS or any(r["steps"] != self.steps for r in reports):
                error = f"expected {TUNE_EPOCHS} epoch reports of {self.steps} steps, got {reports}"
            else:
                loss = float(reports[-1]["mean_loss"])
                missing = [p for p in ("model.ifta", *(f"adapters-epoch{e}.ifta" for e in range(TUNE_EPOCHS)))
                           if not (out / p).is_file()]
                if missing or not math.isfinite(loss):
                    error = f"missing outputs {missing} or non-finite loss {loss}"
        except (ValueError, KeyError) as exc:
            error = f"unparseable report: {exc}"
        self.op("train", wall, not error, error, loss=loss, tokens=self.tokens_per_call)
        if self.last_out is not None:
            shutil.rmtree(self.last_out, ignore_errors=True)
        self.last_out = out

    def checks(self) -> list[tuple[str, bool, str]]:
        results = []
        losses = [o["loss"] for o in self.ops if o["ok"]]
        same = bool(losses) and all(x == losses[0] for x in losses)
        results.append(("train-loss-reproducible", same, f"{len(losses)} calls, loss {losses[:1]}"))
        out = self.last_out
        ok, detail = False, "no successful train call"
        if out is not None and self.ops[-1]["ok"]:
            model = load_checkpoint(out / "model.ifta")
            base = model.logits(self.sample_ids())
            lora.load_adapters(model, out / f"adapters-epoch{TUNE_EPOCHS - 1}.ifta")
            tuned = model.logits(self.sample_ids())
            model.save_checkpoint(self.work / "roundtrip-model.ifta")
            lora.save_adapters(model, self.work / "roundtrip-adapters.ifta")
            again = load_checkpoint(self.work / "roundtrip-model.ifta")
            lora.load_adapters(again, self.work / "roundtrip-adapters.ifta")
            identical = np.array_equal(tuned, again.logits(self.sample_ids()))
            trained = not np.array_equal(base, tuned)
            ok = identical and trained
            detail = f"identical logits after save/load: {identical}; adapters moved the logits: {trained}"
        results.append(("adapter-roundtrip", ok, detail))
        return results

    def sample_ids(self) -> list[int]:
        return [BOS] + list(self.records[0]["output"].encode("utf-8"))[:63]

    def metrics(self) -> dict:
        calls = [o for o in self.ops if o["ok"]]
        rates = [o["tokens"] / o["wall"] for o in calls]
        walls = [o["wall"] for o in calls]
        named = {
            "train.tokens_per_s": (quantile(rates, 0.5), "tokens/s"),
            "train.loss_final": (calls[-1]["loss"] if calls else float("nan"), "nats"),
        }
        generic = {"work_per_s": quantile(rates, 0.5),
                   "latency_s.p50": quantile(walls, 0.5), "latency_s.p90": quantile(walls, 0.9)}
        return {"named": named, "generic": generic}

    def properties(self) -> dict:
        over = sum(n - 1 > TUNE_SEQ_LEN for n in self.lengths)
        return {
            "records": len(self.records),
            "with_input_records": sum(r["input"] is not None for r in self.records),
            "rendered_tokens": _spread(self.lengths),
            "records_over_train_seq_len": over,
            "non_pad_tokens_per_call": self.tokens_per_call,
            "batches_per_epoch": self.steps,
            "epochs": TUNE_EPOCHS,
        }


# -- score ------------------------------------------------------------------------


class Score(Workload):
    name = "score"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rows = inputs.score_tasks(self.rng)
        self.tasks_path = work / "tasks.jsonl"
        inputs.write_jsonl(self.tasks_path, rows)
        self.items = inputs.ppl_items(self.rng)
        self.items_path = work / "items.jsonl"
        inputs.write_jsonl(self.items_path, self.items)
        self.model_path, self.adapters_path = work / "model.ifta", work / "adapters.ifta"
        tasks = [ChoiceTask(instruction=r["instruction"], fields=r["fields"], choices=tuple(r["choices"]),
                            gold=r["gold"], version=r["version"], constraints=r["constraints"],
                            answer_label=r["answer_label"]) for r in rows]
        demos, self.queries = tuple(tasks[:max(SHOTS)]), tasks[max(SHOTS):]
        self.prompts = {(k, q): evaluation.assemble_fewshot_prompt(task, FewShotSpec(k, demos[:k]))
                        for k in SHOTS for q, task in enumerate(self.queries)}
        self.expected = {"tuning_overflows": 0, "model_overflows": 0}
        self.prompt_tokens = []
        for (k, q), prompt in self.prompts.items():
            n = 1 + len(prompt.encode("utf-8")) + max(len(c.encode("utf-8")) for c in self.queries[q].choices)
            self.prompt_tokens.append(n)
            self.expected["tuning_overflows"] += n > TUNE_SEQ_LEN
            self.expected["model_overflows"] += n > ModelConfig().max_seq_len
        self.choice_forwards = len(SHOTS) * sum(len(t.choices) for t in self.queries)
        self.model = None

    def setup(self) -> float:
        start = perf_counter()
        model = DecoderModel(ModelConfig(attention_layout="fused-qkv", seed=self.seed))
        lora.inject(model, LoraConfig(target_names=["query_key_value"]))
        built = perf_counter() - start
        randomize_adapters(model, np.random.default_rng(self.seed + 1))
        start = perf_counter() - built
        model.save_checkpoint(self.model_path)
        lora.save_adapters(model, self.adapters_path)
        self.model = load_checkpoint(self.model_path)
        lora.load_adapters(self.model, self.adapters_path)
        # a full-window forward, so the first measured call does not pay for cold caches
        self.model.logits([BOS] * self.model.max_seq_len)
        return perf_counter() - start

    def run_round(self) -> None:
        self.execute(self.eval_call)
        self.execute(self.ppl_call)

    def eval_call(self) -> None:
        report = self.work / "eval-report.json"
        rc, wall, _, stderr = run_cli(["eval", "--model", str(self.model_path), "--adapters", str(self.adapters_path),
                                       "--tasks", str(self.tasks_path), "--shots", ",".join(map(str, SHOTS)),
                                       "--seq-len", str(TUNE_SEQ_LEN), "--report", str(report)])
        payload, error = self._report(rc, stderr, report)
        if not error:
            got = {k: payload[k] for k in self.expected}
            if got != self.expected or sorted(payload["accuracy"]) != [str(k) for k in SHOTS]:
                error = f"overflow counts {got} != expected {self.expected} or accuracy keys {payload['accuracy']}"
        self.op("eval", wall, not error, error, report=payload, forwards=self.choice_forwards)

    def ppl_call(self) -> None:
        report = self.work / "ppl-report.json"
        rc, wall, _, stderr = run_cli(["ppl", "--model", str(self.model_path), "--adapters", str(self.adapters_path),
                                       "--items", str(self.items_path), "--report", str(report)])
        payload, error = self._report(rc, stderr, report)
        if not error and not (payload["perplexity_pooled"] > 1.0 and payload["perplexity_mean"] > 1.0):
            error = f"perplexity out of range: {payload}"
        self.op("ppl", wall, not error, error, report=payload, items=len(self.items))

    @staticmethod
    def _report(rc, stderr, path: Path) -> tuple[dict, str]:
        if rc != 0:
            return {}, f"exit code {rc}: {stderr.strip()[-300:]}"
        try:
            return json.loads(path.read_text(encoding="utf-8")), ""
        except (OSError, ValueError) as exc:
            return {}, f"unparseable report: {exc}"

    def checks(self) -> list[tuple[str, bool, str]]:
        results = []
        model = self.model
        # every choice of every query, rescored by the benchmark
        scores = {key: [log_softmax_score(model, prompt, c) for c in self.queries[key[1]].choices]
                  for key, prompt in self.prompts.items()}
        accuracy = {str(k): sum(int(np.argmax(scores[(k, q)])) == t.gold for q, t in enumerate(self.queries))
                    / len(self.queries) for k in SHOTS}
        # a shot count with a near-tie between its top two choices may round either way
        tied = {str(k) for (k, q), s in scores.items() if sorted(s)[-1] - sorted(s)[-2] < 1e-6}
        evals = [o for o in self.ops if o["kind"] == "eval" and o["ok"]]
        agree = bool(evals) and all(o["report"]["accuracy"][k] == a for o in evals
                                    for k, a in accuracy.items() if k not in tied)
        results.append(("eval-accuracy-matches-rescoring", agree,
                        f"rescored accuracy {accuracy}; shot counts with near-ties {sorted(tied)}"))
        k, q = SHOTS[self.seed % len(SHOTS)], self.seed % len(self.queries)
        program = [evaluation.score_continuation(model, self.prompts[(k, q)], c) for c in self.queries[q].choices]
        results.append(("eval-choice-scores-match-float64", all(map(close, program, scores[(k, q)])),
                        f"k={k} query={q} program {program} benchmark {scores[(k, q)]}"))

        template = QuestionTemplate()
        logps = [log_softmax_score(model, template.render(it["question"]), it["response"]) for it in self.items]
        sizes = [len(it["response"].encode("utf-8")) for it in self.items]
        pooled = math.exp(-sum(logps) / sum(sizes))
        mean = float(np.mean([math.exp(-lp / n) for lp, n in zip(logps, sizes)]))
        ppls = [o for o in self.ops if o["kind"] == "ppl" and o["ok"]]
        match = bool(ppls) and all(close(o["report"]["perplexity_pooled"], pooled)
                                   and close(o["report"]["perplexity_mean"], mean) for o in ppls)
        results.append(("ppl-matches-float64", match, f"benchmark pooled {pooled} mean {mean}"))
        return results

    def metrics(self) -> dict:
        evals = [o for o in self.ops if o["kind"] == "eval" and o["ok"]]
        ppls = [o for o in self.ops if o["kind"] == "ppl" and o["ok"]]
        eval_rates = [o["forwards"] / o["wall"] for o in evals]
        ppl_walls = [o["wall"] for o in ppls]
        named = {
            "eval.choice_forwards_per_s": (quantile(eval_rates, 0.5), "forwards/s"),
            "ppl.items_per_s": (quantile([o["items"] / o["wall"] for o in ppls], 0.5), "items/s"),
        }
        generic = {"work_per_s": quantile(eval_rates, 0.5),
                   "latency_s.p50": quantile(ppl_walls, 0.5), "latency_s.p90": quantile(ppl_walls, 0.9)}
        return {"named": named, "generic": generic}

    def properties(self) -> dict:
        shared = [len(p.encode("utf-8")) / (len(p.encode("utf-8")) + len(c.encode("utf-8")))
                  for (k, q), p in self.prompts.items() for c in self.queries[q].choices]
        template = QuestionTemplate()
        ppl_tokens = [1 + len(template.render(it["question"]).encode("utf-8")) + len(it["response"].encode("utf-8"))
                      for it in self.items]
        return {
            "queries": [t.version for t in self.queries],
            "shots": list(SHOTS),
            "choice_forwards_per_eval": self.choice_forwards,
            "eval_input_tokens": _spread(self.prompt_tokens),
            "prompt_share_of_choice_input": round(float(np.mean(shared)), 4),
            "expected_overflows": self.expected,
            "ppl_items": len(self.items),
            "ppl_input_tokens": _spread(ppl_tokens),
        }


# -- decode -----------------------------------------------------------------------


class Decode(Workload):
    name = "decode"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.plan = inputs.decode_plan(self.rng)
        self.model_path, self.adapters_path = work / "model.ifta", work / "adapters.ifta"
        self.model = None
        self.outputs: dict[int, list[int]] = {}

    def setup(self) -> float:
        start = perf_counter()
        model = DecoderModel(ModelConfig(seed=self.seed))
        lora.inject(model, LoraConfig())
        built = perf_counter() - start
        randomize_adapters(model, np.random.default_rng(self.seed + 1))
        start = perf_counter() - built
        model.save_checkpoint(self.model_path)
        lora.save_adapters(model, self.adapters_path)
        self.model = load_checkpoint(self.model_path)
        lora.load_adapters(self.model, self.adapters_path)
        # a full-window request, so the first measured one does not pay for cold caches
        sampling.generate(self.model, "w" * (self.model.max_seq_len - 1), GenerationParams(max_new_tokens=1))
        return perf_counter() - start

    def params(self, req: dict) -> GenerationParams:
        return GenerationParams(temperature=req["temperature"], repetition_penalty=req["repetition_penalty"],
                                max_new_tokens=req["max_new_tokens"],
                                stop_token=-1 if req["full_length"] else EOS)

    def run_round(self) -> None:
        for i in range(len(self.plan)):
            self.execute(functools.partial(self.request, i))

    def request(self, i: int) -> None:
        req = self.plan[i]
        params = self.params(req)
        start = perf_counter()
        try:
            result = sampling.generate(self.model, req["prompt"], params, seed=req["seed"])
        except Exception:  # a crash is a failed operation, not a benchmark crash
            self.op("generate", perf_counter() - start, False, traceback.format_exc(limit=3),
                    n=params.max_new_tokens, tokens=0)
            return
        wall = perf_counter() - start
        n, got = params.max_new_tokens, result.token_ids
        steps = len(got) + (len(got) < n)
        prompt_tokens = 1 + len(req["prompt"].encode("utf-8"))
        expect_truncated = prompt_tokens + steps - 1 > self.model.max_seq_len
        error = ""
        if len(got) > n or (req["full_length"] and len(got) != n):
            error = f"generated {len(got)} tokens for max_new_tokens={n}"
        elif result.truncated != expect_truncated:
            error = f"truncated={result.truncated}, expected {expect_truncated}"
        elif result.text != ByteTokenizer().decode(got):
            error = "text does not decode from token_ids"
        if i not in self.outputs:
            self.outputs[i] = list(got)
        elif self.outputs[i] != list(got):
            error = error or "same request and seed gave different tokens"
        self.op("generate", wall, not error, error, n=n, tokens=len(got), truncated=result.truncated,
                eos_stop=len(got) < n, prompt_tokens=prompt_tokens)

    def checks(self) -> list[tuple[str, bool, str]]:
        results = []
        greedy = [i for i, r in enumerate(self.plan) if r["temperature"] == 0.0 and r["max_new_tokens"] == 16]
        for i in greedy:
            req = self.plan[i]
            ref = self.reference_greedy(req["prompt"], req["max_new_tokens"], req["repetition_penalty"])
            got = self.outputs.get(i)
            results.append((f"greedy-matches-reference[{len(req['prompt']) + 1} tokens, "
                            f"penalty {req['repetition_penalty']}]", got == ref, f"program {got} reference {ref}"))
        return results

    def reference_greedy(self, prompt: str, n: int, penalty: float) -> list[int]:
        """Greedy decoding that recomputes full-context logits at every step."""
        ids, out = [BOS] + list(prompt.encode("utf-8")), []
        for _ in range(n):
            row = np.asarray(self.model.logits(ids[-self.model.max_seq_len:]), dtype=np.float64)[-1]
            for t in set(out):
                row[t] = row[t] / penalty if row[t] > 0 else row[t] * penalty
            nxt = int(np.argmax(row))
            if nxt == EOS:
                break
            out.append(nxt)
            ids.append(nxt)
        return out

    def metrics(self) -> dict:
        ok = [o for o in self.ops if o["ok"]]
        first = [o["wall"] for o in ok if o["n"] == 1]

        def rate(ops):
            wall = sum(o["wall"] for o in ops)
            return sum(o["tokens"] for o in ops) / wall if wall else 0.0

        named = {
            "gen.first_token_s.p50": (quantile(first, 0.5), "s"),
            "gen.first_token_s.p90": (quantile(first, 0.9), "s"),
            **{f"gen.tokens_per_s.n{n}": (rate([o for o in ok if o["n"] == n]), "tokens/s") for n in (16, 64, 256)},
        }
        generic = {"work_per_s": rate([o for o in ok if o["n"] >= 16]),
                   "latency_s.p50": quantile(first, 0.5), "latency_s.p90": quantile(first, 0.9)}
        return {"named": named, "generic": generic}

    def properties(self) -> dict:
        ok = [o for o in self.ops if o["ok"]]
        by_size = {}
        for r in self.plan:
            by_size.setdefault(r["max_new_tokens"], []).append(1 + len(r["prompt"].encode("utf-8")))
        return {
            "requests_per_round": len(self.plan),
            "prompt_tokens_by_max_new_tokens": {str(n): _spread(v) for n, v in sorted(by_size.items())},
            "greedy_share": round(sum(r["temperature"] == 0.0 for r in self.plan) / len(self.plan), 4),
            "penalty_1.05_share": round(sum(r["repetition_penalty"] > 1.0 for r in self.plan) / len(self.plan), 4),
            "truncated_requests": sum(o.get("truncated", False) for o in ok),
            "eos_stops": sum(o.get("eos_stop", False) for o in ok),
            "tokens_generated": sum(o["tokens"] for o in ok),
        }


def _spread(values) -> dict:
    return {"min": int(min(values)), "p50": quantile(values, 0.5), "p90": quantile(values, 0.9),
            "max": int(max(values)), "n": len(values)}


WORKLOADS = {w.name: w for w in (Tune, Score, Decode)}

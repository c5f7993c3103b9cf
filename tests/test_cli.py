import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from instruct_forge import archive, cli, training
from instruct_forge.archive import save_archive
from instruct_forge.cli import SETTINGS, build_parser, load_config_file, main, resolve
from instruct_forge.evaluation import (ChoiceTask, FewShotSpec, PerplexityItem, QuestionTemplate,
                                       assemble_fewshot_prompt, corpus_perplexity)
from instruct_forge.lora import load_adapters
from instruct_forge.model import DecoderModel, ModelConfig, load_checkpoint
from instruct_forge.prompts import render_prompt, template_for
from instruct_forge.records import CATEGORIES, InstructionRecord, load_records
from instruct_forge.sampling import GenerationParams, generate
from instruct_forge.tokenizer import BOS


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def single_error(capsys) -> str:
    """The one stderr line of a failed command; no traceback, nothing else."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


TINY = ["--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--max-seq-len", "64", "--seq-len", "64"]


def dataset_rows(n=8, category="other"):
    return [{"instruction": f"say w{i}", "input": None, "output": f"w{i}",
             "category": category} for i in range(n)]


@pytest.fixture
def base_model(tmp_path):
    """A tiny trained checkpoint plus its adapter file."""
    data = tmp_path / "data.jsonl"
    write_jsonl(data, dataset_rows(8))
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out),
               "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
               "--max-seq-len", "64", "--seq-len", "64",
               "--epochs", "1", "--batch", "8", "--seed", "0"])
    assert rc == 0
    return out / "model.ifta", out / "adapters-epoch0.ifta"


class TestConfigFile:
    def test_parses_keys_and_comments(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("train.lr = 0.01  # fast\n\n# blank above\nseed = 7\n",
                     encoding="utf-8")
        assert load_config_file(p) == {"train.lr": "0.01", "seed": "7"}

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # a '#' starts a comment only at the start of a line or after whitespace
        p = tmp_path / "cfg"
        p.write_text("build.exclude = qa#x\n#seed = 1\nseed = 7\t# tab\n", encoding="utf-8")
        assert load_config_file(p) == {"build.exclude": "qa#x", "seed": "7"}

    def test_rejects_bare_lines(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("not an assignment\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_config_file(p)

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("train.epochs = 3\n", encoding="utf-8")
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        rc = main(["--config", str(cfg), "train", "--data", str(data),
                   "--out", str(tmp_path / "o"), "--epochs", "1",
                   "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
                   "--max-seq-len", "64", "--seq-len", "64"])
        assert rc == 0
        assert "train.epochs = 1" in capsys.readouterr().out

    def test_config_value_used_when_no_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("lora.rank = 2\n", encoding="utf-8")
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        rc = main(["--config", str(cfg), "train", "--data", str(data),
                   "--out", str(tmp_path / "o"),
                   "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
                   "--max-seq-len", "64", "--seq-len", "64"])
        assert rc == 0
        assert "lora.rank = 2" in capsys.readouterr().out

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("INSTRUCT_FORGE_SEED", "42")
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
                   "--max-seq-len", "64", "--seq-len", "64"])
        assert rc == 0
        assert "seed = 42" in capsys.readouterr().out


class TestBuildDataset:
    def test_merges_and_reports_manifest(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_jsonl(a, dataset_rows(3, "qa"))
        write_jsonl(b, dataset_rows(2, "translation"))
        out = tmp_path / "merged.jsonl"
        rc = main(["build-dataset", "--input", str(a), "--input", str(b),
                   "--output", str(out)])
        assert rc == 0
        records, manifest = load_records(out)
        assert manifest["total"] == 5
        assert manifest["by_category"] == {"qa": 3, "translation": 2}
        assert '"total": 5' in capsys.readouterr().out

    def test_exclusion_drops_category(self, tmp_path):
        a = tmp_path / "a.jsonl"
        write_jsonl(a, dataset_rows(3, "qa") + dataset_rows(2, "translation"))
        out = tmp_path / "out.jsonl"
        rc = main(["build-dataset", "--input", str(a), "--exclude", "translation",
                   "--output", str(out)])
        assert rc == 0
        records, manifest = load_records(out)
        assert manifest["by_category"] == {"qa": 3}

    def test_pair_conversion(self, tmp_path):
        typos = tmp_path / "typos.jsonl"
        qa = tmp_path / "qa.jsonl"
        write_jsonl(typos, [{"wrong": "teh cat", "corrected": "the cat"}])
        write_jsonl(qa, [{"question": "2+2?", "answer": "4"}])
        out = tmp_path / "out.jsonl"
        rc = main(["build-dataset", "--typo-pairs", str(typos),
                   "--qa-pairs", str(qa), "--output", str(out)])
        assert rc == 0
        records, manifest = load_records(out)
        assert manifest["by_category"] == {"correction": 1, "qa": 1}
        assert records[0].input == "teh cat"

    def test_directory_input(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        write_jsonl(d / "x.jsonl", dataset_rows(2))
        write_jsonl(d / "y.jsonl", dataset_rows(3))
        out = tmp_path / "out.jsonl"
        rc = main(["build-dataset", "--input", str(d), "--output", str(out)])
        assert rc == 0
        assert load_records(out)[1]["total"] == 5

    def test_no_records_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        rc = main(["build-dataset", "--input", str(empty),
                   "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "no records" in capsys.readouterr().err

    def test_everything_excluded_fails(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        write_jsonl(a, dataset_rows(3, "qa"))
        rc = main(["build-dataset", "--input", str(a), "--exclude", "qa",
                   "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "filtering" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_unknown_excluded_category_fails_before_output(self, tmp_path, capsys, source):
        # "qa#x" used to be accepted as a category, and a config file read it as "qa"
        a = tmp_path / "a.jsonl"
        write_jsonl(a, dataset_rows(3, "qa"))
        out = tmp_path / "out.jsonl"
        argv = ["build-dataset", "--input", str(a), "--output", str(out)]
        if source == "flag":
            argv += ["--exclude", "translation,qa#x"]
        else:
            (tmp_path / "cfg").write_text("build.exclude = translation,qa#x\n", encoding="utf-8")
            argv = ["--config", str(tmp_path / "cfg"), *argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: build.exclude: unknown categories ['qa#x']; expected some of "
                                f"{sorted(CATEGORIES)}\n")
        assert captured.out == ""
        assert not out.exists()

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"instruction": "x", "output": "y"}\nnot json\n',
                       encoding="utf-8")
        rc = main(["build-dataset", "--input", str(bad),
                   "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err


class TestTrain:
    def test_writes_model_and_per_epoch_adapters(self, tmp_path):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(8))
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data), "--out", str(out),
                   "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
                   "--max-seq-len", "64", "--seq-len", "64",
                   "--epochs", "2", "--batch", "8"])
        assert rc == 0
        assert (out / "model.ifta").exists()
        assert (out / "adapters-epoch0.ifta").exists()
        assert (out / "adapters-epoch1.ifta").exists()
        model = load_checkpoint(out / "model.ifta")
        assert model.config.d_model == 16

    def test_rank_zero_rejected(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--rank", "0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_seq_len_exceeding_context_rejected(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--max-seq-len", "32", "--seq-len", "64",
                   "--d-model", "16", "--n-heads", "2", "--n-layers", "1"])
        assert rc == 1
        assert "seq_len" in capsys.readouterr().err

    def test_every_record_dropped_fails_before_writing(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, [{**row, "output": "x" * 100} for row in dataset_rows(4)])  # > --seq-len 64
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "2", *TINY]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "train_seq_len" in lines[0], lines
        assert captured.out == ""
        assert not out.exists()

    def test_divergence_stops_before_that_epochs_adapters(self, tmp_path, capsys):
        # the first update makes LoRA B ~1e30; the next forward overflows in layer norm
        # while the loss stays finite, and the run used to exit 0 and write it all
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(8))
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["train", "--data", str(data), "--out", str(out), "--lr", "1e30", "--epochs", "2", *TINY])
        assert rc == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "diverged" in lines[0], lines
        assert captured.out == ""  # used to hold the config block, printed before training
        assert not out.exists()  # epoch 0's adapters and report used to stay

    def test_empty_data_fails_before_out(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text("", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), *TINY]) == 1
        assert "train requires a non-empty dataset" in single_error(capsys)
        assert not out.exists()

    def test_embedding_target_fails_before_output(self, tmp_path, capsys):
        # used to exit 0 and train an adapter that the forward never applied
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), "--targets", "embedding", *TINY]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert "matched no parameters: ['embedding']" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_echoes_effective_config(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
                   "--max-seq-len", "64", "--seq-len", "64", "--rank", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# effective-config" in out
        assert "lora.rank = 2" in out
        assert "trainable_params" in out


class TestEval:
    def tasks_file(self, tmp_path, n=5):
        rows = [{"instruction": "pick", "fields": {"Input": f"item {i}"},
                 "choices": ["xx", "yy", "zz"], "gold": 0, "version": "v0.2"}
                for i in range(n)]
        path = tmp_path / "tasks.jsonl"
        write_jsonl(path, rows)
        return path

    def test_reports_accuracy_per_shot(self, tmp_path, capsys, base_model):
        model_path, _ = base_model
        tasks = self.tasks_file(tmp_path)
        report = tmp_path / "report.json"
        rc = main(["eval", "--model", str(model_path), "--tasks", str(tasks),
                   "--shots", "0,1,2", "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert set(payload["accuracy"]) == {"0", "1", "2"}
        for v in payload["accuracy"].values():
            assert 0.0 <= v <= 1.0

    def test_prompt_version_override_runs(self, tmp_path, base_model):
        model_path, adapters = base_model
        tasks = self.tasks_file(tmp_path)
        rc = main(["eval", "--model", str(model_path), "--adapters", str(adapters),
                   "--tasks", str(tasks), "--shots", "0",
                   "--prompt-version", "v0.3"])
        assert rc == 0

    def test_tuning_overflows_with_tiny_seq_len(self, tmp_path, base_model):
        model_path, _ = base_model
        tasks = self.tasks_file(tmp_path)
        report = tmp_path / "r.json"
        rc = main(["eval", "--model", str(model_path), "--tasks", str(tasks),
                   "--shots", "0", "--seq-len", "8", "--report", str(report)])
        assert rc == 0
        assert json.loads(report.read_text(encoding="utf-8"))["tuning_overflows"] == 5


class TestPpl:
    def test_matches_library_call(self, tmp_path, capsys, base_model):
        model_path, adapters = base_model
        items = [{"question": "what color?", "response": "blue"},
                 {"question": "how many?", "response": "two"}]
        items_path = tmp_path / "items.jsonl"
        write_jsonl(items_path, items)
        report = tmp_path / "ppl.json"
        rc = main(["ppl", "--model", str(model_path), "--adapters", str(adapters),
                   "--items", str(items_path), "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        model = load_checkpoint(model_path)
        from instruct_forge.lora import load_adapters
        load_adapters(model, adapters)
        lib_report = corpus_perplexity(model, [PerplexityItem(**i) for i in items])
        assert abs(payload["perplexity_pooled"] - lib_report.perplexity_pooled) < 1e-9
        assert abs(payload["perplexity_mean"] - lib_report.perplexity_mean) < 1e-9

    def test_report_counts_an_overlong_item(self, tmp_path, base_model):
        # a 300-byte question cannot fit the 64-token window; a 1-byte one can
        items = tmp_path / "items.jsonl"
        write_jsonl(items, [{"question": "q", "response": "r"}, {"question": "x" * 300, "response": "r"}])
        template = tmp_path / "template.txt"
        template.write_text("Q: {question}\nA: ", encoding="utf-8")
        report = tmp_path / "ppl.json"
        rc = main(["ppl", "--model", str(base_model[0]), "--adapters", str(base_model[1]), "--items", str(items),
                   "--template", str(template), "--report", str(report)])
        assert rc == 0
        assert json.loads(report.read_text(encoding="utf-8"))["model_overflows"] == 1

    def test_template_without_question_slot_fails(self, tmp_path, capsys, base_model):
        items = tmp_path / "items.jsonl"
        write_jsonl(items, [{"question": "q", "response": "r"}])
        template = tmp_path / "template.txt"
        template.write_text("### Response:\n", encoding="utf-8")
        report = tmp_path / "report.json"
        capsys.readouterr()
        rc = main(["ppl", "--model", str(base_model[0]), "--items", str(items),
                   "--template", str(template), "--report", str(report)])
        assert rc == 1
        assert "{question}" in single_error(capsys)
        assert not report.exists()

    def test_empty_items_fails(self, tmp_path, capsys, base_model):
        model_path, _ = base_model
        items_path = tmp_path / "items.jsonl"
        items_path.write_text("", encoding="utf-8")
        rc = main(["ppl", "--model", str(model_path), "--items", str(items_path)])
        assert rc == 1
        assert "no items" in capsys.readouterr().err


class TestGenerate:
    def test_greedy_deterministic(self, tmp_path, capsys, base_model):
        model_path, _ = base_model
        args = ["generate", "--model", str(model_path), "--prompt", "Once",
                "--max-new-tokens", "8"]
        capsys.readouterr()  # drop output captured while building the fixture
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_missing_model_fails(self, tmp_path, capsys):
        rc = main(["generate", "--model", str(tmp_path / "nope.ifta"),
                   "--prompt", "hi"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


JA_RECORDS = [
    {"instruction": "次の文章を一文で要約してください。", "input": "今朝は雨が降っていたが、昼過ぎには晴れて暖かくなった。",
     "output": "雨のち晴れ。", "category": "summarization"},
    {"instruction": "日本の首都はどこですか？", "input": None, "output": "東京です。", "category": "qa"},
    {"instruction": "次の言葉の反対の意味を答えてください。", "input": "大きい", "output": "小さい", "category": "other"},
    {"instruction": "富士山の高さは何メートルですか？", "input": None, "output": "三七七六メートルです。", "category": "qa"},
    {"instruction": "次の文の誤字を直してください。", "input": "今日わ良い天気です。", "output": "今日は良い天気です。",
     "category": "correction"},
    {"instruction": "好きな季節とその理由を教えてください。", "input": None, "output": "春です。桜が咲くからです。",
     "category": "other"},
    {"instruction": "次の数字を漢数字で書いてください。", "input": "１２３", "output": "百二十三", "category": "other"},
    {"instruction": "猫について一言で説明してください。", "input": None, "output": "小さな肉食の哺乳類です。🐈",
     "category": "other"},
]

# JNLI-shaped: premise, hypothesis, and the gold relation among 含意/矛盾/中立
JNLI = [("犬が公園を走っている。", "動物が外にいる。", 0),
        ("男性がギターを弾いている。", "男性は楽器を演奏していない。", 1),
        ("女性が駅で電車を待っている。", "女性は仕事に向かっている。", 2),
        ("子どもたちが海で泳いでいる。", "子どもたちは水の中にいる。", 0),
        ("店は朝九時に開く。", "店は一日中閉まっている。", 1),
        ("学生が図書館で本を読んでいる。", "学生は試験の準備をしている。", 2)]

JA_ITEMS = [{"question": "日本で一番高い山は？", "response": "富士山です。"},
            {"question": "好きな食べ物は何ですか？", "response": "お寿司です🍣"}]

JA_MAX_SEQ_LEN, JA_SEQ_LEN = 256, 64


def float64_score(model, prompt: str, continuation: str) -> float:
    """Summed log-probability of ``continuation`` after BOS and ``prompt``, left-truncated
    to the window, from the full logits of ``DecoderModel.logits`` in float64."""
    cont = list(continuation.encode("utf-8"))
    ids = ([BOS] + list(prompt.encode("utf-8")) + cont)[-model.max_seq_len:]
    rows = np.asarray(model.logits(ids[:-1]), dtype=np.float64)[-len(cont):]
    top = rows.max(axis=1)
    lse = top + np.log(np.exp(rows - top[:, None]).sum(axis=1))
    return float((rows[np.arange(len(cont)), cont] - lse).sum())


class TestJapaneseChain:
    """train, eval, ppl and generate on Japanese text, each three bytes a character:
    every record is tail-truncated in training, and the few-shot prompts cross the window."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("ja")
        write_jsonl(d / "data.jsonl", JA_RECORDS)
        tasks = [{"instruction": "前提と仮説の関係を、含意・矛盾・中立から答えてください。",
                  "fields": {"前提": p, "仮説": h}, "choices": ["含意", "矛盾", "中立"], "gold": g,
                  "version": "v0.2", "answer_label": "関係"} for p, h, g in JNLI]
        write_jsonl(d / "tasks.jsonl", tasks)
        write_jsonl(d / "items.jsonl", JA_ITEMS)
        assert main(["train", "--data", str(d / "data.jsonl"), "--out", str(d / "run"), "--d-model", "16",
                     "--n-heads", "2", "--n-layers", "1", "--max-seq-len", str(JA_MAX_SEQ_LEN),
                     "--seq-len", str(JA_SEQ_LEN), "--epochs", "2", "--batch", "4", "--seed", "3"]) == 0
        model = load_checkpoint(d / "run" / "model.ifta")
        load_adapters(model, d / "run" / "adapters-epoch1.ifta")
        return d, model, [ChoiceTask(**t) for t in tasks]

    def files(self, run):
        d = run[0]
        return ["--model", str(d / "run" / "model.ifta"), "--adapters", str(d / "run" / "adapters-epoch1.ifta")]

    def test_train_truncates_every_record_and_drops_none(self, run):
        d = run[0]
        for row in JA_RECORDS:
            record = InstructionRecord(**row)
            assert len(render_prompt(record, template_for(record)).encode("utf-8")) + 1 > JA_SEQ_LEN
        entries = [strict_json(line) for line in (d / "run" / "train-report.jsonl").read_text(encoding="utf-8")
                   .splitlines()]
        assert [(e["epoch"], e["steps"], e["dropped"]) for e in entries] == [(0, 2, 0), (1, 2, 0)]
        assert all(np.isfinite(e["mean_loss"]) for e in entries)

    def test_eval_accuracy_matches_a_float64_rescoring(self, run, capsys):
        d, model, tasks = run
        report = d / "report.json"
        assert main(["eval", *self.files(run), "--tasks", str(d / "tasks.jsonl"), "--shots", "0,1,2",
                     "--report", str(report)]) == 0
        payload = strict_json(report.read_text(encoding="utf-8"))
        queries = tasks[2:]
        # the 0-shot prompts fit the window (shared-prefix route); longer ones are left-truncated
        assert 0 < payload["model_overflows"] < 3 * len(queries)
        expected = {}
        for k in (0, 1, 2):
            spec = FewShotSpec(k=k, demonstrations=tasks[:k])
            correct = 0
            for task in queries:
                prompt = assemble_fewshot_prompt(task, spec)
                scores = [float64_score(model, prompt, choice) for choice in task.choices]
                correct += int(np.argmax(scores)) == task.gold
            expected[str(k)] = correct / len(queries)
        assert payload["accuracy"] == expected

    def test_ppl_matches_a_float64_rescoring(self, run, capsys):
        d, model, _ = run
        report = d / "ppl.json"
        assert main(["ppl", *self.files(run), "--items", str(d / "items.jsonl"), "--report", str(report)]) == 0
        payload = strict_json(report.read_text(encoding="utf-8"))
        nll = [-float64_score(model, QuestionTemplate().render(i["question"]), i["response"]) for i in JA_ITEMS]
        n = [len(i["response"].encode("utf-8")) for i in JA_ITEMS]
        assert payload["perplexity_pooled"] == pytest.approx(math.exp(sum(nll) / sum(n)), rel=1e-6)
        assert payload["perplexity_mean"] == pytest.approx(np.mean(np.exp(np.divide(nll, n))), rel=1e-6)

    def test_seeded_generate_reproduces_its_token_ids(self, run, capsys):
        _, model, _ = run
        argv = ["generate", *self.files(run), "--prompt", "日本の首都は", "--temperature", "0.8",
                "--max-new-tokens", "16", "--seed", "5"]
        capsys.readouterr()
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        params = GenerationParams(temperature=0.8, max_new_tokens=16)
        first, second = (generate(model, "日本の首都は", params, seed=5) for _ in range(2))
        assert first.token_ids and first.token_ids == second.token_ids
        assert outs[0] == outs[1] and outs[0].endswith("\n" + first.text + "\n")


# Path arguments each subcommand needs before its settings can be parsed.
REQUIRED = {
    "build-dataset": ["--output", "o"],
    "train": ["--data", "d", "--out", "o"],
    "eval": ["--model", "m", "--tasks", "t"],
    "generate": ["--model", "m", "--prompt", "p"],
}


def flag_of(setting) -> str:
    """A settings row's option string: ``--`` and its key's last segment, ``_`` as ``-``."""
    return "--" + setting.key.rsplit(".", 1)[-1].replace("_", "-")


def sample_value(setting) -> str:
    """A raw value for ``setting`` that differs from its default."""
    if setting.choices:
        return next(c for c in setting.choices if c != setting.default())
    return {int: "3", float: "0.5"}.get(setting.parse, "2,3")


class TestSettingsTable:
    @pytest.mark.parametrize("setting", SETTINGS, ids=[s.key for s in SETTINGS])
    def test_flag_and_config_key_resolve_alike(self, setting, monkeypatch):
        monkeypatch.delenv("INSTRUCT_FORGE_SEED", raising=False)
        raw = sample_value(setting)
        for command in setting.commands:
            flagged = build_parser().parse_args([command, *REQUIRED[command], flag_of(setting), raw])
            bare = build_parser().parse_args([command, *REQUIRED[command]])
            from_flag = resolve(command, flagged, {})[setting.key]
            assert from_flag == resolve(command, bare, {setting.key: raw})[setting.key]
            assert from_flag != resolve(command, bare, {})[setting.key]

    def test_each_key_declared_once(self):
        keys = [s.key for s in SETTINGS]
        assert len(keys) == len(set(keys))

    def test_seed_precedence(self, monkeypatch):
        monkeypatch.setenv("INSTRUCT_FORGE_SEED", "5")
        bare = build_parser().parse_args(["generate", *REQUIRED["generate"]])
        flagged = build_parser().parse_args(["generate", *REQUIRED["generate"], "--seed", "9"])
        assert resolve("generate", bare, {})["seed"] == 5
        assert resolve("generate", bare, {"seed": "7"})["seed"] == 7
        assert resolve("generate", flagged, {"seed": "7"})["seed"] == 9

    def test_unknown_key_rejected_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("train.epochs = 1\nbogus.key = 1\n", encoding="utf-8")
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "train", "--data", str(data), "--out", str(out), *TINY])
        assert rc == 1
        assert "bogus.key" in single_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("source, text", [
        *(pytest.param("file", t, id=t) for t in ("train.lr = fast\n", "model.layout = diagonal\n", "no equals sign\n")),
        *(pytest.param("flag", t, id=f"flag-{t}") for t in ("train.lr = fast\n", "model.layout = diagonal\n")),
    ])
    def test_bad_config_value_is_one_error_line(self, tmp_path, capsys, source, text):
        # a bad flag value used to print argparse's usage block and exit 2
        out = tmp_path / "o"
        argv = ["train", "--data", str(tmp_path / "d.jsonl"), "--out", str(out)]
        if source == "flag":
            key, value = text.strip().split(" = ")
            argv += [next(flag_of(s) for s in SETTINGS if s.key == key), value]
        else:
            (tmp_path / "cfg").write_text(text, encoding="utf-8")
            argv = ["--config", str(tmp_path / "cfg"), *argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        # a flag and its config key fail with the same line
        assert line.startswith(f"error: {text.strip()}: " if " = " in text else "error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "d.jsonl"],
        ["train", "--data", "d.jsonl", "--out", "o", "--bogus", "1"],
        ["bogus", "--out", "o"],
        ["--config"],
    ], ids=["missing-out", "unknown-flag", "unknown-subcommand", "config-without-path"])
    def test_bad_argv_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        # each used to print argparse's usage block and exit 2
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_help_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--layout {fused-qkv,split-qv}" in out
        assert "--mask-policy {response-only,full-sequence}" in out

    def test_config_applies_to_eval(self, tmp_path, capsys, base_model):
        model_path, _ = base_model
        cfg = tmp_path / "cfg"
        cfg.write_text("eval.shots = 0,2\n", encoding="utf-8")
        tasks = TestEval().tasks_file(tmp_path)
        report = tmp_path / "r.json"
        rc = main(["--config", str(cfg), "eval", "--model", str(model_path), "--tasks", str(tasks),
                   "--report", str(report)])
        assert rc == 0
        assert set(json.loads(report.read_text(encoding="utf-8"))["accuracy"]) == {"0", "2"}

    def test_config_applies_to_generate(self, tmp_path, capsys, monkeypatch, base_model):
        model_path, _ = base_model
        cfg = tmp_path / "cfg"
        cfg.write_text("generate.max_new_tokens = 3\n", encoding="utf-8")
        results = []

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        real = cli.generate
        monkeypatch.setattr(cli, "generate", spy)
        argv = ["--config", str(cfg), "generate", "--model", str(model_path), "--prompt", "Once"]
        capsys.readouterr()
        assert main(argv) == 0
        assert "generate.max_new_tokens = 3\n" in capsys.readouterr().out
        assert len(results[-1].token_ids) <= 3
        assert main(argv + ["--max-new-tokens", "5"]) == 0
        assert "generate.max_new_tokens = 5\n" in capsys.readouterr().out


def echo_block(out: str) -> list[str]:
    """The ``# effective-config`` lines at the top of a command's stdout."""
    lines = out.splitlines()
    assert lines[0] == "# effective-config"
    end = next(i for i, line in enumerate(lines) if not line.startswith("#") and " = " not in line)
    return lines[:end]


class TestEchoIsAConfig:
    """Each subcommand's effective-config block, fed back through --config, reproduces itself."""

    def argv(self, command, tmp_path, base_model):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        items = tmp_path / "items.jsonl"
        write_jsonl(items, [{"question": "q", "response": "r"}])
        model = ["--model", str(base_model[0]), "--adapters", str(base_model[1])]
        return {
            "build-dataset": (["--input", str(data), "--output", str(tmp_path / "out.jsonl")],
                              ["--exclude", "translation,qa"]),
            "train": (["--data", str(data), "--out", str(tmp_path / "run")],
                      [*TINY, "--rank", "2", "--targets", "q_proj,o_proj", "--lr", "0.01", "--dropout", "0.1",
                       "--mask-policy", "full-sequence", "--seed", "3", "--epochs", "1", "--batch", "4"]),
            "eval": ([*model, "--tasks", str(TestEval().tasks_file(tmp_path))],
                     ["--shots", "0,2", "--prompt-version", "v0.3", "--seq-len", "40"]),
            "ppl": ([*model, "--items", str(items)], []),
            "generate": ([*model, "--prompt", "Once"],
                         ["--temperature", "0.5", "--repetition-penalty", "1.25", "--max-new-tokens", "0",
                          "--seed", "9"]),
        }[command]

    @pytest.mark.parametrize("command", ["build-dataset", "train", "eval", "ppl", "generate"])
    def test_block_round_trips(self, command, tmp_path, capsys, monkeypatch, base_model):
        monkeypatch.delenv("INSTRUCT_FORGE_SEED", raising=False)
        paths, flags = self.argv(command, tmp_path, base_model)
        capsys.readouterr()
        assert main([command, *paths, *flags]) == 0
        block = echo_block(capsys.readouterr().out)
        settings = [line for line in block if not line.startswith("#")]
        assert len(settings) == sum(command in s.commands for s in SETTINGS)   # every row is set here
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("\n".join(block) + "\n", encoding="utf-8")
        assert main(["--config", str(cfg), command, *paths]) == 0
        assert echo_block(capsys.readouterr().out) == block


class TestInitFrom:
    def run(self, tmp_path, base_model, *extra, config=None):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "o"),
                "--init-from", str(base_model[0]), *extra]
        if config:
            (tmp_path / "cfg").write_text(config, encoding="utf-8")
            argv = ["--config", str(tmp_path / "cfg"), *argv]
        return main(argv)

    def test_checkpoint_config_is_the_model_config(self, tmp_path, capsys, base_model):
        capsys.readouterr()
        assert self.run(tmp_path, base_model, "--seq-len", "64", "--d-model", "16") == 0
        assert "model.d_model = 16\n" in capsys.readouterr().out

    @pytest.mark.parametrize("extra,config,named", [
        (["--d-model", "32", "--seq-len", "64"], None, "model.d_model = 32"),
        (["--seq-len", "64"], "model.layout = fused-qkv\n", "model.layout = fused-qkv"),
        (["--seq-len", "128"], None, "seq_len 128"),
    ], ids=["flag", "file", "seq-len"])
    def test_conflict_fails_before_output(self, tmp_path, capsys, base_model, extra, config, named):
        capsys.readouterr()
        assert self.run(tmp_path, base_model, *extra, config=config) == 1
        assert named in single_error(capsys)
        assert not (tmp_path / "o").exists()


class TestBadCheckpoint:
    @pytest.fixture
    def garbage(self, tmp_path):
        path = tmp_path / "garbage.ifta"
        path.write_bytes(b"IFTA0001" + b"\xff" * 40)
        return path

    def argv(self, command, model, tmp_path, adapters=None):
        items = tmp_path / "items.jsonl"
        write_jsonl(items, [{"question": "q", "response": "r"}])
        extra = ["--adapters", str(adapters)] if adapters else []
        return {
            "eval": ["eval", "--model", str(model), "--tasks", str(TestEval().tasks_file(tmp_path)), *extra],
            "ppl": ["ppl", "--model", str(model), "--items", str(items), *extra],
            "generate": ["generate", "--model", str(model), "--prompt", "hi", *extra],
        }[command]

    @pytest.mark.parametrize("command", ["eval", "ppl", "generate"])
    def test_corrupt_model(self, tmp_path, capsys, garbage, command):
        assert main(self.argv(command, garbage, tmp_path)) == 1
        assert str(garbage) in single_error(capsys)

    @pytest.mark.parametrize("command", ["eval", "ppl", "generate"])
    def test_mismatched_adapters(self, tmp_path, capsys, base_model, command):
        model_path, _ = base_model
        capsys.readouterr()
        assert main(self.argv(command, model_path, tmp_path, adapters=model_path)) == 1
        assert "not an adapter checkpoint" in single_error(capsys)

    @pytest.mark.parametrize("command", ["eval", "ppl", "generate"])
    def test_adapters_of_another_base_model(self, tmp_path, capsys, base_model, command):
        # a 2-layer run's adapters on the 1-layer base: layer 1's adapters have nowhere to go
        model_path, _ = base_model
        data, run = tmp_path / "data.jsonl", tmp_path / "run2"
        assert main(["train", "--data", str(data), "--out", str(run), "--d-model", "16", "--n-heads", "2",
                     "--n-layers", "2", "--max-seq-len", "64", "--seq-len", "64",
                     "--epochs", "1", "--batch", "8", "--seed", "0"]) == 0
        capsys.readouterr()
        assert main(self.argv(command, model_path, tmp_path, adapters=run / "adapters-epoch0.ifta")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "adapter names do not match" in lines[0]

    def test_corrupt_init_from(self, tmp_path, capsys, garbage):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--out", str(out), "--init-from", str(garbage)]) == 1
        assert str(garbage) in single_error(capsys)
        assert not out.exists()


GOOD_TASK = {"instruction": "pick", "fields": {"Input": "x"}, "choices": ["xx", "yy"], "gold": 0}


class TestMalformedRows:
    """Every JSONL reader: one `error:` line naming the file and line, exit 1, no output."""

    @pytest.mark.parametrize("row, message", [
        (["not", "an", "object"], "expected a JSON object, got list"),
        ({**GOOD_TASK, "choices": 5}, "choices must be a list"),
        ({**GOOD_TASK, "fields": ["a"]}, "fields must be an object"),
        ({**GOOD_TASK, "gold": "0"}, "gold must be an integer"),
        ({k: v for k, v in GOOD_TASK.items() if k != "gold"}, "missing required field 'gold'"),
        ({**GOOD_TASK, "choices": ["", "no"]}, "choices must be non-empty"),
        # used to fail while encoding the prompt, naming neither file nor line
        ({**GOOD_TASK, "fields": {"Input": "\ud800"}}, "a task text holds a lone surrogate"),
    ])
    def test_eval_tasks(self, tmp_path, capsys, base_model, row, message):
        tasks = tmp_path / "tasks.jsonl"
        write_jsonl(tasks, [GOOD_TASK, GOOD_TASK, row])
        report = tmp_path / "report.json"
        rc = main(["eval", "--model", str(base_model[0]), "--tasks", str(tasks), "--shots", "1",
                   "--report", str(report)])
        assert rc == 1
        assert f"tasks.jsonl: line 3: {message}" in single_error(capsys)
        assert not report.exists()

    @pytest.mark.parametrize("row, message", [
        (["q", "r"], "expected a JSON object, got list"),
        ({"question": "q", "response": 5}, "question and response must be strings"),
        ({"question": "\ud800", "response": "r"}, "question holds a lone surrogate"),
    ])
    def test_ppl_items(self, tmp_path, capsys, base_model, row, message):
        items = tmp_path / "items.jsonl"
        write_jsonl(items, [{"question": "q", "response": "r"}, row])
        rc = main(["ppl", "--model", str(base_model[0]), "--items", str(items)])
        assert rc == 1
        assert f"items.jsonl: line 2: {message}" in single_error(capsys)

    @pytest.mark.parametrize("flag, row, message", [
        ("--qa-pairs", ["q", "a"], "expected a JSON object, got list"),
        ("--typo-pairs", ["w", "c"], "expected a JSON object, got list"),
        ("--typo-pairs", {"wrong": 1, "corrected": "x"}, "input must be a string, got int"),
        ("--qa-pairs", {"question": "q", "answer": None}, "qa pair texts must be non-empty"),
        ("--qa-pairs", {"question": "q"}, "missing required field 'answer'"),
    ])
    def test_build_dataset_pairs(self, tmp_path, capsys, flag, row, message):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl(pairs, [row])
        out = tmp_path / "out.jsonl"
        rc = main(["build-dataset", flag, str(pairs), "--output", str(out)])
        assert rc == 1
        assert f"pairs.jsonl: line 1: {message}" in single_error(capsys)
        assert not out.exists()

    def test_records_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_bytes(b'{"instruction": "i", "output": "\xff"}\n')
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"), *TINY])
        assert rc == 1
        assert "data.jsonl: line 1: not UTF-8" in single_error(capsys)
        assert not (tmp_path / "run").exists()


FLOAT_SETTINGS = [s for s in SETTINGS if s.parse is float]


@pytest.fixture(scope="module")
def untrained_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.ifta"
    DecoderModel(ModelConfig(d_model=16, n_heads=2, n_layers=1, max_seq_len=64)).save_checkpoint(path)
    return path


class TestNonFiniteSettings:
    """A nan or infinite float setting is rejected by its owning dataclass before any output."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("setting", FLOAT_SETTINGS, ids=[s.key for s in FLOAT_SETTINGS])
    def test_one_error_line_and_no_output(self, tmp_path, capsys, untrained_model, setting, source, value):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        out = tmp_path / "o"
        (command,) = setting.commands
        argv = {"train": ["train", "--data", str(data), "--out", str(out), *TINY],
                "generate": ["generate", "--model", str(untrained_model), "--prompt", "Once"]}[command]
        if source == "flag":
            argv.append(f"{flag_of(setting)}={value}")
        else:
            (tmp_path / "cfg").write_text(f"{setting.key} = {value}\n", encoding="utf-8")
            argv = ["--config", str(tmp_path / "cfg"), *argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and setting.field in lines[0], lines
        assert captured.out == ""
        assert not out.exists()



class TestFailsBeforeOutput:
    """A bad output path, prompt or setting: one `error:` line, exit 1, nothing on stdout."""

    def assert_failed_silently(self, capsys, argv, named):
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], lines
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["eval", "ppl"])
    def test_report_in_missing_directory(self, tmp_path, capsys, untrained_model, command):
        items = tmp_path / "items.jsonl"
        write_jsonl(items, [{"question": "q", "response": "r"}])
        inputs = {"eval": ["--tasks", str(TestEval().tasks_file(tmp_path, n=1)), "--shots", "0"],
                  "ppl": ["--items", str(items)]}[command]
        report = tmp_path / "missing_dir" / "r.json"
        argv = [command, "--model", str(untrained_model), *inputs, "--report", str(report)]
        self.assert_failed_silently(capsys, argv, f"No such file or directory: '{report}'")

    @pytest.mark.parametrize("seq_len", ["0", "-7"])
    def test_eval_seq_len_below_one(self, tmp_path, capsys, untrained_model, seq_len):
        # both used to exit 0 and count 3 of 3 queries as tuning overflows
        report = tmp_path / "r.json"
        argv = ["eval", "--model", str(untrained_model), "--tasks", str(TestEval().tasks_file(tmp_path, n=4)),
                "--shots", "1", f"--seq-len={seq_len}", "--report", str(report)]
        self.assert_failed_silently(capsys, argv, "tuning_seq_len must be >= 1")
        assert not report.exists()

    @pytest.mark.parametrize("shots", [",", "-1", "0,-2"])
    def test_eval_shots_empty_or_negative(self, tmp_path, capsys, untrained_model, shots):
        # used to fail with "max() arg is an empty sequence" or "k must be >= 0"
        argv = ["eval", "--model", str(untrained_model), "--tasks", str(TestEval().tasks_file(tmp_path, n=4)),
                f"--shots={shots}"]
        self.assert_failed_silently(capsys, argv, "shots")

    def test_prompt_that_is_not_utf8(self, capsys, untrained_model):
        # Linux hands undecodable argv bytes to Python as lone surrogates
        argv = ["generate", "--model", str(untrained_model), "--prompt", "hi \udcff", "--max-new-tokens", "1"]
        self.assert_failed_silently(capsys, argv, "surrogates not allowed")

    def test_temperature_too_small_for_the_logits(self, capsys, untrained_model):
        # used to print the config block, numpy RuntimeWarnings and "error: Probabilities contain NaN"
        argv = ["generate", "--model", str(untrained_model), "--prompt", "hi", "--temperature", "1e-310"]
        self.assert_failed_silently(capsys, argv, "temperature 1e-310 is too small: logits / temperature overflows")

    def test_negative_generate_seed(self, capsys, untrained_model):
        # used to fail with numpy's "expected non-negative integer", which names no setting
        argv = ["generate", "--model", str(untrained_model), "--prompt", "hi", "--seed", "-1"]
        self.assert_failed_silently(capsys, argv, "seed must be >= 0, got -1")

    @pytest.mark.parametrize("seed", ["-1", "-20"])
    def test_negative_train_seed_over_a_checkpoint(self, tmp_path, capsys, untrained_model, seed):
        # the checkpoint's config skips ModelConfig's seed check; numpy used to
        # reject the seed in the epoch loop, after an empty --out was made
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        out = tmp_path / "o"
        argv = ["train", "--data", str(data), "--out", str(out), "--init-from", str(untrained_model),
                "--seq-len", "64", "--seed", seed]
        self.assert_failed_silently(capsys, argv, f"seed must be >= 0, got {seed}")
        assert not out.exists()

    def test_ppl_item_whose_perplexity_overflows(self, tmp_path, capsys):
        # logits about 1e4 apart put a response's mean NLL past exp's float range; used to print a traceback
        model = DecoderModel(ModelConfig(d_model=16, n_heads=2, n_layers=1, max_seq_len=64))
        model.params["lm_head"].data *= 1e6
        model.save_checkpoint(tmp_path / "model.ifta")
        items = tmp_path / "items.jsonl"
        write_jsonl(items, [{"question": "q", "response": "an answer"}])
        report = tmp_path / "r.json"
        argv = ["ppl", "--model", str(tmp_path / "model.ifta"), "--items", str(items), "--report", str(report)]
        self.assert_failed_silently(capsys, argv, "item 1: perplexity overflows")
        assert not report.exists()

    def test_out_below_a_file(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        self.assert_failed_silently(capsys, ["train", "--data", str(data), "--out", str(data / "run"), *TINY],
                                    "Not a directory")

    # 10**15 positions need petabytes, past a 47-bit address space, so the
    # allocation fails whatever the overcommit policy; both used to print a traceback
    def test_context_too_large_to_allocate(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        out = tmp_path / "o"
        argv = ["train", "--data", str(data), "--out", str(out), *TINY, "--max-seq-len", str(10**15)]
        self.assert_failed_silently(capsys, argv, "Unable to allocate")
        assert not out.exists()

    def test_stored_context_too_large_to_allocate(self, tmp_path, capsys):
        path = tmp_path / "m.ifta"
        config = {**asdict(ModelConfig(d_model=16, n_heads=2, n_layers=1)), "max_seq_len": 10**15}
        save_archive(path, {}, meta={"kind": "decoder-model", "config": config})
        self.assert_failed_silently(capsys, ["generate", "--model", str(path), "--prompt", "hi"], "Unable to allocate")

    def diverge(self, tmp_path, capsys, records, out, *extra):
        # the first update makes LoRA B ~1e30; the next forward overflows
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(records))
        argv = ["train", "--data", str(data), "--out", str(out), "--lr", "1e30", "--epochs", "2", *extra, *TINY]
        self.assert_failed_silently(capsys, argv, "training diverged")

    def test_divergence_after_an_epoch_removes_its_outputs(self, tmp_path, capsys):
        # one step an epoch: epoch 0's adapters and report used to stay in --out
        out = tmp_path / "new" / "run"
        self.diverge(tmp_path, capsys, 4, out)
        assert not (tmp_path / "new").exists()

    def test_divergence_in_the_first_epoch_removes_out(self, tmp_path, capsys):
        # two steps an epoch: the second diverges, and an empty --out used to stay
        out = tmp_path / "run"
        self.diverge(tmp_path, capsys, 8, out, "--batch", "4")
        assert not out.exists()

    def test_divergence_in_an_existing_out_keeps_what_was_there(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("mine", encoding="utf-8")
        (out / "train-report.jsonl").write_text('{"epoch": 0}\n', encoding="utf-8")
        self.diverge(tmp_path, capsys, 4, out)
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "train-report.jsonl"]
        assert (out / "train-report.jsonl").read_text(encoding="utf-8") == '{"epoch": 0}\n'

    @pytest.mark.parametrize("failure", ["diverge", "interrupt"])
    def test_failure_over_an_earlier_run_leaves_every_byte(self, tmp_path, capsys, monkeypatch, failure):
        # one step an epoch, and epoch 1 fails: epoch 0's adapters used to be rewritten with the failed run's
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        out = tmp_path / "run"
        argv = ["train", "--data", str(data), "--out", str(out), "--epochs", "2", *TINY]
        assert main(argv) == 0
        capsys.readouterr()
        before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        if failure == "diverge":
            self.assert_failed_silently(capsys, [*argv, "--lr", "1e30"], "training diverged")
        else:
            real, steps = training.train_step, []

            def interrupted(*args):
                steps.append(args)
                if len(steps) == 2:
                    raise KeyboardInterrupt
                return real(*args)

            monkeypatch.setattr(training, "train_step", interrupted)
            with pytest.raises(KeyboardInterrupt):
                main([*argv, "--seed", "1"])   # another seed: its epoch 0 differs from the earlier run's
            assert capsys.readouterr().out == ""
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == before

    def publish_failing_at(self, tmp_path, capsys, monkeypatch, failing):
        # a full disk at one of the files a two-epoch run publishes over a one-epoch run
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        out = tmp_path / "run"
        argv = ["train", "--data", str(data), "--out", str(out), *TINY]
        assert main(argv) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def full_disk(path, mode):
            fh = open(path, mode)
            if Path(path).name.startswith(f"{failing}."):
                fh.write(b"part")
                fh.close()
                raise OSError(28, "No space left on device")
            return fh

        monkeypatch.setattr(archive, "open", full_disk, raising=False)
        self.assert_failed_silently(capsys, [*argv, "--epochs", "2", "--seed", "1"], f"'{out / failing}'")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failure_while_publishing_leaves_whole_files(self, tmp_path, capsys, monkeypatch):
        # the files before the failing one used to be replaced, and those after it not written
        self.publish_failing_at(tmp_path, capsys, monkeypatch, "adapters-epoch1.ifta")

    @pytest.mark.parametrize("failing", ["adapters-epoch0.ifta", "model.ifta", "train-report.jsonl"])
    def test_failure_at_the_first_or_a_later_file_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                                         failing):
        self.publish_failing_at(tmp_path, capsys, monkeypatch, failing)

    def test_a_directory_at_model_ifta_leaves_out_as_it_was(self, tmp_path, capsys):
        # the rename over model.ifta fails; adapters-epoch0.ifta, renamed before it, used to stay replaced
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        out = tmp_path / "run"
        argv = ["train", "--data", str(data), "--out", str(out), *TINY]
        assert main(argv) == 0
        capsys.readouterr()
        (out / "model.ifta").unlink()
        (out / "model.ifta").mkdir()
        (out / "model.ifta" / "kept").write_bytes(b"x")
        before = sorted((p.relative_to(out), p.read_bytes() if p.is_file() else None) for p in out.rglob("*"))
        self.assert_failed_silently(capsys, [*argv, "--seed", "1"], f"'{out / 'model.ifta'}'")
        assert sorted((p.relative_to(out), p.read_bytes() if p.is_file() else None) for p in out.rglob("*")) == before

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        # used to print only the codec's message, which names no file
        cfg = tmp_path / "cfg"
        cfg.write_bytes(b"\xffseed = 1\n")
        argv = ["--config", str(cfg), "build-dataset", "--output", str(tmp_path / "o.jsonl")]
        self.assert_failed_silently(capsys, argv, f"{cfg}: not UTF-8")

    def test_template_that_is_not_utf8(self, tmp_path, capsys, untrained_model):
        items = tmp_path / "items.jsonl"
        write_jsonl(items, [{"question": "q", "response": "r"}])
        template = tmp_path / "template.txt"
        template.write_bytes(b"\xff{question}")
        argv = ["ppl", "--model", str(untrained_model), "--items", str(items), "--template", str(template)]
        self.assert_failed_silently(capsys, argv, f"{template}: not UTF-8")


# Frees and reallocates 40 x 2 MB arrays five times and prints the minor page
# faults that took. argv[1] == "main" first runs cli.main (an eval that exits 1).
FAULT_PROBE = """
import resource, sys
import numpy as np
from instruct_forge import cli
from instruct_forge.model import DecoderModel, ModelConfig
if sys.argv[1] == "main":
    assert cli.main(["eval", "--model", "missing.ifta", "--tasks", "missing.jsonl"]) == 1
elif sys.argv[1] == "model":
    DecoderModel(ModelConfig(d_model=16, n_heads=2, n_layers=1))
arrays = [np.ones(1 << 18) for _ in range(40)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    del arrays
    arrays = [np.ones(1 << 18) for _ in range(40)]
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestMemoryPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
    def test_main_keeps_freed_arrays_in_the_heap(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])

        def faults(mode):
            run = subprocess.run([sys.executable, "-c", FAULT_PROBE, mode], cwd=tmp_path, env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            return int(run.stdout)

        kept = faults("main")
        assert kept < 1_000
        # a library caller that builds a model, and never enters main, gets the same policy
        assert faults("model") < 1_000
        # under glibc's defaults the same loop faults again: ~100,000 times with 4 KB pages
        assert faults("library") > 10 * max(kept, 1)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
    def test_both_settings_in_range(self):
        assert cli._keep_freed_memory()

    def test_without_mallopt_main_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("instruct_forge.model.ctypes.CDLL", lambda name: object())
        assert cli._keep_freed_memory() is False
        data = tmp_path / "d.jsonl"
        write_jsonl(data, dataset_rows(4))
        assert main(["build-dataset", "--input", str(data), "--output", str(tmp_path / "out.jsonl")]) == 0
        assert len(load_records(tmp_path / "out.jsonl")[0]) == 4

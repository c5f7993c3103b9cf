import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instruct_forge.records import (
    CATEGORIES,
    InstructionRecord,
    RecordError,
    convert_qa_pair,
    convert_typo_pair,
    dataset_stats,
    filter_by_category,
    load_records,
    save_records,
)


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for o in objs:
            fh.write(json.dumps(o, ensure_ascii=False) + "\n")


def rec(i, category="qa", source="s"):
    return {"instruction": f"do {i}", "input": None, "output": f"out {i}",
            "category": category, "source": source}


class TestLoad:
    def test_three_valid_lines(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [rec(i) for i in range(3)])
        records, manifest = load_records(p)
        assert len(records) == 3
        assert manifest["total"] == 3

    def test_missing_output_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        objs = [rec(0), {"instruction": "x", "category": "qa"}, rec(2)]
        write_jsonl(p, objs)
        with pytest.raises(RecordError, match="line 2"):
            load_records(p)

    def test_bad_json_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"instruction": "a", "output": "b"}\nnot json\n')
        with pytest.raises(RecordError, match="line 2"):
            load_records(p)

    @pytest.mark.parametrize("field, value, message", [
        ("instruction", 5, "instruction must be a string, got int"),
        ("input", [1], "input must be a string, got list"),
        ("output", float("nan"), "output must be a string, got float"),
        ("category", ["qa"], "category must be a string, got list"),
        ("source", {}, "source must be a string, got dict"),
    ])
    def test_wrong_field_type_names_line(self, tmp_path, field, value, message):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [rec(0), {**rec(1), field: value}])
        with pytest.raises(RecordError, match=f"line 2: {message}"):
            load_records(p)

    @pytest.mark.parametrize("line, message", [
        (b'{"instruction": "i", "output": "\xff"}', "line 2: not UTF-8"),
        (b"[" * 100_000, "line 2: invalid JSON"),
        (b'"just a string"', "line 2: expected a JSON object, got str"),
        (b'{"instruction": "i", "output": "\\ud800"}', "line 2: output holds a lone surrogate"),
        (b'{"instruction": "i"}', "line 2: missing required field 'output'"),
    ])
    def test_malformed_line_is_a_record_error(self, tmp_path, line, message):
        p = tmp_path / "d.jsonl"
        p.write_bytes(json.dumps(rec(0)).encode() + b"\n" + line + b"\n")
        with pytest.raises(RecordError, match=message):
            load_records(p)

    def test_crlf_and_blank_lines(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_bytes(b"\r\n".join(json.dumps(rec(i)).encode() for i in range(2)) + b"\r\n\r\n")
        assert len(load_records(p)[0]) == 2

    def test_category_counts_match_hand_count(self, tmp_path):
        p = tmp_path / "d.jsonl"
        cats = ["qa", "qa", "translation", "correction", "qa"]
        write_jsonl(p, [rec(i, c) for i, c in enumerate(cats)])
        _, manifest = load_records(p)
        assert manifest["by_category"] == {"qa": 3, "translation": 1, "correction": 1}

    def test_roundtrip(self, tmp_path):
        records = [InstructionRecord("inst", "out", input="in", category="qa", source="x")]
        p = tmp_path / "d.jsonl"
        save_records(records, p)
        loaded, _ = load_records(p)
        assert loaded == records


class TestValidation:
    def test_empty_instruction_rejected(self):
        with pytest.raises(RecordError):
            InstructionRecord("", "out")

    def test_unknown_category_rejected(self):
        with pytest.raises(RecordError, match="category"):
            InstructionRecord("i", "o", category="poetry")

    def test_label_set_is_closed(self):
        assert "translation" in CATEGORIES and len(CATEGORIES) == 8


class TestFilter:
    def make(self):
        cats = ["qa", "translation", "correction", "translation", "other"]
        return [InstructionRecord(f"i{n}", f"o{n}", category=c) for n, c in enumerate(cats)]

    def test_excludes_translation_keeps_order(self):
        records = self.make()
        out = filter_by_category(records, {"translation"})
        assert [r.instruction for r in out] == ["i0", "i2", "i4"]

    def test_empty_exclusion_is_identity(self):
        records = self.make()
        assert filter_by_category(records, set()) == records

    def test_full_exclusion_empties(self):
        assert filter_by_category(self.make(), CATEGORIES) == []

    def test_idempotent(self):
        records = self.make()
        once = filter_by_category(records, {"translation"})
        assert filter_by_category(once, {"translation"}) == once

    def test_stats_after_filter(self):
        out = filter_by_category(self.make(), {"translation"})
        assert dataset_stats(out)["by_category"].get("translation", 0) == 0


class TestConversions:
    def test_typo_pair(self):
        r = convert_typo_pair("teh cat", "the cat")
        assert r.category == "correction"
        assert r.input == "teh cat"
        assert r.output == "the cat"

    def test_noop_correction_is_valid(self):
        r = convert_typo_pair("same", "same")
        assert r.input == r.output == "same"

    def test_typo_batch_counts(self):
        records = [convert_typo_pair(f"w{i}", f"c{i}") for i in range(7)]
        assert dataset_stats(records)["by_category"] == {"correction": 7}

    def test_typo_empty_rejected(self):
        with pytest.raises(RecordError):
            convert_typo_pair("", "x")

    def test_qa_pair(self):
        r = convert_qa_pair("2+2?", "4")
        assert r.category == "qa"
        assert r.output == "4"

    def test_qa_newline_preserved(self):
        r = convert_qa_pair("line one\nline two?", "yes")
        assert r.input == "line one\nline two?"

    def test_qa_batch_counts(self):
        records = [convert_qa_pair(f"q{i}", f"a{i}") for i in range(5)]
        assert dataset_stats(records)["by_category"] == {"qa": 5}


class TestStats:
    def test_empty(self):
        m = dataset_stats([])
        assert m["total"] == 0 and m["by_category"] == {} and m["by_source"] == {}

    def test_per_category_sums_to_total(self):
        records = [InstructionRecord(f"i{n}", "o", category=c)
                   for n, c in enumerate(["qa", "qa", "other", "correction"] * 2 + ["qa", "summarization"])]
        m = dataset_stats(records)
        assert sum(m["by_category"].values()) == m["total"] == len(records)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


@st.composite
def jsonl_bytes(draw):
    """Arbitrary bytes, or a valid records file with fields replaced by arbitrary
    JSON values and then bytes overwritten or cut off."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    rows = [rec(i, draw(st.sampled_from(sorted(CATEGORIES)))) for i in range(draw(st.integers(1, 3)))]
    for row in rows:
        for key in draw(st.lists(st.sampled_from(sorted(row)), max_size=2)):
            if draw(st.booleans()):
                row[key] = draw(JSON_VALUES)
            else:
                row.pop(key, None)
    blob = bytearray("\n".join(json.dumps(r, ensure_ascii=draw(st.booleans())) for r in rows).encode())
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob)


@settings(max_examples=400, deadline=None)
@given(blob=jsonl_bytes())
def test_any_bytes_load_or_raise_record_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        path.write_bytes(blob)
        try:
            records, manifest = load_records(path)
        except RecordError:
            return
        assert manifest["total"] == len(records)
        for r in records:
            assert all(isinstance(v, str) for v in (r.instruction, r.output, r.category, r.source))
            assert r.input is None or isinstance(r.input, str)
        save_records(records, path)
        assert load_records(path)[0] == records

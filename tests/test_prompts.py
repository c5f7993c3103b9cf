from pathlib import Path

import pytest

from instruct_forge.evaluation import VERSIONS
from instruct_forge.prompts import PromptTemplate, render_prompt, template_for
from instruct_forge.records import InstructionRecord

FIXTURES = Path(__file__).parent / "fixtures"


def with_input_record():
    return InstructionRecord("Summarize.", "ab", input="abc", category="summarization")


def no_input_record():
    return InstructionRecord("Say hi.", "hi", category="other")


class TestGoldenRenders:
    # The tuning render carries no few-shot layout: one golden serves every
    # evaluation prompt version.
    @pytest.mark.parametrize("version", VERSIONS)
    def test_with_input_matches_golden(self, version):
        golden = (FIXTURES / "prompt_with_input.txt").read_text(encoding="utf-8")
        tpl = PromptTemplate(kind="with-input")
        assert render_prompt(with_input_record(), tpl) == golden

    @pytest.mark.parametrize("version", VERSIONS)
    def test_no_input_matches_golden(self, version):
        golden = (FIXTURES / "prompt_no_input.txt").read_text(encoding="utf-8")
        tpl = PromptTemplate(kind="no-input")
        assert render_prompt(no_input_record(), tpl) == golden

    def test_no_input_has_no_input_section(self):
        out = render_prompt(no_input_record(), PromptTemplate(kind="no-input"))
        assert "### Input:" not in out


class TestRenderModes:
    def test_inference_render_ends_at_response_header(self):
        out = render_prompt(with_input_record(), PromptTemplate(kind="with-input"),
                            include_response=False)
        assert out.endswith("### Response:\n")
        assert "ab" not in out.split("### Response:")[-1]

    def test_training_render_appends_output(self):
        tpl = PromptTemplate(kind="with-input")
        inference = render_prompt(with_input_record(), tpl, include_response=False)
        training = render_prompt(with_input_record(), tpl, include_response=True)
        assert training == inference + "ab"

    def test_with_input_template_requires_input(self):
        with pytest.raises(ValueError, match="input"):
            render_prompt(no_input_record(), PromptTemplate(kind="with-input"))

    def test_deterministic(self):
        tpl = PromptTemplate(kind="with-input")
        assert render_prompt(with_input_record(), tpl) == render_prompt(with_input_record(), tpl)

    @pytest.mark.parametrize("kind", ["with-input", "no-input"])
    def test_slot_text_in_user_text_renders_verbatim(self, kind):
        rec = InstructionRecord("use {input} here", "out {response}",
                                input="see {instruction}" if kind == "with-input" else None)
        out = render_prompt(rec, PromptTemplate(kind=kind))
        assert "### Instruction:\nuse {input} here\n" in out
        assert out.endswith("### Response:\nout {response}")
        if kind == "with-input":
            assert "### Input:\nsee {instruction}\n" in out


class TestTemplateConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PromptTemplate(kind="both")

    def test_body_must_end_with_response_slot(self):
        with pytest.raises(ValueError, match="response"):
            PromptTemplate(kind="no-input", body="{instruction} then {response} then more")

    def test_template_for_picks_kind(self):
        assert template_for(with_input_record()).kind == "with-input"
        assert template_for(no_input_record()).kind == "no-input"

from pathlib import Path

import pytest

from instruct_forge.evaluation import VERSIONS, ChoiceTask, FewShotSpec, assemble_fewshot_prompt
from instruct_forge.prompts import PromptTemplate, render_prompt, template_for
from instruct_forge.records import InstructionRecord

FIXTURES = Path(__file__).parent / "fixtures"


def with_input_record():
    return InstructionRecord("Summarize.", "ab", input="abc", category="summarization")


def no_input_record():
    return InstructionRecord("Say hi.", "hi", category="other")


def japanese_with_input_record():
    return InstructionRecord("次の文章を一文で要約してください。", "名前のない猫が、生まれた場所を覚えていないと語る。",
                             input="吾輩は猫である。名前はまだ無い。\nどこで生れたかとんと見当がつかぬ。",
                             category="summarization")


def japanese_no_input_record():
    return InstructionRecord("日本で一番高い山は何ですか？", "富士山です。標高は３，７７６メートルです。🗻")


def jnli_task(premise, hypothesis, gold, version):
    return ChoiceTask(
        instruction="前提と仮説の関係を含意、矛盾、中立の中から回答してください。",
        constraints="制約：\n"
                    "- 前提から仮説が、論理的知識や常識的知識を用いて導出可能である場合は含意と出力\n"
                    "- 前提と仮説が両立しえない場合は矛盾と出力\n"
                    "- そのいずれでもない場合は中立と出力",
        fields={"前提": premise, "仮説": hypothesis},
        choices=("含意", "矛盾", "中立"),
        gold=gold,
        version=version,
        answer_label="関係",
    )


def jnli_demos(version):
    return (
        jnli_task("芝生の上で二人の女性がフリスビーを取ろうとジャンプしている。", "女性たちはフリスビーを取ろうとしている。", 0, version),
        jnli_task("男性が自転車で通りを走っている。", "男性はベッドで眠っている。", 1, version),
        jnli_task("子どもが赤い風船を持っている。", "子どもは祭りで風船をもらった。", 2, version),
    )


def jnli_query(version):
    return jnli_task("ミキサーの横にバナナとキウイが置かれていて、子どもが二人いる。",
                     "ミキサーが置かれたテーブルにスポイトを持った子どもたちがいる。", 2, version)


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

    @pytest.mark.parametrize("kind, record", [("with-input", japanese_with_input_record),
                                              ("no-input", japanese_no_input_record)])
    def test_japanese_matches_golden(self, kind, record):
        golden = (FIXTURES / f"prompt_{kind.replace('-', '_')}_ja.txt").read_text(encoding="utf-8")
        assert render_prompt(record(), PromptTemplate(kind=kind)) == golden

    @pytest.mark.parametrize("version", VERSIONS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_japanese_fewshot_matches_golden(self, version, k):
        golden = (FIXTURES / f"fewshot_{version}_k{k}_ja.txt").read_text(encoding="utf-8")
        spec = FewShotSpec(k=k, demonstrations=jnli_demos(version))
        assert assemble_fewshot_prompt(jnli_query(version), spec) == golden

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

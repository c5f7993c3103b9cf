"""Shared inference fixtures: an English NLI-style 3-choice task set, and a
default-size model with live adapters."""

import numpy as np

from instruct_forge import lora
from instruct_forge.evaluation import ChoiceTask
from instruct_forge.model import DecoderModel, ModelConfig

NLI_INSTRUCTION = (
    "Please answer the relationship between the premise and the hypothesis "
    "from entailment, contradiction, and neutral."
)

NLI_CONSTRAINTS = (
    "Constraints:\n"
    "- If the hypothesis can be derived from the premise using logical or "
    "common sense knowledge, output entailment\n"
    "- If the premise and the hypothesis are incompatible, output contradiction\n"
    "- If neither of the above, output neutral"
)

NLI_CHOICES = ("entailment", "contradiction", "neutral")


def nli_task(premise, hypothesis, gold, version="v0.2"):
    return ChoiceTask(
        instruction=NLI_INSTRUCTION,
        constraints=NLI_CONSTRAINTS,
        fields={"Premise": premise, "Hypothesis": hypothesis},
        choices=NLI_CHOICES,
        gold=gold,
        version=version,
        answer_label="Relationship",
    )


def demos(version="v0.2"):
    return (
        nli_task("Two women are jumping to catch a frisbee in the grass.",
                 "The women are trying to catch a frisbee.", 0, version),
        nli_task("A man is riding a bicycle down the street.",
                 "The man is sleeping in his bed.", 1, version),
        nli_task("A child is holding a red balloon.",
                 "The child received the balloon at a festival.", 2, version),
    )


def query(version="v0.2"):
    return nli_task(
        "There are two children, and bananas and kiwis are placed next to the mixer.",
        "There are children with droppers at the table where the mixer is placed.",
        2, version)


def adapted_model(layout="split-qv", seed=4):
    """Default-size model with adapters whose B is non-zero, so the
    adapters change every logit."""
    model = DecoderModel(ModelConfig(attention_layout=layout, seed=seed))
    targets = ["query_key_value"] if layout == "fused-qkv" else ["q_proj", "v_proj"]
    lora.inject(model, lora.LoraConfig(target_names=targets))
    return live_adapters(model, seed)


def live_adapters(model, seed):
    """``model`` with each adapter's B drawn from N(0, 0.05) by ``default_rng(seed)``, in injection order; a zero
    B hides every gradient of A and every adapter from the logits."""
    rng = np.random.default_rng(seed)
    for adapter in model.adapters.values():
        adapter.B.data = rng.normal(0.0, 0.05, adapter.B.shape).astype(np.float32)
    return model

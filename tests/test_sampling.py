import numpy as np
import pytest

from fixture_tasks import adapted_model
from instruct_forge.autodiff import log_softmax
from instruct_forge.model import DecoderModel, ModelConfig
from instruct_forge.sampling import (
    GenerationParams,
    apply_repetition_penalty,
    generate,
)
from instruct_forge.tokenizer import BOS, EOS, VOCAB_SIZE
from test_evaluation import RowModel


class ScriptedModel:
    """Stub that always prefers the next byte in a fixed script."""

    max_seq_len = 4096

    def __init__(self, script, strength=4.0):
        self.script = [ord(c) for c in script]
        self.strength = strength

    def new_cache(self):
        return [0]   # positions seen

    def logits(self, ids, cache=None, last=None):
        rows = np.zeros((min(last or len(ids), len(ids)), VOCAB_SIZE))
        # position in the script = number of generated tokens so far;
        # the prompt is replayed so key off total length modulo script
        total = len(ids) + (cache[0] if cache else 0)
        if cache is not None:
            cache[0] = total
        rows[-1, self.script[(total - 1) % len(self.script)]] = self.strength
        return rows


class LoopingModel:
    """Always shouts for the same byte; EOS is a distant runner-up."""

    max_seq_len = 4096

    def __init__(self, ch="a", top=2.0, eos=1.5):
        self.byte = ord(ch)
        self.top = top
        self.eos = eos

    def new_cache(self):
        return []

    def logits(self, ids, cache=None, last=None):
        rows = np.zeros((min(last or len(ids), len(ids)), VOCAB_SIZE))
        rows[-1, self.byte] = self.top
        rows[-1, EOS] = self.eos
        return rows


class TestParams:
    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            GenerationParams(temperature=-0.1)

    def test_penalty_below_one_rejected(self):
        with pytest.raises(ValueError):
            GenerationParams(repetition_penalty=0.9)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            GenerationParams(max_new_tokens=-1)


class TestRepetitionPenalty:
    def test_identity_at_one(self):
        logits = np.array([1.0, -2.0, 0.5])
        out = apply_repetition_penalty(logits, [0, 1, 2], 1.0)
        np.testing.assert_array_equal(out, logits)

    def test_positive_divided(self):
        out = apply_repetition_penalty(np.array([2.0, 3.0]), [0], 1.05)
        assert abs(out[0] - 2.0 / 1.05) < 1e-12
        assert out[1] == 3.0

    def test_nonpositive_multiplied(self):
        out = apply_repetition_penalty(np.array([-1.0, 0.0]), [0, 1], 2.0)
        assert out[0] == -2.0
        assert out[1] == 0.0

    def test_untouched_ids_unchanged(self):
        logits = np.array([5.0, -5.0, 1.0])
        out = apply_repetition_penalty(logits, [2], 2.0)
        np.testing.assert_array_equal(out[:2], logits[:2])
        assert out[2] == 0.5

    def test_input_not_mutated(self):
        logits = np.array([2.0, -2.0])
        apply_repetition_penalty(logits, [0, 1], 1.5)
        np.testing.assert_array_equal(logits, [2.0, -2.0])

    def test_matches_per_id_rule_bit_for_bit(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=VOCAB_SIZE) * 3
        logits[:5] = 0.0
        ids = rng.integers(0, VOCAB_SIZE, 60).tolist() + [0, 1, 2]
        expected = logits.copy()
        for i in set(ids):
            expected[i] = expected[i] / 1.3 if expected[i] > 0 else expected[i] * 1.3
        assert np.array_equal(apply_repetition_penalty(logits, ids, 1.3), expected)

    def test_bad_penalty_rejected(self):
        with pytest.raises(ValueError):
            apply_repetition_penalty(np.array([1.0]), [0], 0.5)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf")])
    def test_non_finite_penalty_rejected(self, penalty):
        # NaN used to return [nan nan 3.] here and inf [0, -inf, 3]
        with pytest.raises(ValueError, match="finite"):
            apply_repetition_penalty(np.array([1.0, -2.0, 3.0]), [0, 1], penalty)


class TestGenerate:
    def test_greedy_follows_script(self):
        model = ScriptedModel("hello")
        out = generate(model, "", GenerationParams(max_new_tokens=5))
        assert out.text == "hello"
        assert not out.truncated

    def test_zero_budget_returns_empty(self):
        out = generate(ScriptedModel("x"), "p", GenerationParams(max_new_tokens=0))
        assert out.text == ""
        assert out.token_ids == []

    def test_stops_at_eos(self):
        model = LoopingModel(top=1.0, eos=2.0)
        out = generate(model, "p", GenerationParams(max_new_tokens=10))
        assert out.text == ""

    def test_penalty_breaks_repetition_loop(self):
        # unpenalized greedy repeats 'a' for the whole budget; a penalty
        # strong enough to push 'a' below EOS ends the loop after one step
        model = LoopingModel(top=2.0, eos=1.5)
        plain = generate(model, "p", GenerationParams(max_new_tokens=8))
        assert plain.text == "a" * 8
        penalized = generate(model, "p", GenerationParams(max_new_tokens=8,
                                                          repetition_penalty=1.5))
        assert penalized.text == "a"

    def test_greedy_deterministic_on_real_model(self):
        model = DecoderModel(ModelConfig(d_model=32, n_heads=2, n_layers=2,
                                         max_seq_len=64, seed=2))
        params = GenerationParams(max_new_tokens=12)
        a = generate(model, "Once", params)
        b = generate(model, "Once", params)
        assert a.text == b.text and a.token_ids == b.token_ids

    def test_sampling_seed_reproducible(self):
        model = DecoderModel(ModelConfig(d_model=32, n_heads=2, n_layers=2,
                                         max_seq_len=64, seed=2))
        params = GenerationParams(temperature=1.0, max_new_tokens=8)
        a = generate(model, "Once", params, seed=5)
        b = generate(model, "Once", params, seed=5)
        c = generate(model, "Once", params, seed=6)
        assert a.token_ids == b.token_ids
        assert a.token_ids != c.token_ids

    def test_temperature_never_samples_masked_tokens(self):
        row = np.full(VOCAB_SIZE, -1e9)   # EOS too, so every request runs its whole budget
        allowed = [ord(c) for c in "abc"]
        row[allowed] = [0.0, 1.0, 2.0]
        for seed in range(10):
            out = generate(RowModel(row), "p", GenerationParams(temperature=1.0, max_new_tokens=32), seed=seed)
            assert len(out.token_ids) == 32 and set(out.token_ids) <= set(allowed)

    @pytest.mark.parametrize("temperature", [1e-310, 1e-308])
    def test_temperature_too_small_for_the_logits_is_one_value_error(self, temperature):
        # at 1e-310, 1.5 / T overflows float64 (used to warn, then fail in rng.choice on NaN
        # probabilities); at 1e-308 the scaled logits fit but their spread of 3e308 does not (used to warn)
        row = np.zeros(VOCAB_SIZE)
        row[[97, 98]] = [1.5, -1.5]
        with pytest.raises(ValueError, match=f"temperature {temperature} is too small: logits / temperature overflows"):
            generate(RowModel(row), "p", GenerationParams(temperature=temperature, max_new_tokens=1))

    def test_tiny_temperature_that_fits_samples_the_argmax(self):
        greedy = generate(ScriptedModel("ab"), "p", GenerationParams(max_new_tokens=4))
        tiny = generate(ScriptedModel("ab"), "p", GenerationParams(temperature=1e-300, max_new_tokens=4))
        assert tiny.token_ids == greedy.token_ids

    def test_truncation_flagged_on_overflow(self):
        model = ScriptedModel("ab")
        model.max_seq_len = 8
        out = generate(model, "x" * 20, GenerationParams(max_new_tokens=4))
        assert out.truncated
        assert len(out.token_ids) == 4

def full_context_decode(model, prompt, n, penalty, temperature=0.0, seed=0):
    """n tokens, with no stop token, rerunning the whole (window-clipped) context every step and
    penalizing the whole generated list: greedy at temperature 0, else sampled from ``seed``."""
    ids, out, rng = [BOS] + list(prompt.encode("utf-8")), [], np.random.default_rng(seed)
    for _ in range(n):
        row = apply_repetition_penalty(model.logits(ids[-model.max_seq_len:])[-1], out, penalty)
        if temperature == 0.0:
            nxt = int(np.argmax(row))
        else:
            p = np.exp(log_softmax(row / temperature))
            nxt = int(rng.choice(len(p), p=p))
        out.append(nxt)
        ids.append(nxt)
    return out


class TestCachedGenerate:
    @pytest.fixture(scope="class")
    def model(self):
        return adapted_model(seed=9)

    @pytest.mark.parametrize("prompt_len, n, penalty", [(5, 24, 1.0), (120, 16, 1.05), (500, 20, 1.0)])
    def test_matches_full_context_greedy(self, model, prompt_len, n, penalty):
        prompt = ("the cat sat on a mat. " * 30)[:prompt_len]
        params = GenerationParams(max_new_tokens=n, repetition_penalty=penalty, stop_token=-1)
        out = generate(model, prompt, params)
        assert out.token_ids == full_context_decode(model, prompt, n, penalty)
        assert out.truncated == (1 + prompt_len + n - 1 > model.max_seq_len)

    @pytest.mark.parametrize("prompt_len, n", [(30, 24), (500, 20)])
    def test_sampling_matches_full_context_sampling(self, model, prompt_len, n):
        # temperature 0.8 and penalty 1.3: the loop penalizes the whole generated list at every step
        prompt = ("the cat sat on a mat. " * 30)[:prompt_len]
        params = GenerationParams(temperature=0.8, max_new_tokens=n, repetition_penalty=1.3, stop_token=-1)
        out = generate(model, prompt, params, seed=7)
        assert out.token_ids == full_context_decode(model, prompt, n, 1.3, temperature=0.8, seed=7)

    def test_feeds_only_the_new_token_until_the_window_fills(self, model, monkeypatch):
        fed = []
        real = model.logits

        def spy(ids, cache=None, last=None):
            fed.append((len(ids), None if cache is None else "empty" if cache[0] is None else "filled", last))
            return real(ids, cache, last)

        monkeypatch.setattr(model, "logits", spy)
        generate(model, "x" * 505, GenerationParams(max_new_tokens=10, stop_token=-1))
        # 506 prompt tokens in one pass, six single tokens up to 512, then the full window again on a
        # fresh cache; every call asks for the next-token row only
        assert fed == [(506, "empty", 1)] + [(1, "filled", 1)] * 6 + [(512, "empty", 1)] * 3

    def test_steps_grow_one_store_until_the_window_fills(self, model, monkeypatch):
        keys = []   # layer 0's cached keys after each call; they keep each store alive
        real = model.logits

        def spy(ids, cache=None, last=None):
            rows = real(ids, cache, last)
            keys.append(cache[0][0])
            return rows

        monkeypatch.setattr(model, "logits", spy)
        generate(model, "x" * 505, GenerationParams(max_new_tokens=10, stop_token=-1))
        assert [k.shape[2] for k in keys] == list(range(506, 513)) + [512] * 3
        # the prefill keeps its own keys; the first of six single tokens up to 512 moves them into one store that
        # the other five grow; past it each step starts afresh
        assert all(np.shares_memory(k, keys[1]) for k in keys[2:7]) and not np.shares_memory(keys[0], keys[1])
        assert not any(np.shares_memory(a, b) for i, a in enumerate(keys[7:]) for b in keys[:7 + i])

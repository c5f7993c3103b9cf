import pytest
from hypothesis import given, settings, strategies as st

from instruct_forge.tokenizer import BOS, EOS, PAD, VOCAB_SIZE, ByteTokenizer


@pytest.fixture
def tok():
    return ByteTokenizer()


def test_ascii_byte_identity(tok):
    assert tok.encode("A") == [65]


def test_utf8_multibyte(tok):
    assert tok.encode("é") == list("é".encode("utf-8")) == [195, 169]


def test_specials_layout():
    assert (BOS, EOS, PAD) == (256, 257, 258)
    assert VOCAB_SIZE == 259


def test_decode_skips_specials(tok):
    assert tok.decode([BOS, 104, 105, EOS, PAD]) == "hi"


def test_decode_out_of_range(tok):
    with pytest.raises(ValueError, match="out of range"):
        tok.decode([259])


def test_roundtrip_simple(tok):
    s = "Hello, 世界! 🎉"
    assert tok.decode(tok.encode(s)) == s


@settings(max_examples=1000, deadline=None)
@given(st.text())
def test_roundtrip_property(s):
    tok = ByteTokenizer()
    assert tok.decode(tok.encode(s)) == s

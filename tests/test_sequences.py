import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from czcp.sequences import (
    BinarySequence,
    SequenceFormatError,
    SequencePair,
    parse_pair,
    parse_sequence,
)

from conftest import random_pair, random_sequence, ref_accf, ref_aacs


def test_parse_basic():
    assert list(parse_sequence("+-")) == [1, -1]


def test_parse_table_seed():
    assert list(parse_sequence("+----+")) == [1, -1, -1, -1, -1, 1]


def test_parse_rejects_bad_character():
    with pytest.raises(SequenceFormatError) as exc:
        parse_sequence("+a-")
    assert exc.value.position == 1


def test_parse_rejects_empty():
    with pytest.raises(SequenceFormatError):
        parse_sequence("")
    with pytest.raises(SequenceFormatError):
        parse_sequence("\n")


def test_parse_allows_trailing_newline():
    assert parse_sequence("+-+\n") == parse_sequence("+-+")


def _parse_oracle(text):
    """parse_sequence one character at a time: the values, or the error's (message, position)."""
    stripped = text.rstrip("\n")
    if not stripped:
        return "empty sequence", 0
    values = []
    for i, ch in enumerate(stripped):
        if ch not in "+-":
            return f"invalid character {ch!r} at position {i} (expected '+' or '-')", i
        values.append(1 if ch == "+" else -1)
    return values


# code points past 255 that read as '+' or '-' if wrapped instead of clamped
# (U+012B, U+012D, U+102B), lone surrogates, and NUL, '\r' and '\n'
_NOT_SIGNS = st.sampled_from(
    ["x", "\r", "\n", "\0", " ", "é", "ÿ", "Ā", "ī", "ĭ", "\u102b", "\ud800", "\udc2b"]
) | st.characters()


@settings(max_examples=500, deadline=None)
@given(
    signs=st.lists(st.sampled_from("+-"), max_size=40),
    others=st.lists(st.tuples(st.integers(0, 40), _NOT_SIGNS), max_size=3),
)
def test_parse_matches_per_character_definition(signs, others):
    for at, ch in others:
        signs.insert(at, ch)
    text = "".join(signs)
    want = _parse_oracle(text)
    try:
        got = parse_sequence(text)
    except SequenceFormatError as exc:
        assert (str(exc), exc.position) == want, text
    else:
        assert list(got) == want, text
        assert got.values.dtype == np.int8 and not got.values.flags.writeable


def test_format_basic():
    assert BinarySequence([1, -1]).to_text() == "+-"
    assert str(parse_sequence("+-+++-")) == "+-+++-"


def test_parse_format_round_trip(rng):
    for _ in range(1000):
        s = random_sequence(rng, rng.randint(1, 40))
        assert parse_sequence(s.to_text()) == s


def test_elements_validated():
    with pytest.raises(ValueError):
        BinarySequence([1, 0, -1])
    with pytest.raises(ValueError):
        BinarySequence([])


@pytest.mark.parametrize(
    "values",
    [np.array([255, 1]), np.array([257, -1]), [1.5, -1], [0, 1]],
    ids=["255", "257", "1.5", "0"],
)
def test_elements_checked_before_the_int8_cast(values):
    # int8 wraps 255 to -1 and 257 to 1, and truncates 1.5 to 1
    with pytest.raises(ValueError, match=r"elements must be \+1 or -1"):
        BinarySequence(values)


def test_reverse():
    assert str(parse_sequence("+--").reverse()) == "--+"


def test_reverse_involution(rng):
    for _ in range(50):
        s = random_sequence(rng, rng.randint(1, 30))
        assert s.reverse().reverse() == s


def test_reverse_preserves_autocorrelation(rng):
    # brute-force check at every shift
    for _ in range(100):
        s = random_sequence(rng, rng.randint(1, 24))
        r = list(s.reverse())
        v = list(s)
        for u in range(len(s)):
            assert ref_accf(v, v, u) == ref_accf(r, r, u)


def test_negate():
    assert str(parse_sequence("+-").negate()) == "-+"


def test_negate_involution(rng):
    for _ in range(50):
        s = random_sequence(rng, rng.randint(1, 30))
        assert s.negate().negate() == s


def test_negation_leaves_aacs_alone(rng):
    for _ in range(100):
        p = random_pair(rng, rng.randint(1, 20))
        q = SequencePair(p.first.negate(), p.second)
        for u in range(p.n):
            assert ref_aacs(p, u) == ref_aacs(q, u)


def test_reverse_negate_commute(rng):
    for _ in range(50):
        s = random_sequence(rng, rng.randint(1, 30))
        assert s.reverse().negate() == s.negate().reverse()
        # unchecked, but equal to the checked sequences, int8 and read-only
        values = np.array(list(s))
        for got, want in ((s.reverse(), values[::-1]), (s.negate(), -values)):
            assert got == BinarySequence(want)
            assert got.values.dtype == np.int8
            with pytest.raises(ValueError):
                got.values[0] = 1


def test_reverse_negate_leave_source_alone(rng):
    for _ in range(50):
        s = random_sequence(rng, rng.randint(1, 30))
        before = list(s)
        s.reverse(), s.negate()
        assert list(s) == before
        with pytest.raises(ValueError):
            s.values[0] = 1


def test_pair_requires_equal_lengths():
    with pytest.raises(ValueError):
        SequencePair(parse_sequence("+-"), parse_sequence("+-+"))


def test_parse_pair():
    p = parse_pair("+-\n--\n")
    assert p.texts() == ("+-", "--")


def test_parse_pair_wrong_line_count():
    with pytest.raises(SequenceFormatError):
        parse_pair("+-\n")
    with pytest.raises(SequenceFormatError):
        parse_pair("+-\n--\n++\n")


def test_sequence_hash_and_eq(rng):
    s = random_sequence(rng, 12)
    t = BinarySequence(list(s))
    assert s == t and hash(s) == hash(t)
    assert s != s.negate()

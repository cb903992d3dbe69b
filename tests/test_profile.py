import pytest
from hypothesis import given, strategies as st

from hookcomb import (
    EmptyWord,
    InvalidLetter,
    MustEndWithN,
    MustStartWithE,
    ProfileWord,
    conjugate,
    enumerate_by_size,
    from_profile,
    g_class,
    make_partition,
    to_profile,
)
from hookcomb.partitions import parts_are_member
from hookcomb.profile import block_word_bits, parts_from_word_bits

FIG_WORD = "ENNNEEENEENNNEEENN"
FIG_PARTS = (9, 9, 6, 6, 6, 4, 1, 1, 1)


def all_words(length):
    # first letter E, last letter N, middle letters free
    for bits in range(1 << (length - 2)):
        yield ProfileWord(length, (bits << 1) | (1 << (length - 1)))


# ---------------------------------------------------------------------------
# encoding and decoding


def test_to_profile_examples():
    assert to_profile(make_partition([2, 2, 1])).text == "ENENN"
    assert to_profile(make_partition([1])).text == "EN"
    assert to_profile(make_partition(FIG_PARTS)).text == FIG_WORD


def test_from_profile_examples():
    assert from_profile("ENENN").parts == (2, 2, 1)
    assert from_profile("EN").parts == (1,)
    assert from_profile(FIG_WORD).parts == FIG_PARTS


def test_from_profile_errors():
    with pytest.raises(MustStartWithE):
        from_profile("NEN")
    with pytest.raises(MustEndWithN):
        from_profile("ENE")
    with pytest.raises(EmptyWord):
        from_profile("")
    with pytest.raises(InvalidLetter) as exc:
        from_profile("EXN")
    assert exc.value.index == 1


def test_roundtrip_partitions_up_to_20():
    for p in enumerate_by_size(20):
        assert from_profile(to_profile(p)) == p


def test_roundtrip_words_up_to_12():
    for length in range(2, 13):
        for w in all_words(length):
            assert to_profile(from_profile(w)) == w


def test_letter_counts():
    for p in enumerate_by_size(20):
        w = to_profile(p)
        text = w.text
        assert text.count("E") == p.parts[0]
        assert text.count("N") == p.length
        assert len(w) == p.perimeter + 1


def test_conjugation_reverses_and_swaps():
    swap = str.maketrans("EN", "NE")
    for p in enumerate_by_size(20):
        left = to_profile(conjugate(p)).text
        right = to_profile(p).text[::-1].translate(swap)
        assert left == right


@given(st.integers(min_value=2, max_value=18), st.data())
def test_random_word_roundtrip(length, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (length - 2)) - 1))
    w = ProfileWord(length, (bits << 1) | (1 << (length - 1)))
    assert to_profile(from_profile(w)) == w


# ---------------------------------------------------------------------------
# block grammar


def test_decompose_figure_word():
    # the figure word's blocks: an initial block E N^3, then middle blocks of types I, II, I
    assert block_word_bits(3, (0, 3, 1), 2) == (18, ProfileWord.from_text(FIG_WORD).bits)
    assert parts_from_word_bits(*block_word_bits(3, (0, 3, 1), 2)) == FIG_PARTS


def test_decompose_trivial_word():
    # EN is the empty block sequence: no initial N's and no middle blocks
    assert ProfileWord(*block_word_bits(0, (), 2)).text == "EN"


def test_blocks_to_partition_examples():
    assert parts_from_word_bits(*block_word_bits(3, (0, 3, 1), 2)) == FIG_PARTS
    assert parts_from_word_bits(*block_word_bits(0, (), 1)) == (1,)
    assert ProfileWord(*block_word_bits(0, (0,), 2)).text == "EEEEN"
    assert parts_from_word_bits(*block_word_bits(0, (0,), 2)) == (4,)
    assert parts_are_member((4,), g_class(2))


def reference_decode(text):
    # letter by letter: each N closes a part as wide as the E's read so far
    parts = []
    width = 0
    for ch in text:
        if ch == "N":
            parts.append(width)
        else:
            width += 1
    return tuple(reversed(parts))


def test_parts_from_word_bits_against_reference_decoder():
    for length in range(2, 17):
        for w in all_words(length):
            assert parts_from_word_bits(w.length, w.bits) == reference_decode(w.text)

import pytest
from hypothesis import given, strategies as st

from hookcomb import (
    BlockDecomposition,
    EmptyWord,
    InvalidLetter,
    MustEndWithN,
    MustStartWithE,
    NotInClass,
    ProfileWord,
    blocks_to_partition,
    blocks_to_word,
    conjugate,
    decompose_blocks,
    enumerate_by_size,
    from_profile,
    g_class,
    is_member,
    make_partition,
    to_profile,
)
from hookcomb.profile import parts_from_word_bits

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
    b = decompose_blocks(FIG_WORD, 2)
    assert b.initial_ns == 3
    assert b.trailing_ns == (0, 3, 1)  # types I, II, I
    assert blocks_to_word(b, 2).text == FIG_WORD
    assert blocks_to_partition(b, 2).parts == FIG_PARTS


def test_decompose_trivial_word():
    b = decompose_blocks("EN", 2)
    assert b.initial_ns == 0
    assert b.trailing_ns == ()


def test_decompose_rejects_pure_column():
    # (7) encodes as EEEEEEEN; a run of 7 E's cannot split as 1 + blocks
    with pytest.raises(NotInClass) as exc:
        decompose_blocks("EEEEEEEN", 2)
    assert exc.value.position == 4


def test_blocks_to_partition_examples():
    fig = BlockDecomposition(3, (0, 3, 1))
    assert blocks_to_partition(fig, 2).parts == FIG_PARTS
    assert blocks_to_partition(BlockDecomposition(0, ()), 1).parts == (1,)
    single = BlockDecomposition(0, (0,))
    assert blocks_to_word(single, 2).text == "EEEEN"
    assert blocks_to_partition(single, 2).parts == (4,)
    assert is_member(make_partition([4]), g_class(2))


def test_block_counts_must_be_non_negative():
    with pytest.raises(ValueError):
        BlockDecomposition(0, (-1,))
    with pytest.raises(ValueError):
        BlockDecomposition(-1, ())


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_parser_agrees_with_membership(d):
    # the grammar parser and the arithmetic predicate are independent
    # implementations and must accept exactly the same words
    for length in range(2, 15):
        for w in all_words(length):
            member = is_member(from_profile(w), g_class(d))
            try:
                b = decompose_blocks(w, d)
            except NotInClass:
                assert not member, f"parser rejected member word {w.text} (d={d})"
            else:
                assert member, f"parser accepted non-member word {w.text} (d={d})"
                assert blocks_to_word(b, d) == w


def test_decompose_requires_positive_d():
    with pytest.raises(ValueError):
        decompose_blocks("EN", 0)


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

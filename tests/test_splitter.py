import copy
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatlm.splitter import (
    BYTE_BOS,
    BYTE_EOS,
    DEFAULT_MAX_WORD_BYTES,
    IncrementalSplitterState,
    SplitError,
    WordSpan,
    boundary_divergence,
    incremental_word_index,
    split,
    stream,
    word_index_of_bytes,
)
from hatlm.wordbreak import word_boundaries

from conftest import DATA, POOLS, TEST_DATA, random_utf8_strings

RI = [chr(c) for c in range(0x1F1E6, 0x1F200)]  # regional indicators


def chunks(s: str, **kw) -> list[str]:
    data = s.encode("utf-8")
    return [c.decode("utf-8") for c in split(data, **kw).chunks(data)]


# ---------------------------------------------------------------------------
# rule unit tests

def test_camel_case_opens_chunk():
    assert chunks("FooBar") == ["Foo", "Bar"]


def test_empty_input():
    assert chunks("") == []


def test_whitespace_merges_forward_and_punct_backward():
    assert chunks("Hello, world!") == ["Hello,", " world!"]


def test_math_symbols_are_isolated():
    assert unicodedata.category("+") == "Sm"
    assert chunks("a+b") == ["a", "+", "b"]
    assert chunks("x≤y") == ["x", "≤", "y"]


def test_acronym_run_stays_joined():
    # only lowercase->uppercase transitions split
    assert chunks("HTTPServer") == ["HTTPServer"]
    assert chunks("parseURLNow") == ["parse", "URLNow"]


def test_trailing_whitespace_run_is_own_chunk():
    assert chunks("word   ") == ["word", "   "]


def test_leading_whitespace_merges_into_first_word():
    assert chunks("  lead") == ["  lead"]


def test_punctuation_only_text():
    assert chunks("!!!") == ["!", "!", "!"]


def test_punctuation_run_merges_into_word():
    assert chunks("done?!...") == ["done?!..."]


def test_punct_after_whitespace_does_not_merge_backward():
    assert chunks("a . b") == ["a", " .", " b"]


def test_numeric_midnum_stays_single_word():
    assert chunks("3.14") == ["3.14"]
    assert chunks("1,234.56") == ["1,234.56"]


def test_max_word_bytes_cap():
    out = chunks("a" * 20, max_word_bytes=8)
    assert out == ["a" * 8, "a" * 8, "a" * 4]


def test_cap_respects_codepoint_boundaries():
    # 3-byte codepoints with a 8-byte cap: force-split at 6 bytes, not 8
    s = "你" * 5
    out = chunks(s, max_word_bytes=8)
    assert all(len(c.encode()) <= 8 for c in out)
    assert "".join(out) == s


def test_invalid_utf8_rejected_with_offset():
    with pytest.raises(SplitError) as exc:
        split(b"ab\xff")
    assert exc.value.offset == 2


@pytest.mark.parametrize("sentinel", [BYTE_BOS, BYTE_EOS])
def test_sentinel_bytes_are_invalid_utf8(sentinel):
    with pytest.raises(SplitError):
        split(bytes([sentinel]))


# ---------------------------------------------------------------------------
# word_index

def test_word_index_examples():
    assert word_index_of_bytes(b"FooBar") == [0, 0, 0, 1, 1, 1]
    assert word_index_of_bytes(b"x") == [0]
    assert word_index_of_bytes(b"Hello, world!") == [0] * 6 + [1] * 7


def test_word_index_monotone_and_aligned():
    data = "The 世界 is 42.5% bigger".encode()
    idx = word_index_of_bytes(data)
    spans = split(data).spans
    assert idx[0] == 0
    assert all(a <= b for a, b in zip(idx, idx[1:]))
    for j, s in enumerate(spans):
        assert all(idx[i] == j for i in range(s.start, s.end))


# ---------------------------------------------------------------------------
# golden UAX#29 conformance

def test_uax29_golden_file():
    lines = (TEST_DATA / "uax29_golden.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 500
    for line in lines:
        text, _, expect = line.partition("\t")
        data = text.encode("utf-8")
        bounds = word_boundaries(text)
        # codepoint offsets -> byte offsets
        cp2byte = [0]
        for ch in text:
            cp2byte.append(cp2byte[-1] + len(ch.encode("utf-8")))
        got = ",".join(f"{cp2byte[bounds[i]]}:{cp2byte[bounds[i + 1]]}"
                       for i in range(len(bounds) - 1))
        assert got == expect, f"segmentation mismatch for {text!r}"
        assert b"".join(data[a:b] for a, b in
                        (tuple(map(int, p.split(":"))) for p in expect.split(","))) == data


# ---------------------------------------------------------------------------
# properties

@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
@settings(max_examples=300, deadline=None)
def test_losslessness_and_codepoint_safety(s):
    data = s.encode("utf-8")
    result = split(data)
    parts = result.chunks(data)
    assert b"".join(parts) == data
    for span, part in zip(result.spans, parts):
        assert isinstance(span, WordSpan) and span.start < span.end
        part.decode("utf-8")  # boundary inside a codepoint would explode
        assert len(part) <= 128


def test_losslessness_mixed_corpus():
    for s in random_utf8_strings(500, seed=99):
        data = s.encode("utf-8")
        assert b"".join(split(data).chunks(data)) == data


def test_regional_indicator_run_splits_into_flag_pairs():
    run = "".join(RI[i % len(RI)] for i in range(2001))
    data = run.encode()
    assert [(s.start, s.end) for s in split(data).spans] == \
        [(i, min(i + 8, len(data))) for i in range(0, len(data), 8)]
    assert word_boundaries(run) == list(range(0, 2001, 2)) + [2001]


def test_split_deterministic():
    data = "Ein Satz, 中文 words and \U0001f680!".encode()
    assert split(data).spans == split(data).spans


# ---------------------------------------------------------------------------
# incremental splitter

def test_push_hello_space_closes_hello():
    st_ = IncrementalSplitterState()
    events = []
    for b in b"Hello ":
        events.extend(st_.push_byte(b))
    assert [(e.start, e.end) for e in events] == [(0, 5)]
    assert st_.pending == b" "


def test_push_foo_b_closes_foo():
    st_ = IncrementalSplitterState()
    per_byte = [st_.push_byte(b) for b in b"FooB"]
    assert [len(e) for e in per_byte] == [0, 0, 0, 1]
    assert (per_byte[3][0].start, per_byte[3][0].end) == (0, 3)


def test_push_single_byte_no_event():
    st_ = IncrementalSplitterState()
    assert st_.push_byte(ord("a")) == []
    assert st_.pending == b"a"
    assert st_.closed_words == 0


def test_push_invalid_continuation_rejected():
    st_ = IncrementalSplitterState()
    st_.push_byte(0xC3)
    with pytest.raises(SplitError):
        st_.push_byte(0x41)  # not a continuation byte


def test_push_rejects_lead_0xfe():
    with pytest.raises(SplitError):
        IncrementalSplitterState().push_byte(BYTE_BOS)


def test_cap_closes_incrementally():
    _, events, _ = stream(b"a" * 20, 8)
    assert [(e.start, e.end) for e in events] == [(0, 8), (8, 16)]


def push_error_offset(data: bytes) -> tuple[int | None, IncrementalSplitterState]:
    """Push `data` byte by byte: the offset of the first SplitError (None if
    every push succeeds), and the state before the failing push."""
    st_ = IncrementalSplitterState(max_word_bytes=8)
    for b in data:
        try:
            st_.push_byte(b)
        except SplitError as exc:
            return exc.offset, st_
    return None, st_


@given(st.binary(max_size=24) | st.lists(st.sampled_from(
    [b"a", b" ", b"\xc3", b"\xa9", b"\xe0", b"\xed", b"\xf0", b"\xf4", b"\x80", b"\x8f",
     b"\x9f", b"\xa0", b"\xbf", b"\xc0", b"\xf5", bytes([BYTE_BOS]), bytes([BYTE_EOS])]),
    max_size=12).map(b"".join))
@example(b"\xc3\x41")
@example(b"ab\xf0\x90\x80\xfe")
@settings(max_examples=400, deadline=None)
def test_push_rejects_where_split_does(data):
    offset, st_ = push_error_offset(data)
    try:
        split(data)
        expect = None
    except SplitError as exc:
        expect = exc.offset
    if offset is None and st_.gate.need:
        # a trailing incomplete codepoint is in flight, not an error yet
        lead = len(data) - 1
        while data[lead] < 0xC0:
            lead -= 1
        assert expect == lead
    else:
        assert offset == expect


def completable(data: bytes) -> bool:
    """Whether appending continuation bytes can make `data` valid UTF-8."""
    return any(_decodes(data + bytes([c]) * k) for k in range(4) for c in (0x80, 0x90, 0xA0, 0xBF))


def _decodes(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@given(st.text(max_size=6) | st.lists(st.sampled_from([c for pool in POOLS for c in pool]),
                                      max_size=8).map("".join), st.integers(0, 3))
@example("\ud7ff", 2)        # 0xED: no surrogates
@example("\u0800", 2)        # 0xE0: no overlongs
@example("\U00010000", 3)    # 0xF0: no overlongs
@example("\U0010ffff", 3)    # 0xF4: nothing above U+10FFFF
@settings(max_examples=100, deadline=None)
def test_gate_admits_exactly_what_push_accepts(text, cut):
    # after any valid prefix, mid-codepoint ones included, what sampling may
    # pick is what the splitter accepts and what can still become UTF-8;
    # the 0xFF end sentinel is never text
    data = text.encode()
    prefix = data[:max(0, len(data) - cut)]
    st_, _, _ = stream(prefix, 8)
    for b in range(0xFF):
        try:
            copy.deepcopy(st_).push_byte(b)
            accepted = True
        except SplitError:
            accepted = False
        assert st_.gate.admits(b) == accepted == completable(prefix + bytes([b])), \
            f"byte {b:#x} after {prefix!r}"
    with pytest.raises(SplitError):
        copy.deepcopy(st_).push_byte(BYTE_EOS)


def assert_matches_whole_buffer(data: bytes, max_word_bytes: int) -> None:
    """Push `data` byte by byte and compare each push with the whole-buffer
    rule: every completed codepoint re-splits the whole prefix."""
    st_ = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    closed = bad = 0
    for i, b in enumerate(data):
        events = []
        if i + 1 == len(data) or not 0x80 <= data[i + 1] <= 0xBF:
            spans = split(data[:i + 1], max_word_bytes).spans
            n = len(spans) - 1
            bad += max(0, closed - n)
            events = [(s.start, s.end) for s in spans[closed:n]]
            closed = max(closed, n)
        assert [(e.start, e.end) for e in st_.push_byte(b)] == events, f"byte {i}"
        assert (st_.closed_words, st_._inconsistencies) == (closed, bad), f"byte {i}"


# Extend, ZWJ, Format, CR LF, mid-word punctuation, and the Mid-class math symbol
MARKS = ["\u0301", "\u200d", "\u00ad", "\u200b", "\r\n", "\r", "\u2044", "'", ":", "\"", "aB"]

pieces = st.one_of(
    st.sampled_from([c for pool in POOLS for c in pool]),
    st.sampled_from(MARKS),
    st.lists(st.sampled_from(RI), min_size=1, max_size=9).map("".join),
    st.tuples(st.sampled_from("aZ7é你"), st.integers(2, 70)).map(lambda t: t[0] * t[1]),
)


@given(st.lists(pieces, max_size=24).map("".join), st.sampled_from([4, 5, 8, 16, 128]))
@example("1\u2044\u03012 ab cd ef", 128)  # WB11 looks back past the fraction slash
@example("   \u00b8\u0301\u0301aB  ", 4)  # a cap cut before a combining mark
@settings(max_examples=200, deadline=None)
def test_streaming_matches_whole_buffer_resplit(s, max_word_bytes):
    assert_matches_whole_buffer(s.encode(), max_word_bytes)


@pytest.mark.parametrize("max_word_bytes", [16, 128])
def test_streaming_buffer_stays_bounded(max_word_bytes):
    text = (DATA / "english_sample.txt").read_bytes()
    data = (text * (16384 // len(text) + 1))[:16384]
    st_ = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    events = []
    for b in data:
        events.extend(st_.push_byte(b))
        assert len(st_.buf) <= 4 * max_word_bytes
    assert [(e.start, e.end) for e in events] == \
        [(s.start, s.end) for s in split(data, max_word_bytes).spans[:-1]]
    assert st_._inconsistencies == 0


# ---------------------------------------------------------------------------
# prefix consistency: zero on ASCII, catalogued elsewhere

ASCII_CORPUS = (
    b"The quick brown fox jumps over the lazy dog. It was a dark and stormy "
    b"night; rain fell in torrents, except at intervals. Call 555-0192 now! "
    b"Prices: $3.14, $1,234.56 (tax incl.). CamelCaseWords and snake_case "
    b"mix with e.g. abbreviations etc. -- and trailing spaces   "
)


def test_prefix_consistency_ascii_is_exact():
    for end in range(len(ASCII_CORPUS) + 1):
        prefix = ASCII_CORPUS[:end]
        closed = max(0, len(split(prefix).spans) - 1)
        st_, _, _ = stream(prefix, DEFAULT_MAX_WORD_BYTES)
        assert st_.closed_words == closed, f"prefix {prefix[-12:]!r}"
    count, offsets = boundary_divergence(ASCII_CORPUS)
    assert count == 0 and offsets == []


def test_boundary_divergence_catalogued_on_multibyte():
    # a multi-byte math symbol proves the boundary only on its final byte;
    # the two in-flight bytes are assigned to the previous chunk
    count, offsets = boundary_divergence("a∑b".encode())
    assert count == 2 and offsets == [1, 2]


def test_divergence_catalogue_mixed_corpus():
    findings = []
    for s in random_utf8_strings(120, seed=7, max_len=30):
        data = s.encode()
        count, offsets = boundary_divergence(data)
        if count:
            findings.append((s, count, offsets[:4]))
    # multi-byte boundary codepoints make nonzero divergence expected here;
    # the point is the metric runs and reports rather than hiding them
    total_bytes = sum(len(s.encode()) for s in random_utf8_strings(120, seed=7, max_len=30))
    frac = sum(c for _, c, _ in findings) / max(1, total_bytes)
    assert frac < 0.5, f"divergence fraction suspiciously high: {frac}"


def test_incremental_word_index_matches_full_on_ascii():
    data = b"plain ascii, nothing fancy here."
    assert incremental_word_index(data) == word_index_of_bytes(data)

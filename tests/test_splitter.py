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
    split,
    stream,
)
from hatlm.wordbreak import CLASS, IGNORABLE, PROPS, word_boundaries

from conftest import (DATA, POOLS, TEST_DATA, boundary_divergence, random_utf8_strings,
                      word_index_of_bytes)

RI = [chr(c) for c in range(0x1F1E6, 0x1F200)]  # regional indicators


def chunks(s: str, **kw) -> list[str]:
    data = s.encode("utf-8")
    return [data[a:e].decode("utf-8") for a, e in split(data, **kw)]


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
    spans = split(data)
    assert idx[0] == 0
    assert all(a <= b for a, b in zip(idx, idx[1:]))
    for j, (a, e) in enumerate(spans):
        assert all(idx[i] == j for i in range(a, e))


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
    spans = split(data)
    parts = [data[a:e] for a, e in spans]
    assert b"".join(parts) == data
    for (a, e), part in zip(spans, parts):
        assert a < e
        part.decode("utf-8")  # boundary inside a codepoint would explode
        assert len(part) <= 128


def test_losslessness_mixed_corpus():
    for s in random_utf8_strings(500, seed=99):
        data = s.encode("utf-8")
        assert b"".join(data[a:e] for a, e in split(data)) == data


def test_regional_indicator_run_splits_into_flag_pairs():
    run = "".join(RI[i % len(RI)] for i in range(2001))
    data = run.encode()
    assert split(data) == [(i, min(i + 8, len(data))) for i in range(0, len(data), 8)]
    assert word_boundaries(run) == list(range(0, 2001, 2)) + [2001]


def test_split_deterministic():
    data = "Ein Satz, 中文 words and \U0001f680!".encode()
    assert split(data) == split(data)


# ---------------------------------------------------------------------------
# incremental splitter

def test_push_hello_space_closes_hello():
    st_ = IncrementalSplitterState()
    events = []
    for b in b"Hello ":
        events.extend(st_.push_byte(b))
    assert events == [(0, 5)]
    assert st_.buf == b" "


def test_push_foo_b_closes_foo():
    st_ = IncrementalSplitterState()
    per_byte = [st_.push_byte(b) for b in b"FooB"]
    assert [len(e) for e in per_byte] == [0, 0, 0, 1]
    assert per_byte[3] == [(0, 3)]


def test_push_single_byte_no_event():
    st_ = IncrementalSplitterState()
    assert st_.push_byte(ord("a")) == []
    assert st_.buf == b"a"


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
    assert events == [(0, 8), (8, 16)]


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


# Unicode White_Space=Yes (str.isspace also matches 0x1C-0x1F, which are not)
WHITE_SPACE = frozenset(chr(c) for c in [*range(0x09, 0x0E), 0x20, 0x85, 0xA0, 0x1680,
                                         *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F,
                                         0x205F, 0x3000])


def reference_spans(data: bytes, max_word_bytes: int) -> list[tuple[int, int]]:
    """The splitting rules applied one after another over the whole text,
    with `unicodedata` and the UAX#29 segments (which the goldens check):
    the reference for the engine that `split` runs."""
    text = data.decode()
    offs = [0]
    for ch in text:
        offs.append(offs[-1] + len(ch.encode()))
    cat = [unicodedata.category(ch) for ch in text]
    # 1-2: segments, cut at a lowercase->uppercase step and around math symbols
    cuts = sorted(set(word_boundaries(text)) | {
        i for i in range(1, len(text))
        if "Sm" in (cat[i - 1], cat[i]) or (cat[i - 1], cat[i]) == ("Ll", "Lu")})
    # 3: a punctuation piece merges into the word chunk before it
    merged = []   # [start, end, kind]
    for a, b in zip(cuts, cuts[1:]):
        kind = ("space" if all(c in WHITE_SPACE for c in text[a:b]) else
                "punct" if all(c[0] == "P" for c in cat[a:b]) else "word")
        if kind == "punct" and merged and merged[-1][2] == "word":
            merged[-1][1] = b
        else:
            merged.append([a, b, kind])
    # 4: a whitespace run merges into the chunk after it
    chunks, run = [], None
    for a, b, kind in merged:
        if kind == "space":
            run = a if run is None else run
        else:
            chunks.append((a if run is None else run, b))
            run = None
    if run is not None:
        chunks.append((run, len(text)))
    # 5: the cap cuts at the last codepoint boundary within it
    spans = []
    for a, b in chunks:
        while offs[b] - offs[a] > max_word_bytes:
            hi = max(i for i in range(a, b) if offs[i] - offs[a] <= max_word_bytes)
            spans.append((offs[a], offs[hi]))
            a = hi
        spans.append((offs[a], offs[b]))
    return spans


def assert_matches_whole_buffer(data: bytes, max_word_bytes: int, exact: bool) -> None:
    """Push `data` byte by byte and compare each push with the whole-buffer
    rule: every completed codepoint re-splits the whole prefix, and every
    span of it but the last is closed.

    The engine closes a span only once no continuation can change it, which
    the rule does not check. Where the rule closes a span too early
    (`exact=False`, see `rule_is_exact`), the engine may close later than
    it, never earlier, and its closes are still the leading spans of the
    re-split."""
    st_ = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    closes, ruled = [], 0
    for i, b in enumerate(data):
        events = st_.push_byte(b)
        closes += events
        assert st_.buf == data[closes[-1][1] if closes else 0:i + 1], f"byte {i}"
        if i + 1 < len(data) and 0x80 <= data[i + 1] <= 0xBF:
            assert events == [], f"byte {i}"
            continue
        spans = split(data[:i + 1], max_word_bytes)
        if exact:
            assert len(spans) - 1 >= ruled, f"byte {i}: the rule took a close back"
            assert events == spans[ruled:len(spans) - 1], f"byte {i}"
            ruled = len(spans) - 1
        else:
            assert closes == spans[:len(closes)] and len(closes) < len(spans), f"byte {i}"


def rule_is_exact(s: str) -> bool:
    """Whether the whole-buffer rule closes only final spans of `s`.

    It does not where an Extend, Format or ZWJ codepoint could still join
    the open piece: after punctuation that holds a WB6/WB12 boundary open
    ("a:" then U+0301 is two chunks, until a letter makes one word of it),
    and in a run of connector punctuation, one segment under WB13a, whose
    cap cut the rule takes while the run could still become a word
    ("你__" at cap 4)."""
    return "__" not in s and not any(PROPS[ord(c)] & IGNORABLE for c in s)


# Extend, ZWJ, Format, CR LF, mid-word punctuation, and the Mid-class math symbol
MARKS = ["\u0301", "\u200d", "\u00ad", "\u200b", "\r\n", "\r", "\u2044", "'", ":", "\"", "aB"]

pieces = st.one_of(
    st.sampled_from([c for pool in POOLS for c in pool]),
    st.sampled_from(MARKS),
    st.lists(st.sampled_from(RI), min_size=1, max_size=9).map("".join),
    st.tuples(st.sampled_from("aZ7é你"), st.integers(2, 70)).map(lambda t: t[0] * t[1]),
)

# an ignorable after punctuation that WB6/7/11/12 may bridge, and U+FE0F
# after punctuation (it turns the punctuation into a word chunk)
MARKED_PUNCT = st.tuples(st.sampled_from(":.,_'\u05f4"),
                         st.sampled_from(["\ufe0f", "\u0301", "\u00ad"])).map("".join)
SHORT_PIECES = st.one_of(
    st.sampled_from([c for pool in POOLS for c in pool] + MARKS + list("_\u05f4")),
    MARKED_PUNCT,
    st.lists(st.sampled_from(RI), min_size=1, max_size=3).map("".join),
)
CAPS = st.sampled_from([4, 5, 8, 16, 128])


@given(st.lists(pieces, max_size=24).map("".join), CAPS)
@example("1\u2044\u03012 ab cd ef", 128)  # WB11 looks back past the fraction slash
@example("   \u00b8\u0301\u0301aB  ", 4)  # a cap cut before a combining mark
@example("a:\u0301b c d", 128)            # the rule closes "a", then "b" joins it
@example("x \u4f60\u4f60__ y", 4)          # the rule cuts "__" at the cap
@settings(max_examples=200, deadline=None)
def test_streaming_matches_whole_buffer_resplit(s, max_word_bytes):
    assert_matches_whole_buffer(s.encode(), max_word_bytes, rule_is_exact(s))


@given(st.lists(st.one_of(pieces.filter(rule_is_exact), st.sampled_from(list(":.,_'\u05f4"))),
                max_size=24).map("".join).filter(rule_is_exact), CAPS)
@example("abc: d.e, 1,2 3.4 '\u05d0\u05f4\u05d1", 4)
@settings(max_examples=100, deadline=None)
def test_streaming_matches_whole_buffer_without_ignorables(s, max_word_bytes):
    assert_matches_whole_buffer(s.encode(), max_word_bytes, True)


@given(st.lists(st.one_of(pieces, MARKED_PUNCT), max_size=24).map("".join), CAPS)
@example("a:\u0301b c d", 128)
@settings(max_examples=200, deadline=None)
def test_closes_are_the_leading_spans_of_the_split(s, max_word_bytes):
    # after every byte, whatever comes next: the closes so far are spans of
    # the whole text, and `buf` is the rest of the text pushed
    data = s.encode()
    spans = split(data, max_word_bytes)
    st_ = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    closes = []
    for i, b in enumerate(data):
        closes += st_.push_byte(b)
        assert closes == spans[:len(closes)], f"byte {i}"
        assert st_.buf == data[closes[-1][1] if closes else 0:i + 1], f"byte {i}"


@given(st.lists(st.one_of(pieces, MARKED_PUNCT), max_size=24).map("".join)
       | st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40), CAPS)
@example("\u4f60__\u0301 a:\u0301b \u05d0\u05f4\u05d1 1\u2044\u03012", 4)
@example("0.\ufe0f", 4)    # the text ends at a held boundary: its end releases it
@settings(max_examples=300, deadline=None)
def test_split_matches_reference(s, max_word_bytes):
    data = s.encode()
    assert split(data, max_word_bytes) == reference_spans(data, max_word_bytes)


def _representatives() -> list[str]:
    """One codepoint per distinct `PROPS` value: each in the Basic
    Multilingual Plane, plus a regional indicator, the one class without a
    codepoint there."""
    reps = {}
    for cp in [*range(0xD800), *range(0xE000, 0x10000), 0x1F1E6]:
        reps.setdefault(PROPS[cp], chr(cp))
    return list(reps.values())


REPRESENTATIVES = _representatives()
CONTINUATIONS = REPRESENTATIVES + [
    a + b for a in REPRESENTATIVES if PROPS[ord(a)] & IGNORABLE for b in REPRESENTATIVES]


def test_representatives_cover_every_word_break_class():
    assert {PROPS[ord(c)] & CLASS for c in REPRESENTATIVES} == set(range(19))


def final_closes(prefix: bytes, max_word_bytes: int) -> int:
    """Brute force: how many leading spans of the reference split of
    `prefix`, the last one aside, that of prefix + c keeps for every
    continuation c."""
    spans = reference_spans(prefix, max_word_bytes)
    k = max(0, len(spans) - 1)
    for c in CONTINUATIONS:
        if not k:
            break
        other = reference_spans(prefix + c.encode(), max_word_bytes)
        k = next((j for j in range(k) if other[j] != spans[j]), k)
    return k


@given(st.lists(SHORT_PIECES, max_size=10).map("".join), st.sampled_from([4, 5, 8, 128]))
@example("a:\u0301b c d", 128)
@example("\u4f60__ \u2044\u0301", 4)
@example("ab\u05f4\u0301\u0301cd", 4)
@example("\u4f60\u203f\u203f\u203f\u203f", 4)   # a cap cut at the start of a connector run
@example("abcd.\u0301\u0301\u0301e", 4)   # a cap cut at a held boundary
@example("1\u2044x", 128)   # the math cut decides the boundary WB12 would hold
# lowercase runs, which `stream` takes in one step up to each cap cut: across
# the cap several times, after a held boundary, after U+0301, after a camel
# cut, inside a merging chunk and at the end of the text
@example("x" + "a" * 20, 4)
@example("b" * 23, 5)
@example("q" * 40, 16)
@example("can'tgoodbye", 4)
@example("a\u0301bcdefghij", 4)
@example("aBcdefghij", 5)
@example("ab.cdefghij", 4)
@example("ab, cdefghij", 5)
@settings(max_examples=60, deadline=None)
def test_streaming_closes_exactly_what_is_final(s, max_word_bytes):
    data = s.encode()
    st_ = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    closes = []
    for i, b in enumerate(data):
        closes += st_.push_byte(b)
        if i + 1 == len(data) or not 0x80 <= data[i + 1] <= 0xBF:
            assert len(closes) == final_closes(data[:i + 1], max_word_bytes), f"byte {i}"
            assert stream(data[:i + 1], max_word_bytes)[1] == closes


@given(st.lists(st.one_of(pieces, MARKED_PUNCT), max_size=16).map("".join)
       .map(str.encode) | st.binary(max_size=24),
       st.integers(0, 3), st.sampled_from([4, 16]))
@example(b"a:\xcc\x81b c", 1, 16)
@example(b"ab\xf0\x90\x80\xfe", 0, 16)
@example(b"a" * 40, 0, 4)   # lowercase runs, as in the test above
@example(b"zz " + b"a" * 40, 0, 5)
@example(b"x" + b"q" * 40, 1, 16)
@example(b"can'tgoodbye", 0, 4)
@example("a\u0301bcdefghij".encode(), 0, 4)
@example(b"aBcdefghij", 0, 5)
@example(b"ab.cdefghij", 0, 4)
@example(b"ab, cdefghij", 0, 5)
@settings(max_examples=200, deadline=None)
def test_stream_equals_pushing_byte_by_byte(data, cut, max_word_bytes):
    prefix = data[:max(0, len(data) - cut)]   # may end inside a codepoint
    st_ = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    closes, index = [], []
    try:
        for b in prefix:
            closes += st_.push_byte(b)
            index.append(len(closes))
    except SplitError as exc:
        with pytest.raises(SplitError) as got:
            stream(prefix, max_word_bytes)
        assert got.value.offset == exc.offset
        return
    assert stream(prefix, max_word_bytes) == (st_, closes, index)


@given(st.lists(st.one_of(pieces, MARKED_PUNCT), max_size=24).map("".join),
       st.sampled_from([4, 5, 8]))
@example("a:" + "\u0301" * 40 + "b", 4)   # a held boundary resolves: 20 spans close
@example("+___\u00ad", 4)
@settings(max_examples=200, deadline=None)
def test_push_closes_at_most_len_buf_words(s, max_word_bytes):
    # the bound `infer._check_byte_step` counts on before it pushes into a copy,
    # and `infer._run_plan`'s inline check before it takes a byte step
    st_ = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    for b in s.encode():
        bound = len(st_.buf)
        assert len(st_.push_byte(b)) <= bound


def pathological_streams() -> list[bytes]:
    flags = "".join(RI[i % len(RI)] + RI[(i + 1) % len(RI)] for i in range(300))
    return [s.encode() for s in ("\u2044" * 2000, "\u0301" * 2000, "a" + "\u0301" * 1000, flags)]


@pytest.mark.parametrize("max_word_bytes", [16, 128])
def test_streaming_buffer_stays_bounded(max_word_bytes):
    text = (DATA / "english_sample.txt").read_bytes()
    for data in [(text * (16384 // len(text) + 1))[:16384], *pathological_streams()]:
        st_ = IncrementalSplitterState(max_word_bytes=max_word_bytes)
        events = []
        for b in data:
            events.extend(st_.push_byte(b))
            # all the engine keeps of the text is `buf`. None of these streams
            # holds a boundary before a run of marks, which `buf` keeps whole
            # (test_held_boundary_keeps_its_marks)
            assert len(st_.buf) <= 4 * max_word_bytes
        assert events == split(data, max_word_bytes)[:-1]


def test_held_boundary_keeps_its_marks():
    # "a." then U+FE0F holds a boundary (WB6 may join "." to a letter), and
    # each U+0301 extends it: a join and a break give different cap cuts, so
    # no span is final until the next non-ignorable codepoint decides
    n = 3000
    data = ("a.\ufe0f" + "\u0301" * n + "b").encode()
    st_ = IncrementalSplitterState(max_word_bytes=4)
    for i, b in enumerate(data[:-1]):   # `buf` keeps every byte: 2 more per mark
        assert st_.push_byte(b) == [] and len(st_.buf) == i + 1, f"byte {i}"
    assert len(st_.buf) == 2 * n + 5
    closes = st_.push_byte(data[-1])
    assert len(closes) == 1502 and closes == split(data, 4)[:-1]


@given(st.lists(st.one_of(pieces, MARKED_PUNCT), max_size=24).map("".join), CAPS)
@example("a.\ufe0f" + "\u0301" * 40 + "b", 4)
@example("a:" + "\u0301" * 40 + "b", 4)
@settings(max_examples=200, deadline=None)
def test_buffer_outside_held_codepoints_stays_bounded(s, max_word_bytes):
    st_ = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    for i, b in enumerate(s.encode()):
        st_.push_byte(b)
        assert len(st_.buf) - sum(n for _, n in st_.held) <= 4 * max_word_bytes, f"byte {i}"


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
        closed = max(0, len(split(prefix)) - 1)
        assert len(stream(prefix, DEFAULT_MAX_WORD_BYTES)[1]) == closed, f"prefix {prefix[-12:]!r}"
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
    assert stream(data, DEFAULT_MAX_WORD_BYTES)[2] == word_index_of_bytes(data)

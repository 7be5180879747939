"""Byte-level word splitting: UAX#29 boundaries plus merge rules.

A splitting rule maps a UTF-8 byte sequence to contiguous, non-empty,
non-overlapping byte spans whose concatenation reproduces the input. On top
of default UAX#29 word segments this applies, in order:

  1. camel-case refinement: a lowercase->uppercase transition inside a
     segment opens a new chunk ("FooBar" -> "Foo", "Bar")
  2. math-symbol isolation: every codepoint of general category Sm is its
     own chunk
  3. punctuation merge: a maximal run of category-P* chunks merges into the
     preceding chunk when that chunk is a word (contains a codepoint that is
     neither whitespace nor punctuation)
  4. whitespace merge: a maximal run of White_Space chunks merges into the
     following chunk; a text-final run stays its own chunk
  5. length cap: chunks longer than max_word_bytes are force-split at the
     last codepoint boundary at or below the cap

Both a batch splitter and a byte-at-a-time incremental splitter are
provided; the incremental form closes a word exactly when a pushed byte
proves a new chunk has begun under the batch rules. It re-splits only a
short suffix of the text on each completed codepoint, so its cost per byte
does not grow with the length of the text.

The incremental splitter is the one front end of a byte stream, prompt or
generated: its `Utf8Gate`, which sampling masks with, refuses any byte that
breaks UTF-8. `stream` pushes a byte string through a fresh splitter.
"""

from __future__ import annotations

import unicodedata
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .wordbreak import EXTEND, FORMAT, ZWJ, wb_class, word_boundaries

DEFAULT_MAX_WORD_BYTES = 128

# model sentinels live outside valid UTF-8, so no split or push accepts them
BYTE_BOS = 0xFE
BYTE_EOS = 0xFF


class SplitError(ValueError):
    """Raised for byte sequences that are not valid UTF-8.

    `offset` is the index of the first offending byte.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class WordSpan:
    start: int
    end: int

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"empty span [{self.start}, {self.end})")


@dataclass(frozen=True)
class SplitResult:
    """Capped chunk spans, plus the byte offset at which each rule chunk
    begins; a span whose start is not in `chunk_starts` is a cap cut."""
    spans: tuple[WordSpan, ...]
    chunk_starts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    def chunks(self, data: bytes) -> list[bytes]:
        return [data[s.start:s.end] for s in self.spans]


def _decode_utf8(data: bytes) -> tuple[str, list[int]]:
    """Strict UTF-8 decode returning the text and per-codepoint byte offsets."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SplitError("invalid UTF-8", exc.start) from None
    offsets = []
    pos = 0
    for ch in text:
        offsets.append(pos)
        pos += len(ch.encode("utf-8"))
    offsets.append(pos)
    return text, offsets


# Unicode White_Space=Yes (str.isspace also matches 0x1C-0x1F, which are not)
_WHITE_SPACE = frozenset(
    list(range(0x09, 0x0E)) + [0x20, 0x85, 0xA0, 0x1680]
    + list(range(0x2000, 0x200B)) + [0x2028, 0x2029, 0x202F, 0x205F, 0x3000]
)


def _is_ws(ch: str) -> bool:
    return ord(ch) in _WHITE_SPACE


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _is_sm(ch: str) -> bool:
    return unicodedata.category(ch) == "Sm"


_WS, _PUNCT, _WORD = 0, 1, 2


def _classify(text: str) -> int:
    if all(_is_ws(c) for c in text):
        return _WS
    if all(_is_punct(c) for c in text):
        return _PUNCT
    return _WORD


def _refine(text: str, start: int, end: int) -> list[int]:
    """Extra chunk boundaries inside one UAX#29 segment (codepoint indices).

    Applies camel-case splitting and math-symbol isolation.
    """
    cuts = []
    prev_lower = False
    for i in range(start, end):
        cat = unicodedata.category(text[i])
        if i > start and (cat == "Sm" or _is_sm(text[i - 1])):
            cuts.append(i)
        elif prev_lower and cat == "Lu":
            cuts.append(i)
        prev_lower = cat == "Ll"
    return cuts


def _split_codepoints(text: str) -> list[tuple[int, int]]:
    """Chunk boundaries as codepoint index pairs, before the byte-length cap."""
    if not text:
        return []
    bounds = word_boundaries(text)
    pieces = []
    for i in range(len(bounds) - 1):
        a, b = bounds[i], bounds[i + 1]
        cut_points = [a] + _refine(text, a, b) + [b]
        for j in range(len(cut_points) - 1):
            pieces.append((cut_points[j], cut_points[j + 1]))

    # punctuation merges backward into the preceding word chunk
    merged: list[list[int]] = []   # [start, end, class]
    for a, b in pieces:
        cls = _classify(text[a:b])
        if cls == _PUNCT and merged and merged[-1][2] == _WORD:
            merged[-1][1] = b
        else:
            merged.append([a, b, cls])

    # whitespace runs merge forward; a final run stays alone
    out: list[tuple[int, int]] = []
    ws_start = None
    for a, b, cls in merged:
        if cls == _WS:
            if ws_start is None:
                ws_start = a
            continue
        out.append((a if ws_start is None else ws_start, b))
        ws_start = None
    if ws_start is not None:
        out.append((ws_start, len(text)))
    return out


def split(data: bytes, max_word_bytes: int = DEFAULT_MAX_WORD_BYTES) -> SplitResult:
    """Split a UTF-8 byte sequence into word chunks.

    Sentinel bytes 0xFE/0xFF are rejected as invalid UTF-8 (they cannot
    appear in well-formed input). Raises SplitError on malformed input.
    """
    if max_word_bytes < 4:
        raise ValueError("max_word_bytes must allow one UTF-8 codepoint (>= 4)")
    text, offs = _decode_utf8(data)
    spans, starts = [], []
    for a, b in _split_codepoints(text):
        starts.append(offs[a])
        lo = a
        while offs[b] - offs[lo] > max_word_bytes:
            # force-split at the last codepoint boundary within the cap
            hi = lo
            while offs[hi + 1] - offs[lo] <= max_word_bytes:
                hi += 1
            spans.append(WordSpan(offs[lo], offs[hi]))
            lo = hi
        spans.append(WordSpan(offs[lo], offs[b]))
    return SplitResult(tuple(spans), tuple(starts))


def word_index_of_bytes(data: bytes,
                        max_word_bytes: int = DEFAULT_MAX_WORD_BYTES) -> list[int]:
    """Per-byte chunk indices: index[i] = j iff byte i lies in span j."""
    result = split(data, max_word_bytes)
    index = []
    for j, span in enumerate(result.spans):
        index.extend([j] * (span.end - span.start))
    return index


@dataclass(frozen=True)
class WordClosed:
    """Event: the chunk covering bytes [start, end) is final."""
    start: int
    end: int


# bytes legal at a codepoint boundary (the end sentinel too), and the first-continuation
# ranges narrower than 0x80-0xBF (no overlongs, surrogates or codepoints > U+10FFFF)
_BOUNDARY_OK = np.zeros(256, dtype=bool)
_BOUNDARY_OK[0x00:0x80] = _BOUNDARY_OK[0xC2:0xF5] = _BOUNDARY_OK[BYTE_EOS] = True

_FIRST_CONT = {0xE0: (0xA0, 0xBF), 0xED: (0x80, 0x9F),
               0xF0: (0x90, 0xBF), 0xF4: (0x80, 0x8F)}


@dataclass
class Utf8Gate:
    """The in-flight codepoint of a byte stream: `need` continuation bytes
    are owed and the next must lie in [lo, hi]. Sampling masks with it."""
    need: int = 0
    lo: int = 0x80
    hi: int = 0xBF

    def allowed(self) -> np.ndarray:
        if self.need == 0:
            return _BOUNDARY_OK.copy()
        mask = np.zeros(256, dtype=bool)
        mask[self.lo:self.hi + 1] = True
        return mask

    def admits(self, b: int) -> bool:
        """`allowed()[b]`, without building the mask."""
        return self.lo <= b <= self.hi if self.need else bool(_BOUNDARY_OK[b])

    def push(self, b: int) -> None:
        """Advance past `b`, a text byte that `admits` accepts."""
        if self.need:
            self.need -= 1
            self.lo, self.hi = 0x80, 0xBF
        elif b >= 0x80:
            self.need = 1 if b < 0xE0 else 2 if b < 0xF0 else 3
            self.lo, self.hi = _FIRST_CONT.get(b, (0x80, 0xBF))


def _restartable(buf: bytearray, off: int) -> bool:
    """Whether a split of buf[off:], where off starts a rule chunk, cuts it
    as the split of the whole text does.

    Past a chunk start, UAX#29 reads what precedes it only through a leading
    Extend/Format/ZWJ (WB4 looks back past them) or from FRACTION SLASH,
    the one math symbol of a Mid class (WB11 reads the codepoint before it).
    """
    cp = ord(bytes(buf[off:off + 4]).decode("utf-8", "ignore")[0])
    return cp != 0x2044 and wb_class(cp) not in (EXTEND, FORMAT, ZWJ)


@dataclass
class IncrementalSplitterState:
    """Single-owner incremental splitter fed one byte at a time.

    `buf` holds only the text from offset `_base` on, where a rule chunk
    (one before the length cap) starts. Each completed codepoint re-splits
    `buf` alone. The rules look back a bounded distance (UAX#29 two
    codepoints past ignorables, the merges one chunk) and regional-indicator
    pairs start at every chunk start, so from `_base` on this cuts the text
    as the whole-text split does. `_base` then moves up to the rule chunk
    holding the second-to-last closed chunk, or the nearest one before it
    that `_restartable` accepts, and the bytes before it are dropped.

    A chunk is reported closed once it is no longer the last
    (still-extendable) chunk of the split; `WordClosed` offsets count from
    the start of the text. Accepted bytes always form a valid UTF-8 prefix
    (`gate` holds the codepoint in flight).
    """

    max_word_bytes: int = DEFAULT_MAX_WORD_BYTES
    buf: bytearray = field(default_factory=bytearray)  # the text from _base on
    closed_words: int = 0
    gate: Utf8Gate = field(default_factory=Utf8Gate)  # the codepoint in flight
    _inconsistencies: int = 0  # prefix-consistency violations observed
    _base: int = 0             # text offset of buf[0], where a rule chunk starts
    _base_words: int = 0       # chunks of the text before _base
    _open: int | None = None   # text offset of the open chunk, None if none

    @property
    def pending(self) -> bytes:
        """Bytes accumulated after the last closed word."""
        if self._open is None:
            return b""
        return bytes(self.buf[self._open - self._base:])

    def push_byte(self, b: int) -> list[WordClosed]:
        if not 0 <= b <= 0xFF:
            raise ValueError(f"not a byte: {b}")
        if b == BYTE_EOS or not self.gate.admits(b):
            # report the start of the ill-formed sequence, as `split` does
            k = len(self.buf) - (self.gate.need > 0)
            while self.gate.need and self.buf[k] < 0xC0:
                k -= 1
            raise SplitError("invalid UTF-8", self._base + k)
        self.gate.push(b)
        self.buf.append(b)
        if self.gate.need:
            return []
        return self._resplit()

    def _resplit(self) -> list[WordClosed]:
        # spans[i] is chunk _base_words + i of the whole text
        result = split(bytes(self.buf), self.max_word_bytes)
        spans, base, first = result.spans, self._base, self._base_words
        n_closed = first + len(spans) - 1  # the final chunk may still extend
        if n_closed < self.closed_words:
            # a previously reported boundary vanished; never retract
            self._inconsistencies += self.closed_words - n_closed
        events = [WordClosed(base + s.start, base + s.end)
                  for s in spans[self.closed_words - first:n_closed - first]]
        self.closed_words = max(self.closed_words, n_closed)
        j = self.closed_words - first
        self._open = base + spans[j].start if j < len(spans) else None

        # restart at the rule chunk holding the second-to-last closed chunk
        if n_closed - first >= 2:
            k = bisect_right(result.chunk_starts, spans[n_closed - first - 2].start) - 1
            while k > 0 and not _restartable(self.buf, result.chunk_starts[k]):
                k -= 1
            cut = result.chunk_starts[k]
            if cut > 0:
                self._base_words += sum(1 for s in spans if s.start < cut)
                self._base += cut
                del self.buf[:cut]
        return events


def stream(data: bytes, max_word_bytes: int
           ) -> tuple[IncrementalSplitterState, list[WordClosed], list[int]]:
    """Push `data` through a fresh incremental splitter, one byte at a time.

    Returns the state, the words closed, and per byte the number of words
    closed once its push has run, i.e. the index of the open chunk it lands
    in. Raises SplitError where `data` stops being a valid UTF-8 prefix."""
    state = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    closes, index = [], []
    for b in data:
        closes += state.push_byte(b)
        index.append(state.closed_words)
    return state, closes, index


def incremental_word_index(data: bytes,
                           max_word_bytes: int = DEFAULT_MAX_WORD_BYTES) -> list[int]:
    """Per-byte chunk index as seen by the incremental splitter (see `stream`);
    differs from `word_index_of_bytes` exactly where prefix consistency fails."""
    return stream(data, max_word_bytes)[2]


def boundary_divergence(data: bytes,
                        max_word_bytes: int = DEFAULT_MAX_WORD_BYTES) -> tuple[int, list[int]]:
    """Count bytes whose incremental chunk index differs from the batch split.

    Returns (count, offending byte offsets). Expected 0 for ASCII text; any
    nonzero finding is catalogued by the caller, not hidden.
    """
    full = word_index_of_bytes(data, max_word_bytes)
    inc = incremental_word_index(data, max_word_bytes)
    bad = [i for i, (a, b) in enumerate(zip(full, inc)) if a != b]
    return len(bad), bad

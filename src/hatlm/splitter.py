"""Byte-level word splitting: UAX#29 boundaries plus merge rules.

A splitting rule maps a UTF-8 byte sequence to contiguous, non-empty,
non-overlapping byte spans whose concatenation reproduces the input. A span
is a `(start, end)` pair of byte offsets, the chunk `data[start:end]`. On
top of default UAX#29 word segments this applies, in order:

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

One engine, `IncrementalSplitterState`, applies them to a stream of
codepoints with O(1) work each (amortised) and closes a chunk only once no
continuation of the text can change it, so its closes are always leading
spans of the split of the whole text. It has two drivers: `push_byte`
feeds it a byte at a time and `stream` a whole prefix, with the lowercase
ASCII letters after one in one step (`_letters`); `split` is `stream`
followed by the end of the text, which settles the last chunk. All three
return their spans as a list of `(start, end)` pairs in text order; `split`
returns every span of the text. The engine is the one front end of a byte
stream, prompt or generated: its `Utf8Gate`, which sampling masks with,
refuses any byte that breaks UTF-8.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .wordbreak import (ALETTER, BREAK, HOLD, JOIN, LOWER, MATH, PROPS, PUNCT, SPACE,
                        UPPER, WordBreaker)

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


# what the open chunk holds besides its leading whitespace pieces
_SPACES = 0    # nothing: the open piece is whitespace so far, or there is none
_FIRST = 1     # its first other piece, which is the open piece
_MERGING = 2   # a word, then the open piece, all punctuation so far: it may merge


@dataclass
class IncrementalSplitterState:
    """The splitting engine, fed one codepoint at a time.

    The UAX#29 layer (`breaker`) decides a segment boundary when the
    codepoint after it arrives; from a boundary it holds for WB6/7b/12 on,
    codepoints wait in `held` until the next non-ignorable one. Every other
    codepoint is settled at once: it opens a piece (a segment boundary, or a
    camel-case or math cut) or extends the open one. The merge rules then
    read only what the open chunk holds (`mode`) and the open piece's
    whitespace/punctuation flags, which only ever turn off. A chunk closes
    once a piece starts that it cannot absorb, and a cap-length span once
    the chunk surely reaches past it: nothing a continuation could change,
    and nothing final but the span that holds the last codepoint waits.

    `buf` holds the text from `lo`, where the first unclosed span starts,
    the codepoint in flight included. Every closed span lies in `buf` before
    the pushed byte, so a push closes at most `len(buf)` words. A closed
    span is a `(start, end)` pair of offsets from the start of the text.
    """

    max_word_bytes: int = DEFAULT_MAX_WORD_BYTES
    buf: bytearray = field(default_factory=bytearray, init=False)  # the text from lo on
    gate: Utf8Gate = field(default_factory=Utf8Gate, init=False)  # the codepoint in flight
    lo: int = field(default=0, init=False)   # where the first unclosed span starts
    end: int = field(default=0, init=False)  # text offset after the last complete codepoint
    breaker: WordBreaker = field(default_factory=WordBreaker, init=False)
    held: list = field(default_factory=list, init=False)  # (props, size) per held codepoint
    settled: int = field(default=0, init=False)  # offset after the last settled codepoint
    prev: int = field(default=0, init=False)     # props of the last settled codepoint
    piece: int = field(default=0, init=False)    # offset where the open piece starts
    flags: int = field(default=0, init=False)    # SPACE, PUNCT if all of the open piece has it
    mode: int = field(default=_SPACES, init=False)  # what the open chunk holds

    def __post_init__(self):
        if self.max_word_bytes < 4:
            raise ValueError("max_word_bytes must allow one UTF-8 codepoint (>= 4)")

    def push_byte(self, b: int) -> list[tuple[int, int]]:
        if not 0 <= b <= 0xFF:
            raise ValueError(f"not a byte: {b}")
        gate, buf, out = self.gate, self.buf, []
        if b >= 0x80 or gate.need:
            if b == BYTE_EOS or not gate.admits(b):
                # report the start of the ill-formed sequence, as `split` does
                k = len(buf) - (gate.need > 0)
                while gate.need and buf[k] < 0xC0:
                    k -= 1
                raise SplitError("invalid UTF-8", self.lo + k)
            gate.push(b)
        buf.append(b)
        if b < 0x80:        # a whole codepoint, the byte itself
            self._feed(b, 1, out)
        elif not gate.need:
            k = len(buf) - 1
            while buf[k] & 0xC0 == 0x80:
                k -= 1
            self._feed(ord(buf[k:].decode()), len(buf) - k, out)
        return out

    # -- the engine: `buf` already holds the codepoint fed ---------------------

    def _feed(self, cp: int, n: int, out: list) -> None:
        """Take the next codepoint (`n` bytes); append the spans it closes to `out`."""
        p = PROPS[cp]
        self.end += n
        done, here = self.breaker.feed(p)
        if self.held and done is not None:
            self._release(done == BREAK, out)
        if self.held:   # an ignorable: the boundary stays held
            self.held.append((p, n))
        elif here == HOLD and not _cut(self.prev, p):
            self.held = [(p, n)]
        else:
            self._settle(p, n, here != JOIN, out)
        self._cut_caps(out, None)

    def _letters(self, run: bytes, out: list) -> int:
        """Take lowercase ASCII letters that follow one, up to the first that
        makes a cap cut; return how many. After `_feed` takes such a letter,
        each joins the open word (WB5) and moves only buf, end, settled and pc."""
        n = min(len(run), self.lo + self.max_word_bytes + 1 - self.end)
        self.buf += run[:n]
        self.end, self.settled = self.end + n, self.settled + n
        self.breaker.pc = ALETTER
        self._cut_caps(out, None)
        return n

    def _release(self, brk: bool, out: list) -> None:
        """Settle the held codepoints; the first opens a piece if `brk`, the
        rest followed it under WB4."""
        held, self.held = self.held, []
        for i, (p, n) in enumerate(held):
            self._settle(p, n, brk and i == 0, out)

    def _settle(self, p: int, n: int, brk: bool, out: list) -> None:
        start = self.settled
        self.settled = start + n
        prev, self.prev = self.prev, p
        if brk or _cut(prev, p):   # a new piece opens at `start`
            mode = self.mode
            if mode != _SPACES:    # whitespace merges forward
                if p & PUNCT and (mode == _MERGING or not self.flags & PUNCT):
                    mode = _MERGING    # punctuation may merge into the word before
                else:
                    self._close(start, out)
                    mode = _SPACES
            self.mode = _FIRST if mode == _SPACES and not p & SPACE else mode
            self.piece, self.flags = start, p & (SPACE | PUNCT)
        else:
            flags = self.flags = self.flags & p
            if self.mode == _SPACES and not flags & SPACE:
                self.mode = _FIRST
            elif self.mode == _MERGING and not flags & PUNCT:
                self._close(self.piece, out)   # the open piece is a word
                self.mode = _FIRST

    def _close(self, end: int, out: list) -> None:
        """The open chunk ends at `end`."""
        self._cut_caps(out, end)
        if self.lo < end:
            self._emit(end, out)

    def _cut_caps(self, out: list, end: int | None) -> None:
        """Close the cap-length spans that the text surely holds in one
        chunk: up to `end` if the open chunk ends there, else (None) as far
        as `_reach()`."""
        cap = self.max_word_bytes
        while self.lo + cap < self.end:
            q = cap   # the last codepoint boundary within the cap
            while self.buf[q] & 0xC0 == 0x80:
                q -= 1
            if self.lo + q > (self._reach() if end is None else end):
                return
            self._emit(self.lo + q, out)

    def _reach(self) -> int:
        """How far the first unclosed span surely reaches. The open chunk
        may still end where the open piece starts, if that piece may merge,
        or at the held boundary; a chunk end at `lo` does not cut the span."""
        if self.mode == _MERGING and self.piece > self.lo:
            return self.piece
        if self.held and self.settled > self.lo:
            return self.settled
        return self.end

    def _emit(self, end: int, out: list) -> None:
        out.append((self.lo, end))
        del self.buf[:end - self.lo]
        self.lo = end


def _cut(prev: int, p: int) -> bool:
    """Whether a math symbol or a lowercase->uppercase step separates two
    codepoints of one segment (rules 1 and 2)."""
    return bool((prev | p) & MATH or (prev & LOWER and p & UPPER))


def split(data: bytes, max_word_bytes: int = DEFAULT_MAX_WORD_BYTES) -> list[tuple[int, int]]:
    """The spans of a UTF-8 byte sequence's word chunks: `stream`, then the
    end of the text, which releases a held boundary and closes the last chunk.

    Sentinel bytes 0xFE/0xFF are rejected as invalid UTF-8 (they cannot
    appear in well-formed input). Raises SplitError on malformed input,
    a codepoint cut off by the end of the text included.
    """
    state, closes, _ = stream(data, max_word_bytes)
    if state.gate.need:
        raise SplitError("invalid UTF-8", state.end)
    if state.held:   # the end of the text joins nothing
        state._release(True, closes)
    state._close(state.end, closes)
    return closes


def stream(data: bytes, max_word_bytes: int
           ) -> tuple[IncrementalSplitterState, list[tuple[int, int]], list[int]]:
    """The incremental splitter after `data`, as if pushed one byte at a time.

    Returns the state, the spans closed, and per byte the number of words
    closed once its push has run, i.e. the index of the open chunk it lands
    in. Raises SplitError where `data` stops being a valid UTF-8 prefix."""
    state = IncrementalSplitterState(max_word_bytes=max_word_bytes)
    try:
        text, tail = data.decode("utf-8"), b""
    except UnicodeDecodeError as exc:
        if exc.reason != "unexpected end of data":
            raise SplitError("invalid UTF-8", exc.start) from None
        text, tail = data[:exc.start].decode("utf-8"), data[exc.start:]
    # per close, the text offset after the codepoint whose arrival decided it
    closes, at, pos = [], [], 0
    pieces = re.split("(?<=[a-z])([a-z]+)", text) + [""]
    for other, letters in zip(pieces[::2], pieces[1::2]):
        for ch in other:
            cp = ord(ch)
            n = 1 if cp < 0x80 else 2 if cp < 0x800 else 3 if cp < 0x10000 else 4
            state.buf += data[pos:pos + n]
            pos += n
            state._feed(cp, n, closes)
            if len(closes) > len(at):
                at += [pos] * (len(closes) - len(at))
        run = data[pos:pos + len(letters)]      # lowercase letters after one: in one
        while run:                              # step per cap cut, the letter deciding it
            n = state._letters(run, closes)
            run, pos = run[n:], pos + n
            at += [pos] * (len(closes) - len(at))
    for b in tail:   # a codepoint in flight
        state.gate.push(b)
    state.buf += tail
    # byte i lands in the chunk after every close decided by byte i or before
    index = []
    for k, end in enumerate(at):
        index += [k] * (end - 1 - len(index))
    index += [len(at)] * (len(data) - len(index))
    return state, closes, index

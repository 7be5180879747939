"""UAX#29 default word boundaries, decided one codepoint at a time.

Implements the untailored Word_Break rules (WB1-WB16, WB999) using range
tables generated into :mod:`hatlm._wb_tables`; grapheme and sentence
segmentation are out of scope. `WordBreaker` carries forward what the rules
read: the previous class (WB3-WB3d), the last two non-ignorable classes (WB4
skips Extend/Format/ZWJ) and the regional-indicator run (WB15/16). It decides
each boundary when the codepoint after it arrives, except that WB6, WB7b and
WB12 read one more non-ignorable codepoint: the boundary before a Mid- or
quote-class codepoint after a letter or digit is held until then. `PROPS`
gives each codepoint's class and the flags the splitter reads, computed once.
"""

import unicodedata
from bisect import bisect_right
from dataclasses import dataclass, field

from ._wb_tables import EXT_PICT_RANGES, WB_CLASS_NAMES, WB_RANGES

# class ids, aligned with WB_CLASS_NAMES
(OTHER, CR, LF, NEWLINE, EXTEND, ZWJ, RI, FORMAT, KATAKANA, HEBREW,
 ALETTER, SINGLE_QUOTE, DOUBLE_QUOTE, MIDNUMLET, MIDLETTER, MIDNUM,
 NUMERIC, EXTENDNUMLET, WSEGSPACE) = range(19)

assert len(WB_CLASS_NAMES) == 19

_WB_STARTS = [r[0] for r in WB_RANGES]
_EP_STARTS = [r[0] for r in EXT_PICT_RANGES]

_IGNORE = frozenset((EXTEND, FORMAT, ZWJ))
_AHLETTER = frozenset((ALETTER, HEBREW))
_MIDLETTERQ = frozenset((MIDLETTER, MIDNUMLET, SINGLE_QUOTE))
_MIDNUMQ = frozenset((MIDNUM, MIDNUMLET, SINGLE_QUOTE))
_NL = frozenset((NEWLINE, CR, LF))


# ---------------------------------------------------------------------------
# codepoint properties: the Word_Break class in the low five bits, then flags

CLASS = 0x1F
IGNORABLE = 1 << 5   # Extend, Format or ZWJ
EXT_PICT = 1 << 6    # Extended_Pictographic
LOWER = 1 << 7       # general category Ll
UPPER = 1 << 8       # Lu
MATH = 1 << 9        # Sm
PUNCT = 1 << 10      # P*
SPACE = 1 << 11      # White_Space (str.isspace also matches 0x1C-0x1F, which are not)

_WHITE_SPACE = frozenset(
    list(range(0x09, 0x0E)) + [0x20, 0x85, 0xA0, 0x1680]
    + list(range(0x2000, 0x200B)) + [0x2028, 0x2029, 0x202F, 0x205F, 0x3000]
)
_CATEGORY = {"Ll": LOWER, "Lu": UPPER, "Sm": MATH}


class _Props(dict):
    """Codepoint -> properties, each computed on first use (a table of the
    whole Basic Multilingual Plane would add ~40 ms to every import)."""

    def __missing__(self, cp: int) -> int:
        i, j = bisect_right(_WB_STARTS, cp) - 1, bisect_right(_EP_STARTS, cp) - 1
        cls = WB_RANGES[i][2] if i >= 0 and cp < WB_RANGES[i][1] else OTHER
        cat = unicodedata.category(chr(cp))
        p = self[cp] = (cls | IGNORABLE * (cls in _IGNORE) | SPACE * (cp in _WHITE_SPACE)
                        | EXT_PICT * (j >= 0 and cp < EXT_PICT_RANGES[j][1])
                        | _CATEGORY.get(cat, PUNCT if cat[0] == "P" else 0))
        return p


PROPS = _Props()


# ---------------------------------------------------------------------------
# the rules

# a decision on one boundary, and the conditions a pair of classes may set
BREAK, JOIN, HOLD = 0, 1, 2
PREV, NEXT, ODD = 3, 4, 5

# WB5-WB16: no boundary between adjacent non-ignorable codepoints of classes
# (left, right) when the condition holds: always (None), the class before
# the left one is in the set (PREV), the next non-ignorable class after the
# right one is in the set (NEXT), or the regional-indicator run before the
# right one is odd (ODD)
_NO_BREAK = (
    (_AHLETTER, _AHLETTER, None),                                       # WB5
    (_AHLETTER, _MIDLETTERQ, (NEXT, _AHLETTER)),                        # WB6
    (_MIDLETTERQ, _AHLETTER, (PREV, _AHLETTER)),                        # WB7
    ({HEBREW}, {SINGLE_QUOTE}, None),                                   # WB7a
    ({HEBREW}, {DOUBLE_QUOTE}, (NEXT, {HEBREW})),           # WB7b
    ({DOUBLE_QUOTE}, {HEBREW}, (PREV, {HEBREW})),           # WB7c
    ({NUMERIC}, {NUMERIC}, None),                                       # WB8
    (_AHLETTER, {NUMERIC}, None),                                       # WB9
    ({NUMERIC}, _AHLETTER, None),                                       # WB10
    (_MIDNUMQ, {NUMERIC}, (PREV, {NUMERIC})),               # WB11
    ({NUMERIC}, _MIDNUMQ, (NEXT, {NUMERIC})),               # WB12
    ({KATAKANA}, {KATAKANA}, None),                                     # WB13
    ({ALETTER, HEBREW, NUMERIC, KATAKANA, EXTENDNUMLET}, {EXTENDNUMLET}, None),  # WB13a
    ({EXTENDNUMLET}, {ALETTER, HEBREW, NUMERIC, KATAKANA}, None),       # WB13b
    ({RI}, {RI}, (ODD, None)),                                          # WB15/16
)


def _pair(lc: int, rc: int) -> tuple:
    """(kind, classes) for a boundary between non-ignorable classes lc and
    rc: JOIN or BREAK outright, or the one condition that decides it."""
    conds = [cond for left, right, cond in _NO_BREAK if lc in left and rc in right]
    if None in conds:
        return JOIN, None
    assert len(conds) <= 1, (lc, rc)
    return conds[0] if conds else (BREAK, None)


_PAIRS = [[_pair(lc, rc) for rc in range(19)] for lc in range(19)]


@dataclass(slots=True)
class WordBreaker:
    """UAX#29 word boundaries over a stream of codepoints."""
    raw: int | None = field(default=None, init=False)  # previous class, None at the start
    lc: int | None = field(default=None, init=False)   # last non-ignorable class
    pc: int = field(default=OTHER, init=False)  # the non-ignorable class before that
    ri: int = field(default=0, init=False)      # regional indicators in the run ending at lc
    held: set | None = field(default=None, init=False)  # classes that join the held boundary

    def feed(self, p: int) -> tuple[int | None, int]:
        """Take the next codepoint, given by its `PROPS` entry.

        Returns how the held boundary resolves (JOIN or BREAK) if this
        codepoint resolves it, else None; and the decision on the boundary
        before this codepoint: JOIN, BREAK or HOLD (BREAK for the first).
        A boundary still held at the end of the text is a BREAK."""
        rc = p & CLASS
        raw, self.raw = self.raw, rc
        if p & IGNORABLE:                                    # WB3a, WB4
            return None, BREAK if raw is None or raw in _NL else JOIN
        done = None if self.held is None else JOIN if rc in self.held else BREAK
        self.held = None
        lc = self.lc
        if raw is None:
            here = BREAK
        elif raw == CR and rc == LF:                         # WB3
            here = JOIN
        elif raw in _NL or rc in _NL:                        # WB3a/3b
            here = BREAK
        elif raw == ZWJ and p & EXT_PICT:                    # WB3c
            here = JOIN
        elif raw == WSEGSPACE and rc == WSEGSPACE:           # WB3d
            here = JOIN
        elif lc is None:                                     # only ignorables before
            here = BREAK
        else:
            kind, classes = _PAIRS[lc][rc]
            if kind == PREV:
                here = JOIN if self.pc in classes else BREAK
            elif kind == NEXT:
                here, self.held = HOLD, classes
            elif kind == ODD:
                here = JOIN if self.ri % 2 else BREAK
            else:
                here = kind
        self.ri = self.ri + 1 if rc == RI else 0
        self.pc = OTHER if lc is None else lc
        self.lc = rc
        return done, here


def word_boundaries(text: str) -> list[int]:
    """Sorted codepoint offsets of every word boundary in `text`, 0 and
    len(text) included: adjacent offsets delimit the UAX#29 word segments."""
    wb, bounds, held = WordBreaker(), [0], 0
    for i, ch in enumerate(text):
        done, here = wb.feed(PROPS[ord(ch)])
        if done == BREAK:
            bounds.append(held)
        if here == HOLD:
            held = i
        elif here == BREAK and i:
            bounds.append(i)
    if wb.held is not None:   # the end of the text joins nothing
        bounds.append(held)
    if text:
        bounds.append(len(text))
    return bounds


def word_segments(text: str) -> list[str]:
    """UAX#29 word segments of `text`, concatenating back to the input."""
    bounds = word_boundaries(text)
    return [text[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]

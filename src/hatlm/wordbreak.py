"""UAX#29 default word boundaries over codepoint sequences.

Implements the untailored Word_Break rules (WB1-WB16, WB999) using range
tables generated into :mod:`hatlm._wb_tables`. Only word boundaries are
provided; grapheme and sentence segmentation are out of scope.
"""

from bisect import bisect_right

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
_MIDNUMLETQ = frozenset((MIDNUMLET, SINGLE_QUOTE))
_NL = frozenset((NEWLINE, CR, LF))


def wb_class(cp: int) -> int:
    """Word_Break property class of a codepoint."""
    i = bisect_right(_WB_STARTS, cp) - 1
    if i >= 0:
        start, end, cls = WB_RANGES[i]
        if cp < end:
            return cls
    return OTHER


def is_ext_pict(cp: int) -> bool:
    i = bisect_right(_EP_STARTS, cp) - 1
    if i >= 0:
        start, end = EXT_PICT_RANGES[i]
        return cp < end
    return False


def word_boundaries(text: str) -> list[int]:
    """Sorted codepoint offsets of every word boundary in `text`.

    Includes 0 and len(text). Adjacent offsets delimit the UAX#29 word
    segments.
    """
    n = len(text)
    if n == 0:
        return [0]
    cls = [wb_class(ord(c)) for c in text]

    def prev_skip(i: int) -> int:
        # index of last non-ignorable codepoint before position i, or -1
        j = i - 1
        while j >= 0 and cls[j] in _IGNORE:
            j -= 1
        return j

    def next_skip(i: int) -> int:
        # index of first non-ignorable codepoint at or after i, or -1
        j = i
        while j < n and cls[j] in _IGNORE:
            j += 1
        return j if j < n else -1

    bounds = [0]
    ri_run = 0  # length of the RI run ending before i, skipping ignorables
    for i in range(1, n):
        left, right = cls[i - 1], cls[i]
        if left == RI:
            ri_run += 1
        elif left not in _IGNORE:
            ri_run = 0

        if left == CR and right == LF:                       # WB3
            continue
        if left in _NL or right in _NL:                      # WB3a/3b
            bounds.append(i)
            continue
        if left == ZWJ and is_ext_pict(ord(text[i])):        # WB3c
            continue
        if left == WSEGSPACE and right == WSEGSPACE:         # WB3d
            continue
        if right in _IGNORE:                                 # WB4
            continue

        li = prev_skip(i)
        lc = cls[li] if li >= 0 else OTHER
        if li < 0:
            bounds.append(i)                                 # WB999 (degenerate)
            continue
        rc = right
        ni = next_skip(i + 1)
        nc = cls[ni] if ni >= 0 else OTHER
        pi = prev_skip(li)
        pc = cls[pi] if pi >= 0 else OTHER

        if lc in _AHLETTER and rc in _AHLETTER:              # WB5
            continue
        if lc in _AHLETTER and (rc == MIDLETTER or rc in _MIDNUMLETQ) and nc in _AHLETTER:  # WB6
            continue
        if (lc == MIDLETTER or lc in _MIDNUMLETQ) and rc in _AHLETTER and pc in _AHLETTER:  # WB7
            continue
        if lc == HEBREW and rc == SINGLE_QUOTE:              # WB7a
            continue
        if lc == HEBREW and rc == DOUBLE_QUOTE and nc == HEBREW:   # WB7b
            continue
        if lc == DOUBLE_QUOTE and rc == HEBREW and pc == HEBREW:   # WB7c
            continue
        if lc == NUMERIC and rc == NUMERIC:                  # WB8
            continue
        if lc in _AHLETTER and rc == NUMERIC:                # WB9
            continue
        if lc == NUMERIC and rc in _AHLETTER:                # WB10
            continue
        if (lc == MIDNUM or lc in _MIDNUMLETQ) and rc == NUMERIC and pc == NUMERIC:  # WB11
            continue
        if lc == NUMERIC and (rc == MIDNUM or rc in _MIDNUMLETQ) and nc == NUMERIC:  # WB12
            continue
        if lc == KATAKANA and rc == KATAKANA:                # WB13
            continue
        if lc in (ALETTER, HEBREW, NUMERIC, KATAKANA, EXTENDNUMLET) and rc == EXTENDNUMLET:  # WB13a
            continue
        if lc == EXTENDNUMLET and rc in (ALETTER, HEBREW, NUMERIC, KATAKANA):  # WB13b
            continue
        if lc == RI and rc == RI and ri_run % 2:             # WB15/16
            continue

        bounds.append(i)                                     # WB999
    bounds.append(n)
    return bounds


def word_segments(text: str) -> list[str]:
    """UAX#29 word segments of `text`, concatenating back to the input."""
    bounds = word_boundaries(text)
    return [text[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]

"""Corpus compression analytics: bytes per backbone sequence position.

A word here is one splitter chunk, i.e. one backbone position; the BOS
position is excluded from the denominator. Higher bytes-per-position means
fewer backbone positions per unit of text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .splitter import DEFAULT_MAX_WORD_BYTES, SplitError, split


@dataclass(frozen=True)
class FileStats:
    path: str
    n_bytes: int
    n_words: int

    @property
    def bytes_per_position(self) -> float:
        return self.n_bytes / self.n_words


@dataclass(frozen=True)
class CompressionReport:
    total_bytes: int
    total_words: int
    per_file: tuple[FileStats, ...]
    errors: tuple[tuple[str, str], ...] = field(default=())

    @property
    def bytes_per_position(self) -> float:
        return self.total_bytes / self.total_words

    def format(self) -> str:
        lines = ["# bytes per backbone position (BOS excluded from the denominator)",
                 f"{'file':<40} {'bytes':>10} {'words':>10} {'bytes/pos':>10}"]
        for fs in self.per_file:
            lines.append(f"{fs.path:<40} {fs.n_bytes:>10} {fs.n_words:>10} "
                         f"{fs.bytes_per_position:>10.4f}")
        lines.append(f"{'TOTAL':<40} {self.total_bytes:>10} {self.total_words:>10} "
                     f"{self.bytes_per_position:>10.4f}")
        for path, err in self.errors:
            lines.append(f"ERROR {path}: {err}")
        return "\n".join(lines)

    def format_kv(self) -> str:
        lines = [f"total_bytes={self.total_bytes}",
                 f"total_words={self.total_words}",
                 f"bytes_per_position={self.bytes_per_position:.4f}"]
        for fs in self.per_file:
            lines.append(f"file.{fs.path}.bytes={fs.n_bytes}")
            lines.append(f"file.{fs.path}.words={fs.n_words}")
        for path, err in self.errors:
            lines.append(f"error.{path}={err}")
        return "\n".join(lines)


def compression_report(paths, max_word_bytes: int = DEFAULT_MAX_WORD_BYTES) -> CompressionReport:
    """Stream the given files; unreadable or malformed files are reported
    per-file while the rest proceed."""
    per_file = []
    errors = []
    total_b = total_w = 0
    for path in paths:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            nb, nw = len(data), len(split(data, max_word_bytes))
        except (OSError, SplitError) as exc:
            errors.append((str(path), str(exc)))
            continue
        if nw == 0:
            errors.append((str(path), "empty file"))
            continue
        per_file.append(FileStats(str(path), nb, nw))
        total_b += nb
        total_w += nw
    if total_w == 0 and not per_file:
        raise ValueError("no measurable files" + (f"; first error: {errors[0]}" if errors else ""))
    return CompressionReport(total_b, total_w, tuple(per_file), tuple(errors))

import pytest

from hatlm.metrics import compression_report

from conftest import DATA


def write(tmp_path, name, data: bytes):
    p = tmp_path / name
    p.write_bytes(data)
    return p


def test_hello_world_ratio(tmp_path):
    p = write(tmp_path, "a.txt", b"Hello world")
    rep = compression_report([p])
    assert rep.total_bytes == 11 and rep.total_words == 2
    assert f"{rep.bytes_per_position:.4f}" == "5.5000"


def test_single_letter_ratio(tmp_path):
    p = write(tmp_path, "a.txt", b"a")
    rep = compression_report([p])
    assert f"{rep.bytes_per_position:.4f}" == "1.0000"


def test_aggregate_reproducible_from_breakdown(tmp_path):
    paths = [write(tmp_path, f"f{i}.txt", t) for i, t in
             enumerate([b"Hello world", b"a b c", b"Tokenizers, begone!"])]
    rep = compression_report(paths)
    assert rep.total_bytes == sum(f.n_bytes for f in rep.per_file)
    assert rep.total_words == sum(f.n_words for f in rep.per_file)
    assert rep.bytes_per_position == rep.total_bytes / rep.total_words


def test_errors_reported_but_others_proceed(tmp_path):
    good = write(tmp_path, "good.txt", b"fine text")
    bad = write(tmp_path, "bad.txt", b"\xff\xfe broken")
    rep = compression_report([good, tmp_path / "missing.txt", bad])
    assert len(rep.per_file) == 1
    assert len(rep.errors) == 2
    assert rep.total_words == 2


def test_all_unreadable_raises(tmp_path):
    with pytest.raises(ValueError):
        compression_report([tmp_path / "nope.txt"])


def test_report_counts_spans(tmp_path):
    data = "zwölf Wörter sind hier nicht".encode()
    rep = compression_report([write(tmp_path, "a.txt", data)])
    assert (rep.total_bytes, rep.total_words) == (len(data), 5)


def test_bundled_english_in_range():
    rep = compression_report([DATA / "english_sample.txt"])
    assert 4.0 <= rep.bytes_per_position <= 7.0


def test_bundled_german_in_range():
    rep = compression_report([DATA / "german_sample.txt"])
    assert 4.5 <= rep.bytes_per_position <= 8.0


def test_format_kv_roundtrips_numbers(tmp_path):
    p = write(tmp_path, "x.txt", b"Hello world")
    rep = compression_report([p])
    kv = dict(line.split("=", 1) for line in rep.format_kv().splitlines())
    assert kv["total_bytes"] == "11"
    assert kv["bytes_per_position"] == "5.5000"

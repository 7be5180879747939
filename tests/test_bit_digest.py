"""`scripts/bit_digest.py`, whose output is diffed across checkouts, runs,
names each output once, and prints the digests committed in
`tests/data/bit_digest.txt`.

The file is the script's output on the environment its `# field value`
header names. Its integer `splitter.*` lines are compared everywhere; its
float lines where `fingerprint()` gives the header's values, and where only
the OpenBLAS thread count differs by a pair that `THREAD_LINES` names, all
but the lines it names. A change that moves bits on purpose regenerates the
file:

    PYTHONPATH=src python scripts/bit_digest.py > tests/data/bit_digest.txt
"""

import importlib.util
import re

import pytest

from conftest import REPO

COMMITTED = REPO / "tests" / "data" / "bit_digest.txt"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bit_digest",
                                                  REPO / "scripts" / "bit_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lines(script):
    """This checkout's digest lines, `name digest` each, in print order."""
    return [f"{name} {digest}" for name, digest in script.digests()]


def committed() -> tuple[dict[str, str], list[str]]:
    """The committed file's header fields and its digest lines."""
    head, body = {}, []
    for line in COMMITTED.read_text().splitlines():
        if line.startswith("# "):
            field, _, value = line[2:].partition(" ")
            head[field] = value
        else:
            body.append(line)
    return head, body


def splitter_lines(lines: list[str]) -> list[str]:
    return [line for line in lines if line.startswith("splitter.")]


def test_bit_digest_names_are_unique_and_digests_are_sha256(lines):
    names = [line.split()[0] for line in lines]
    assert len(names) == len(set(names)) > 0
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)


def test_digest_names_and_splitter_digests_match_the_committed_file(lines):
    # the splitter's closes and per-byte index are integers: the same on
    # every machine
    _, body = committed()
    assert [line.split()[0] for line in lines] == [line.split()[0] for line in body]
    assert len(splitter_lines(body)) == 6
    assert splitter_lines(lines) == splitter_lines(body)


# The float lines that differ between two OpenBLAS thread counts, the file's
# and this one's, in an environment whose other fields are the same: a
# gradient product split over another number of threads sums in another order.
THREAD_LINES = {
    ("2", "1"): {f"{cap}float{bits}.english1k.loss_and_grads"
                 for cap in ("", "nocap.") for bits in (32, 64)},
}


def test_float_digests_match_the_committed_file_in_its_environment(script, lines):
    head, body = committed()
    here = dict(script.fingerprint())
    assert set(here) == set(head)
    differ = [field for field in head if here[field] != head[field]]
    if differ == ["blas_threads"]:
        skip = THREAD_LINES.get((head["blas_threads"], here["blas_threads"]))
    else:
        skip = None if differ else set()
    if skip is None:
        pytest.skip("float digests hold in another environment: " + "; ".join(
            f"{field} is {here[field]!r} here, {head[field]!r} in the file" for field in differ))
    assert [line for line in lines if line.split()[0] not in skip] == \
        [line for line in body if line.split()[0] not in skip]

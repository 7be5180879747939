"""`scripts/bit_digest.py`, whose output is diffed across checkouts, runs
and names each output once."""

import importlib.util
import re

from conftest import REPO


def test_bit_digest_names_are_unique_and_digests_are_sha256():
    spec = importlib.util.spec_from_file_location("bit_digest",
                                                  REPO / "scripts" / "bit_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    pairs = script.digests()
    names = [name for name, _ in pairs]
    assert len(names) == len(set(names)) > 0
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, digest in pairs)

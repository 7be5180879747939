from pathlib import Path

import numpy as np
import pytest

from hatlm import config, model

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def micro_cfg():
    return config.micro()


@pytest.fixture(scope="session")
def micro_params(micro_cfg):
    return model.init_params(micro_cfg, seed=1234)


@pytest.fixture(scope="session")
def micro_params64(micro_cfg):
    return {k: v.astype(np.float64)
            for k, v in model.init_params(micro_cfg, seed=1234).items()}


POOLS = [
    [chr(c) for c in range(0x20, 0x7F)],
    [chr(c) for c in range(0xA0, 0x100)],
    [chr(c) for c in range(0x4E00, 0x4E80)] + [chr(c) for c in range(0x3040, 0x3094)],
    ["\U0001F600", "\U0001F680", "\U0001F1E9\U0001F1EA", "❤️",
     "é", "क्ष", "ß", "א", "ا"],
    [" ", "\n", "\t", ".", ",", "!", "?", "+", "=", "≤", "0", "7"],
]


def random_utf8_strings(n: int, seed: int, max_len: int = 40) -> list[str]:
    """Deterministic mixed-script corpus: ASCII, Latin-1 supplement, CJK, emoji."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(0, max_len))
        pool_ids = rng.integers(0, len(POOLS), size=k)
        picks = [POOLS[p][int(rng.integers(0, len(POOLS[p])))] for p in pool_ids]
        out.append("".join(picks))
    return out

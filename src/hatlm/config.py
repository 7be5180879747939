"""Model configuration: per-stack hyperparameters plus connector settings.

Configs serialize to canonical key-sorted `key=value` text so that two
equal configs always produce byte-identical files (used both for bundled
.cfg files and for checkpoint headers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

CONFIG_FORMAT_VERSION = 2


def _check_positive(key: str, v) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
        raise ValueError(f"{key} must be finite and positive, got {v!r}")


@dataclass(frozen=True)
class StackConfig:
    n_layers: int
    n_heads: int
    n_kv_heads: int
    head_size: int
    hidden: int
    mlp_expansion: float
    rope_base: float
    window: int | None      # sliding look-back incl. self; None = global causal
    max_positions: int

    @property
    def intermediate(self) -> int:
        return int(round(self.mlp_expansion * self.hidden))

    def validate(self, name: str) -> None:
        for f in ("n_layers", "n_heads", "n_kv_heads", "head_size", "hidden", "max_positions"):
            v = getattr(self, f)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name}.{f} must be a positive integer, got {v!r}")
        for f in ("mlp_expansion", "rope_base"):
            _check_positive(f"{name}.{f}", getattr(self, f))
        if self.intermediate < 1:
            raise ValueError(f"{name}.mlp_expansion gives no MLP unit, got {self.mlp_expansion!r}")
        if self.n_heads * self.head_size != self.hidden:
            raise ValueError(f"{name}: n_heads*head_size must equal hidden")
        if self.n_heads % self.n_kv_heads:
            raise ValueError(f"{name}: n_heads not divisible by n_kv_heads")
        if self.head_size % 2:
            raise ValueError(f"{name}: head_size must be even for rotary pairs")
        w = self.window
        if w is not None and (isinstance(w, bool) or not isinstance(w, int) or w < 1):
            raise ValueError(f"{name}.window must be none or a positive integer, got {w!r}")


@dataclass(frozen=True)
class HatConfig:
    encoder: StackConfig
    backbone: StackConfig
    decoder: StackConfig
    max_word_bytes: int
    qk_norm: bool
    softcap: float | None    # attention logit cap, None disables
    norm_eps: float = 1e-5
    byte_vocab: ClassVar[int] = 256

    def __post_init__(self):
        self.encoder.validate("encoder")
        self.backbone.validate("backbone")
        self.decoder.validate("decoder")
        if self.backbone.hidden % self.encoder.head_size:
            raise ValueError("backbone hidden must be divisible by encoder head_size")
        if self.encoder.hidden != self.decoder.hidden:
            raise ValueError("decoder consumes encoder states: hidden sizes must match")
        if self.backbone.window is not None:
            raise ValueError("backbone.window must be none: generation reads every word")
        if self.backbone.max_positions < 2:
            raise ValueError("backbone.max_positions must hold BOS and a word")
        w = self.max_word_bytes
        if isinstance(w, bool) or not isinstance(w, int):
            raise ValueError(f"max_word_bytes must be an integer, got {w!r}")
        if w < 4:
            raise ValueError("max_word_bytes must hold one UTF-8 codepoint")
        if not isinstance(self.qk_norm, bool):
            raise ValueError(f"qk_norm must be true or false, got {self.qk_norm!r}")
        _check_positive("norm_eps", self.norm_eps)
        if self.softcap is not None:
            _check_positive("softcap", self.softcap)

    @property
    def cross_hidden(self) -> int:
        """Width of the pooling connector: it emits backbone inputs."""
        return self.backbone.hidden

    @property
    def n_enc_cross_heads(self) -> int:
        """Pooling connector heads, each of the encoder's head size."""
        return self.backbone.hidden // self.encoder.head_size


def table1() -> HatConfig:
    """The 8B-class configuration (6/32/4 layers, hidden 1024/4096/1024)."""
    return HatConfig(
        encoder=StackConfig(6, 8, 8, 128, 1024, 2.75, 1e5, 768, 262_144),
        backbone=StackConfig(32, 32, 8, 128, 4096, 3.5, 5e5, None, 32_900),
        decoder=StackConfig(4, 8, 8, 128, 1024, 2.75, 1e5, 768, 262_144),
        max_word_bytes=128,
        qk_norm=False,
        softcap=None,
    )


def table2() -> HatConfig:
    """The 70B-class configuration (6/80/4 layers, hidden 2048/8192/2048)."""
    return HatConfig(
        encoder=StackConfig(6, 16, 16, 128, 2048, 2.75, 1e5, 768, 98_304),
        backbone=StackConfig(80, 64, 8, 128, 8192, 3.5, 5e5, None, 12_288),
        decoder=StackConfig(4, 16, 16, 128, 2048, 2.75, 1e5, 768, 98_304),
        max_word_bytes=128,
        qk_norm=False,
        softcap=None,
    )


def micro() -> HatConfig:
    """Desk-scale test configuration: 2/2/2 layers, hidden 16/64/16."""
    return HatConfig(
        encoder=StackConfig(2, 2, 1, 8, 16, 2.0, 1e5, 8, 4096),
        backbone=StackConfig(2, 8, 4, 8, 64, 2.0, 5e5, None, 1024),
        decoder=StackConfig(2, 2, 1, 8, 16, 2.0, 1e5, 8, 4096),
        max_word_bytes=16,
        qk_norm=True,
        softcap=30.0,
    )


PRESETS = {"table1": table1, "table2": table2, "micro": micro}


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse(s: str):
    if s == "none":
        return None
    if s in ("true", "false"):
        return s == "true"
    try:
        return int(s)
    except ValueError:
        return float(s)


def to_text(cfg: HatConfig) -> str:
    """Canonical key-sorted text form; identical configs give identical text."""
    items = {"format_version": CONFIG_FORMAT_VERSION}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, StackConfig):
            for sf in fields(v):
                items[f"{f.name}.{sf.name}"] = getattr(v, sf.name)
        else:
            items[f.name] = v
    return "".join(f"{k}={_fmt(items[k])}\n" for k in sorted(items))


def from_text(text: str) -> HatConfig:
    raw = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {line!r}")
        k, _, v = (part.strip() for part in line.partition("="))
        if k in raw:
            raise ValueError(f"line {ln}: config key {k} given twice")
        try:
            raw[k] = _parse(v)
        except ValueError:
            raise ValueError(f"line {ln}: config key {k} has no valid value: {v!r}") from None
    version = raw.pop("format_version", None)
    if version != CONFIG_FORMAT_VERSION:
        raise ValueError(f"unsupported config format version {version!r}")

    stacks = {}
    for stack in ("encoder", "backbone", "decoder"):
        kw = {}
        for f in fields(StackConfig):
            key = f"{stack}.{f.name}"
            if key not in raw:
                raise ValueError(f"missing config key {key}")
            kw[f.name] = raw.pop(key)
        stacks[stack] = StackConfig(**kw)

    top = {}
    for f in fields(HatConfig):
        if f.name in ("encoder", "backbone", "decoder"):
            continue
        if f.name not in raw:
            raise ValueError(f"missing config key {f.name}")
        top[f.name] = raw.pop(f.name)
    if raw:
        raise ValueError(f"unknown config keys: {sorted(raw)}")
    return HatConfig(**stacks, **top)


def load(path) -> HatConfig:
    with open(path, encoding="utf-8") as fh:
        return from_text(fh.read())


def save(cfg: HatConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(cfg))

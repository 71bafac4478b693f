"""Analysis configuration: defaults, flat key=value files, CLI overrides.

Defaults follow the standard recipe for 25 fps dyadic recordings (correlation
threshold 0.8, 75-frame minimum window, shift grid up to +-12 frames, 51-frame
median filter, 12-frame extension, confidence cutoff 0.89, alpha 0.05), so a
bare run reproduces the published procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .au_features import EXPRESSIONS_BY_NAME
from .errors import ConfigError
from .intervals import IntervalParams

GC_MODES = ("pooled", "averaged")
SIGNAL_MODES = ("expression_mean", "per_au")
ORDER_CRITERIA = ("aic", "bic")

#: expressions analyzed by default in the causality tables.
DEFAULT_EXPRESSIONS = (
    "happiness_lower",
    "happiness_upper",
    "sadness_lower",
    "sadness_upper",
)


@dataclass(frozen=True)
class AnalysisConfig:
    beta: float = 0.8
    l_min: int = 75
    shifts: tuple[int, ...] = (-12, -8, -4, 0, 4, 8, 12)
    median_kernel: int = 51
    extension: int = 12
    confidence: float = 0.89
    activation_factor: float = 0.5
    alpha: float = 0.05
    m_max: int = 12
    order_criterion: str = "bic"
    gc_mode: str = "pooled"
    signal_mode: str = "expression_mean"
    expressions: tuple[str, ...] = DEFAULT_EXPRESSIONS
    fdr_q: float = 0.05
    workers: int = 1

    def __post_init__(self):
        if self.gc_mode not in GC_MODES:
            raise ConfigError(f"gc_mode must be one of {GC_MODES}, got {self.gc_mode!r}")
        if self.signal_mode not in SIGNAL_MODES:
            raise ConfigError(
                f"signal_mode must be one of {SIGNAL_MODES}, got {self.signal_mode!r}"
            )
        if self.order_criterion not in ORDER_CRITERIA:
            raise ConfigError(
                f"order_criterion must be one of {ORDER_CRITERIA}, got {self.order_criterion!r}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ConfigError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.m_max < 1:
            raise ConfigError(f"m_max must be >= 1, got {self.m_max}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "shifts", tuple(int(s) for s in self.shifts))
        object.__setattr__(self, "expressions", tuple(self.expressions))
        unknown = [name for name in self.expressions if name not in EXPRESSIONS_BY_NAME]
        if unknown:
            raise ConfigError(f"unknown expressions {unknown}; known: {sorted(EXPRESSIONS_BY_NAME)}")
        # delegate the interval-parameter validation
        self.interval_params()

    def interval_params(self) -> IntervalParams:
        return IntervalParams(
            beta=self.beta,
            l_min=self.l_min,
            shifts=self.shifts,
            median_kernel=self.median_kernel,
            extension=self.extension,
        )


_INT_KEYS = {"l_min", "median_kernel", "extension", "m_max", "workers"}
_FLOAT_KEYS = {"beta", "confidence", "activation_factor", "alpha", "fdr_q"}
_STR_KEYS = {"order_criterion", "gc_mode", "signal_mode"}
_LIST_INT_KEYS = {"shifts"}
_LIST_STR_KEYS = {"expressions"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _STR_KEYS:
            return raw
        if key in _LIST_INT_KEYS:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if key in _LIST_STR_KEYS:
            return tuple(v.strip() for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    raise ConfigError(f"unknown config key {key!r}")


def load_config(path) -> AnalysisConfig:
    """Read a flat ``key = value`` config file (# comments allowed)."""
    values = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = _parse_value(key.strip(), val)
    return AnalysisConfig(**values)


def with_overrides(cfg: AnalysisConfig, **overrides) -> AnalysisConfig:
    """Non-None overrides applied on top of a config."""
    actual = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **actual) if actual else cfg

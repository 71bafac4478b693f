"""Benchmark workloads: deterministic cohorts, their analysis config, and planted truth.

Every workload is built from the ``--seed`` argument alone, so the same seed
always yields byte-identical input files. The program under test only ever
sees the generated CSVs and manifest.

* ``golden`` is the published demo recipe at the size of the golden fixture
  (4 pairs x 3000 frames, default config). CSV ingest dominates it.
* ``long`` is one pair of 12-minute recordings (18000 frames at 25 fps) with
  strong lag-4 mimicry over half the span, so the interval miner walks
  thousands of length levels at the matched shift and dominates.
* ``wide`` re-uses the golden files but analyzes all ten computable
  expressions per AU with averaged per-segment tests: many small VAR fits and
  many ``mine_shifted`` calls on inputs already mined for another expression
  that shares the AU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dyadgc.au_features import CONDITIONS, EXPRESSIONS, ROLES, AU_IDS
from dyadgc.synth import (
    COHORT_SCENARIO,
    CouplingSpec,
    gen_au_fixture,
    make_demo_cohort,
    spaced_windows,
)

#: seed of the published demo cohort; its report is committed under tests/data.
GOLDEN_SEED = 20240501

#: planted synth direction -> the outcome value written to results.jsonl.
_OUTCOME_OF_DIRECTION = {
    "x_to_y": "sender_causes_receiver",
    "y_to_x": "receiver_causes_sender",
}

#: every expression whose member AUs OpenFace records (anger_lower needs AU24).
COMPUTABLE_EXPRESSIONS = tuple(e.name for e in EXPRESSIONS if e.available_in(AU_IDS))


@dataclass(frozen=True)
class Size:
    n_pairs: int
    length: int


@dataclass(frozen=True)
class Workload:
    name: str
    builder: Callable[[Path, int, Size], Path]
    full: Size
    smoke: Size
    config: dict = field(default_factory=dict)


def build_demo(out_dir: Path, seed: int, size: Size) -> Path:
    return make_demo_cohort(out_dir, n_pairs=size.n_pairs, length=size.length, seed=seed)


def build_long(out_dir: Path, seed: int, size: Size) -> Path:
    """Demo-cohort layout with strong, long mimicry windows (half the span).

    Strength 8 with no autoregression gives an in-window correlation of about
    0.99 at the matched shift, so each window is one correlated stretch of
    ``length / 4`` frames and the miner walks that many levels.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["pair_id,role,condition,path"]
    for i in range(size.n_pairs):
        pair_id = f"pair{i + 1:02d}"
        for ci, condition in enumerate(CONDITIONS):
            cell_seed = seed + 1009 * i + 101 * ci
            rng = np.random.default_rng(cell_seed)
            expr, direction = COHORT_SCENARIO[condition]
            specs = {}
            if expr is not None:
                windows = spaced_windows(size.length, coverage=0.5, n_windows=2, rng=rng)
                specs[expr] = CouplingSpec(
                    direction=direction,
                    lag=4,
                    strength=8.0,
                    ar_coeff=0.0,
                    noise_std=1.0,
                    active_intervals=windows,
                    length=size.length,
                    seed=cell_seed + 7,
                )
            low_conf = tuple(int(f) for f in rng.integers(0, size.length, size=3))
            s_path, r_path, _ = gen_au_fixture(
                specs, out_dir, pair_id, condition, seed=cell_seed + 13,
                low_conf_frames=low_conf, length=size.length, base=1.2, bump=0.4,
                onset=0, swing=0.5,
            )
            rows.append(f"{pair_id},sender,{condition},{s_path.name}")
            rows.append(f"{pair_id},receiver,{condition},{r_path.name}")
    manifest = out_dir / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "golden",
            build_demo,
            full=Size(4, 3000),
            smoke=Size(2, 600),
        ),
        Workload(
            "long",
            build_long,
            full=Size(1, 18000),
            smoke=Size(1, 1200),
        ),
        Workload(
            "wide",
            build_demo,
            full=Size(4, 3000),
            smoke=Size(2, 600),
            config={
                "expressions": COMPUTABLE_EXPRESSIONS,
                "signal_mode": "per_au",
                "gc_mode": "averaged",
            },
        ),
    )
}


def planted_outcome(condition: str, expression: str) -> str | None:
    """Outcome a correct analysis reports for a planted cell; None when nothing is planted."""
    expr, direction = COHORT_SCENARIO[condition]
    if expr != expression:
        return None
    return _OUTCOME_OF_DIRECTION[direction]


def expected_cells(size: Size, expressions) -> set[tuple[str, str, str]]:
    """Every (pair, condition, expression) cell the pipeline must report."""
    return {
        (f"pair{i + 1:02d}", condition, expr)
        for i in range(size.n_pairs)
        for condition in CONDITIONS
        for expr in expressions
    }


def total_frames(size: Size) -> int:
    """Input frames summed over every recording of the cohort."""
    return size.n_pairs * len(CONDITIONS) * len(ROLES) * size.length

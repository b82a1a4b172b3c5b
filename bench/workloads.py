"""The benchmark's workloads: input shapes and the run settings of each.

Widths that set per-item cost are paper-shaped (D=1024 for DenseNet-121
features, d=100, n=14, C=8); row counts are cut so that one run fits in tens
of seconds on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from inputs import DataSpec

RATIOS = (0.7, 0.1, 0.2)
SPLIT_SEED = 0
TRAIN_SEED = 0
COOCCUR_THRESHOLD = 0.2
EMBED_DIM = 100
CHANNELS = 8
BATCH_SIZE = 32
LEARNING_RATE = 1e-3
# Test-fold macro-AUC every fit and every scored table must reach.
AUC_FLOOR = 0.9
# ``predict`` scores an ingest table this many times per repeat, so that it
# takes about as long as the rest of the repeat.
INGEST_PASSES = 2


@dataclass(frozen=True)
class Fit:
    """A ``train`` then ``eval`` run on one table, at a fixed epoch count."""

    data: DataSpec
    scorer: str
    policy: str
    cooccurrence: bool
    epochs: int
    # ``predict`` scores the whole feature table this many times: one pass
    # over fit-distmult's 2000 images lasts 0.2 s, too little to time steadily.
    predict_passes: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    fit: Fit
    # A table built into a graph and scored with the checkpoint that ``fit``
    # writes just before, in the same process. None for a pure fit workload.
    ingest: DataSpec | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-distmult",
            fit=Fit(
                data=DataSpec(m=2000, dim=1024, uncertain=0.2),
                scorer="distmult", policy="separate", cooccurrence=True,
                epochs=3, predict_passes=16,
            ),
        ),
        Workload(
            name="ingest-predict",
            fit=Fit(
                data=DataSpec(m=400, dim=128, uncertain=0.2, blank=0.3, groups=True),
                scorer="conve", policy="separate", cooccurrence=True,
                epochs=4,
            ),
            ingest=DataSpec(m=10000, dim=128, uncertain=0.2, blank=0.3, groups=True),
        ),
    )
}

"""Seeded, planted-prototype input generator for the benchmark.

It is written independently of ``radkg.synth_dataset`` so that a change to the
program cannot change the benchmark's inputs. Each finding gets a Gaussian
prototype; an image's feature code is the sum of the prototypes of its
positive findings plus isotropic noise, so the features betray the labels.

Label cells follow the CheXpert CSV convention: ``1`` positive, ``0``
negative, ``-1`` uncertain (a positive downgraded after the features were
formed) and blank for unmentioned (a negative the report never named).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

POSITIVE, NEGATIVE, UNCERTAIN, UNMENTIONED = 1, 0, -1, -2
_TOKENS = {POSITIVE: "1", NEGATIVE: "0", UNCERTAIN: "-1", UNMENTIONED: ""}

# Distinguishes this generator's random stream from any other use of a seed.
_STREAM = 0x7AD6
# Findings per image, as in CheXpert's label set, and the chance that each
# is positive.
N_FINDINGS = 14
SPARSITY = 0.25


@dataclass(frozen=True)
class DataSpec:
    """Shape and cell mix of one generated table."""

    m: int
    dim: int
    noise: float = 0.5
    uncertain: float = 0.0
    blank: float = 0.0
    groups: bool = False


@dataclass
class Dataset:
    image_ids: list[str]
    finding_names: list[str]
    codes: np.ndarray
    labels: np.ndarray
    groups: list[str] | None

    def rows(self, start: int, stop: int) -> "Dataset":
        return Dataset(
            self.image_ids[start:stop],
            self.finding_names,
            self.codes[start:stop],
            self.labels[start:stop],
            None if self.groups is None else self.groups[start:stop],
        )


def generate(spec: DataSpec, seed: int) -> Dataset:
    """The same (spec, seed) always gives the same dataset, bit for bit."""
    rng = np.random.default_rng([_STREAM, seed])
    prototypes = rng.normal(0.0, 1.0, size=(N_FINDINGS, spec.dim))
    positive = rng.random((spec.m, N_FINDINGS)) < SPARSITY
    forced = rng.integers(0, N_FINDINGS, size=spec.m)
    empty = ~positive.any(axis=1)
    positive[empty, forced[empty]] = True
    codes = positive.astype(np.float64) @ prototypes
    codes += rng.normal(0.0, spec.noise, size=(spec.m, spec.dim))

    labels = np.where(positive, POSITIVE, NEGATIVE).astype(np.int8)
    labels[positive & (rng.random(positive.shape) < spec.uncertain)] = UNCERTAIN
    labels[~positive & (rng.random(positive.shape) < spec.blank)] = UNMENTIONED

    groups = None
    if spec.groups:
        # Patients with 1 to 4 studies each, in row order.
        sizes = rng.integers(1, 5, size=spec.m)
        patient = np.repeat(np.arange(spec.m), sizes)[: spec.m]
        groups = [f"patient{p:06d}" for p in patient.tolist()]

    return Dataset(
        image_ids=[f"img{i:06d}" for i in range(spec.m)],
        finding_names=[f"finding_{j:02d}" for j in range(N_FINDINGS)],
        codes=codes,
        labels=labels,
        groups=groups,
    )


def write_features(data: Dataset, path) -> dict:
    """Feature CSV ``id,f0..f{D-1}``; ``repr`` round-trips every double."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["id"] + [f"f{k}" for k in range(data.codes.shape[1])]) + "\n")
        for image_id, row in zip(data.image_ids, data.codes.tolist()):
            fh.write(image_id + "," + ",".join(map(repr, row)) + "\n")
    return describe(path, data.codes.shape[0], data.codes.shape[1])


def write_annotations(data: Dataset, path) -> dict:
    """Annotation CSV ``id,<finding>...[,group]`` with CheXpert cell tokens."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ["id", *data.finding_names] + (["group"] if data.groups is not None else [])
        fh.write(",".join(header) + "\n")
        for i, (image_id, row) in enumerate(zip(data.image_ids, data.labels.tolist())):
            cells = [image_id] + [_TOKENS[v] for v in row]
            if data.groups is not None:
                cells.append(data.groups[i])
            fh.write(",".join(cells) + "\n")
    return describe(path, data.labels.shape[0], data.labels.shape[1])


def describe(path, rows: int, dim: int) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    return {"file": os.path.basename(path), "rows": rows, "dim": dim,
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}

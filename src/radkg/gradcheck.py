"""Finite-difference verification of the analytic gradients.

Random models are checked coordinate-by-coordinate against central
differences, both on the raw triple score and through the full
sigmoid-plus-cross-entropy item loss. A central difference straddling a ReLU
kink mixes two linear pieces and legitimately disagrees with the (one-sided)
analytic subgradient, so every probe records the sign pattern of all ReLU
pre-activations at both endpoints and the coordinate is skipped when the
pattern flips; everything else must match within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scoring
from .kg import RelationKind
from .training import _item_loss

TOLERANCE = 1e-4
STEP = 1e-5
#: |psi| above which the loss clamp engages (at |psi| ~ 27.6 the sigmoid is
#: within 1e-12 of its limit) and a finite difference would read zero slope.
SATURATION_LIMIT = 25.0
EXHAUSTIVE_LIMIT = 128
SAMPLES_PER_BLOCK = 48


@dataclass
class GradCheckResult:
    scorer: str
    feature_dim: int
    embed_dim: int
    channels: int
    seed: int
    mode: str
    max_rel_error: float
    coords_checked: int
    coords_skipped: int
    attempts: int


def _random_instance(scorer, feature_dim, embed_dim, n_findings, channels, seed,
                     max_attempts=200):
    """Random model + input + targets suitable for differencing.

    The model comes from ``scoring.init_model``, whose fan-scaled bounds keep
    activations O(1) at every width; model, input and targets are drawn from
    one generator per attempt. Instances are regenerated when any score
    saturates the loss clamp, or (conv scorer) when every ReLU output is dead
    and the deeper gradients would be vacuously zero.
    """
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt])
        model = scoring.init_model(scorer, feature_dim, embed_dim, n_findings,
                                   channels=channels, seed=rng)
        c_x = rng.normal(0.0, 1.0, feature_dim)
        targets = (rng.random(n_findings) < 0.5).astype(np.float64)

        psi = scoring.score_all_objects(model, c_x, RelationKind.HAS_FINDING)
        if np.max(np.abs(psi)) > SATURATION_LIMIT:
            continue
        if scorer == "conve":
            pipe = scoring.conve_pipeline(model, scoring.embed_subject(model, c_x),
                                          model.er[0])
            if not (np.any(pipe.flat > 0.0) and np.any(pipe.a2 > 0.0)):
                continue
        return model, c_x, targets, attempt + 1
    raise RuntimeError(
        f"no usable instance found in {max_attempts} attempts for seed {seed}"
    )


def check_gradients(
    scorer: str,
    feature_dim: int = 16,
    embed_dim: int = 16,
    n_findings: int = 5,
    channels: int = 4,
    seed: int = 0,
    mode: str = "loss",
    h: float = STEP,
) -> GradCheckResult:
    """Compare analytic gradients to central differences on one instance.

    mode "loss" checks the mean item BCE through the sigmoid; mode "score"
    checks the raw score of a single triple. Small blocks are checked on
    every coordinate; large blocks on a deterministic sample plus one random
    directional derivative that touches every coordinate at once.
    """
    if mode not in ("loss", "score"):
        raise ValueError(f"unknown mode {mode!r}")
    model, c_x, targets, attempts = _random_instance(
        scorer, feature_dim, embed_dim, n_findings, channels, seed
    )
    relation = RelationKind.HAS_FINDING
    ridx = model.relation_index(relation)
    j_fixed = seed % n_findings

    def probe() -> tuple[float, np.ndarray | None]:
        """Objective value plus the ReLU pre-activation sign pattern."""
        e_s = scoring.embed_subject(model, c_x)
        if model.scorer == "conve":
            pipe = scoring.conve_pipeline(model, e_s, model.er[ridx])
            psi = model.ef @ pipe.a2
            signs = np.concatenate([np.sign(pipe.conv_out).ravel(), np.sign(pipe.z2)])
        else:
            psi = model.ef @ (e_s * model.er[ridx])
            signs = None
        value = _item_loss(psi, targets)[0] if mode == "loss" else float(psi[j_fixed])
        return value, signs

    psi = scoring.score_all_objects(model, c_x, relation)
    if mode == "loss":
        _, dpsi = _item_loss(psi, targets)
        analytic = scoring.grad_all_objects(model, c_x, relation, dpsi)
    else:
        analytic = scoring.grad_score(model, c_x, relation, j_fixed, 1.0)

    grads = dict(analytic.blocks())
    grads["c_x"] = analytic.c_x
    blocks = dict(model.blocks())
    blocks["c_x"] = c_x

    max_err = 0.0
    checked = 0
    skipped = 0

    def compare(along: float, hi: float, lo: float, signs_hi, signs_lo) -> None:
        nonlocal max_err, checked, skipped
        if signs_hi is not None and not np.array_equal(signs_hi, signs_lo):
            skipped += 1
            return
        fd = (hi - lo) / (2.0 * h)
        err = abs(along - fd) / max(abs(along), abs(fd), 1e-6)
        max_err = max(max_err, err)
        checked += 1

    sample_rng = np.random.default_rng([seed, 0xC0FFEE])
    for name, block in blocks.items():
        flat = block.reshape(-1)
        gflat = grads[name].reshape(-1)
        if flat.size <= EXHAUSTIVE_LIMIT:
            indices = np.arange(flat.size)
        else:
            indices = sample_rng.choice(flat.size, SAMPLES_PER_BLOCK, replace=False)
        for idx in indices:
            saved = flat[idx]
            flat[idx] = saved + h
            hi, signs_hi = probe()
            flat[idx] = saved - h
            lo, signs_lo = probe()
            flat[idx] = saved
            compare(float(gflat[idx]), hi, lo, signs_hi, signs_lo)
        if flat.size > EXHAUSTIVE_LIMIT:
            direction = sample_rng.uniform(-1.0, 1.0, flat.size)
            direction /= np.linalg.norm(direction)
            saved = flat.copy()
            flat += h * direction
            hi, signs_hi = probe()
            flat[:] = saved - h * direction
            lo, signs_lo = probe()
            flat[:] = saved
            compare(float(gflat @ direction), hi, lo, signs_hi, signs_lo)
    return GradCheckResult(
        scorer=scorer,
        feature_dim=feature_dim,
        embed_dim=embed_dim,
        channels=channels if scorer == "conve" else 0,
        seed=seed,
        mode=mode,
        max_rel_error=max_err,
        coords_checked=checked,
        coords_skipped=skipped,
        attempts=attempts,
    )


@dataclass
class SuiteReport:
    results: list[GradCheckResult]
    max_rel_error: float
    tolerance: float
    passed: bool


def run_suite(cases, seeds, mode: str = "loss", tolerance: float = TOLERANCE) -> SuiteReport:
    """Run check_gradients over (scorer, D, d, n, C) cases crossed with seeds."""
    results = []
    for scorer, feature_dim, embed_dim, n_findings, channels in cases:
        for seed in seeds:
            results.append(
                check_gradients(scorer, feature_dim, embed_dim, n_findings, channels,
                                seed=seed, mode=mode)
            )
    worst = max(r.max_rel_error for r in results) if results else 0.0
    return SuiteReport(results, worst, tolerance, worst < tolerance)


def default_cases(scorer: str) -> list[tuple]:
    """Desk-scale case grid for one scorer.

    The trilinear scorer runs at every embedding dim; the conv scorer needs a
    square dim whose side fits the 5x5 kernel, so its grid starts at d=25.
    """
    if scorer == "distmult":
        return [
            ("distmult", feature_dim, embed_dim, 5, 0)
            for embed_dim in (4, 16, 100)
            for feature_dim in (8, 1024)
        ]
    if scorer == "conve":
        return [
            ("conve", feature_dim, embed_dim, 5, channels)
            for embed_dim in (25, 100)
            for feature_dim in (8, 1024)
            for channels in (1, 8)
        ]
    raise ValueError(f"unknown scorer {scorer!r}")

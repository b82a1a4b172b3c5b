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
from .training import item_loss

TOLERANCE = 1e-4
STEP = 1e-5
#: |psi| above which the loss clamp engages (at |psi| ~ 27.6 the sigmoid is
#: within 1e-12 of its limit) and a finite difference would read zero slope.
SATURATION_LIMIT = 25.0
EXHAUSTIVE_LIMIT = 128
SAMPLES_PER_BLOCK = 48
#: Instances ``_random_instance`` draws for one seed before it gives up.
MAX_ATTEMPTS = 200


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


def _random_instance(scorer, feature_dim, embed_dim, n_findings, channels, seed):
    """Random model + input + targets suitable for differencing.

    The model comes from ``scoring.init_model``, whose fan-scaled bounds keep
    activations O(1) at every width; model, input and targets are drawn from
    one generator per attempt. Instances are regenerated when any score
    saturates the loss clamp, or (conv scorer) when every ReLU output is dead
    and the deeper gradients would be vacuously zero.
    """
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        model = scoring.init_model(scorer, feature_dim, embed_dim, n_findings,
                                   channels=channels, seed=rng)
        c_x = rng.normal(0.0, 1.0, feature_dim)
        targets = (rng.random(n_findings) < 0.5).astype(np.float64)

        psi, cache = scoring.forward(model, (c_x @ model.wx)[None], [0])
        if np.max(np.abs(psi)) > SATURATION_LIMIT:
            continue
        if scorer == "conve" and not (np.any(cache.pipe.flat > 0.0) and np.any(cache.h > 0.0)):
            continue
        return model, c_x, targets, attempt + 1
    raise RuntimeError(
        f"no usable instance found in {MAX_ATTEMPTS} attempts for seed {seed}"
    )


def check_gradients(
    scorer: str,
    feature_dim: int = 16,
    embed_dim: int = 16,
    n_findings: int = 5,
    channels: int = 4,
    seed: int = 0,
    mode: str = "loss",
) -> GradCheckResult:
    """Compare analytic gradients to central differences on one instance.

    mode "loss" checks the mean item BCE through the sigmoid; mode "score"
    checks the raw score of a single triple. The analytic gradients come from
    one B=1 ``scoring.forward``/``scoring.backward`` call, with dL/de_s routed
    into wx and the feature code; the differences are taken on the same B=1
    ``scoring.forward``, one call per probe. Small blocks are checked on
    every coordinate; large blocks on a deterministic sample plus one random
    directional derivative that touches every coordinate at once. Each probe
    moves ``flat[where]`` by STEP along a unit step, 1.0 for one coordinate
    or the direction for the whole block.
    """
    if mode not in ("loss", "score"):
        raise ValueError(f"unknown mode {mode!r}")
    model, c_x, targets, attempts = _random_instance(
        scorer, feature_dim, embed_dim, n_findings, channels, seed
    )
    ridx = model.relation_index(RelationKind.HAS_FINDING)
    j_fixed = seed % n_findings

    def probe() -> tuple[float, np.ndarray | None]:
        """Objective value plus the ReLU pre-activation sign pattern."""
        psi, cache = scoring.forward(model, (c_x @ model.wx)[None], [ridx])
        value = item_loss(psi[0], targets)[0] if mode == "loss" else float(psi[0, j_fixed])
        pipe = cache.pipe
        return value, None if pipe is None else np.sign(np.append(pipe.conv_out, pipe.z2))

    psi, cache = scoring.forward(model, (c_x @ model.wx)[None], [ridx])
    if mode == "loss":
        _, dpsi = item_loss(psi[0], targets)
    else:
        dpsi = np.zeros(n_findings)
        dpsi[j_fixed] = 1.0
    grads, d_es = scoring.backward(model, cache, dpsi[None])
    grads["wx"] = np.outer(c_x, d_es[0])
    grads["c_x"] = model.wx @ d_es[0]
    blocks = dict(model.blocks())
    blocks["c_x"] = c_x

    errors: list[float] = []
    skipped = 0
    sample_rng = np.random.default_rng([seed, 0xC0FFEE])
    for name, block in blocks.items():
        flat = block.reshape(-1)
        gflat = grads[name].reshape(-1)
        if flat.size <= EXHAUSTIVE_LIMIT:
            probes = [(idx, 1.0) for idx in range(flat.size)]
        else:
            sample = sample_rng.choice(flat.size, SAMPLES_PER_BLOCK, replace=False)
            direction = sample_rng.uniform(-1.0, 1.0, flat.size)
            probes = [(idx, 1.0) for idx in sample]
            probes.append((slice(None), direction / np.linalg.norm(direction)))
        for where, unit in probes:
            saved = flat[where].copy()
            flat[where] = saved + STEP * unit
            hi, signs_hi = probe()
            flat[where] = saved - STEP * unit
            lo, signs_lo = probe()
            flat[where] = saved
            if signs_hi is not None and not np.array_equal(signs_hi, signs_lo):
                skipped += 1
                continue
            along = float(np.dot(gflat[where], unit))
            fd = (hi - lo) / (2.0 * STEP)
            errors.append(abs(along - fd) / max(abs(along), abs(fd), 1e-6))
    return GradCheckResult(
        scorer=scorer,
        feature_dim=feature_dim,
        embed_dim=embed_dim,
        channels=channels if scorer == "conve" else 0,
        seed=seed,
        mode=mode,
        max_rel_error=float(np.max(errors, initial=0.0)),  # a NaN error is the worst
        coords_checked=len(errors),
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
    """Run check_gradients over (scorer, D, d, n, C) cases crossed with seeds.

    The suite passes when its worst error is below ``tolerance``; a NaN
    error is the worst and fails it.
    """
    if not cases or not seeds:
        raise ValueError("gradcheck needs at least one case and one seed")
    if not (tolerance > 0.0 and np.isfinite(tolerance)):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    results = []
    for scorer, feature_dim, embed_dim, n_findings, channels in cases:
        for seed in seeds:
            results.append(
                check_gradients(scorer, feature_dim, embed_dim, n_findings, channels,
                                seed=seed, mode=mode)
            )
    worst = float(np.max([r.max_rel_error for r in results]))
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

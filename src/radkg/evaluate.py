"""Inference and evaluation.

Labels are inferred by scoring the completion (image, hasFinding, F_j) for
every finding; ``predict_table`` returns the (m, n) grid of scores for m
images. Every query shares the relation, so its part of the score is
computed once per table: distmult folds it into one (n, D) map of the
feature code, and the conv scorer folds the convolution rows that see only
the relation into one constant vector. Both score a table in chunks on
every usable CPU that the BLAS's own threads leave idle, with the same
scores at any CPU count. Quality is measured per finding by AUC-ROC in the
rank-sum formulation and summarized as an unweighted macro mean over the
findings where AUC is defined.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernel, scoring
from .artifacts import check_cells, comment_block, csv_cell, open_commented
from .kg import AnnotationTable, RelationKind, UncertainPolicy, relation_grid

#: Rows ``predict_table`` convolves at a time for the conv scorer. At D=128,
#: d=100, C=8, chunks of 16 to 256 rows all scored 8.3-9.2 us per image and
#: 512 rows 11-12 us, and larger chunks raise the peak memory of a scoring
#: run: at 256 rows the conv slab grid, the conv output and its ReLU take
#: 1.0 MB each; at 64, 0.25 MB, per CPU.
PREDICT_CHUNK = 64
#: Rows of a distmult table in one product. At D=1024, n=14, products of
#: 512 rows took 3-6% longer than one for the table and of 256 rows 5-13%;
#: with 1024 rows a 2000-row table would have one range.
DISTMULT_CHUNK = 512


@dataclass
class Predictions:
    """Scores of every image against every finding: row i of the (m, n)
    grids ``psi`` and ``p = sigmoid(psi)`` belongs to ``image_ids[i]``."""

    image_ids: list[str]
    psi: np.ndarray
    p: np.ndarray

    def __len__(self) -> int:
        return len(self.image_ids)


def predict_table(model: scoring.EmbeddingModel, features) -> Predictions:
    """Score (image, hasFinding, F_j) for every row of a feature table and
    apply the sigmoid, a chunk of rows at a time, on every usable CPU that
    the BLAS's own threads leave idle: the shared ``kernel.Lanes``, opened
    for this call, each lane taking one ``kernel.ranges`` range of at least
    two chunks. psi and p are the same bit for bit at any CPU count; both
    are views of (n, m) grids.

    distmult's psi = ((c @ wx) * r) @ ef.T equals (((ef * r) @ wx.T) @ c.T).T
    up to rounding. Folding that (n, D) map once costs less than scoring n
    images one by one, and each chunk is then one (n, D) x (D, rows)
    product with it, an orientation OpenBLAS runs faster than
    (rows, D) x (D, n) (scipy-openblas 0.3.31, 1 thread: 4.6 against 6.4 ms
    for one product at m=2000, D=1024, n=14).

    The conv scorer is ``scoring.forward`` up to rounding. Its stacked 2k x k
    input ends in the k x k plane of r, so conv output rows y >= k read only
    r, and their share of z2 is one (d,) vector, ``bias``, folded once. Each
    chunk convolves the image plane and the first 4 rows of r (k + 4 input
    rows, not 2k) and projects the k rows that see the image through
    ``wc_rows``, the rows of wc for y < k.
    """
    r = model.er[model.relation_index(RelationKind.HAS_FINDING)]
    codes = features.codes
    psi_t = np.empty((model.n_findings, len(codes)))
    p_t = np.empty_like(psi_t)
    if model.scorer == "distmult":
        fold, chunk = (model.ef * r) @ model.wx.T, DISTMULT_CHUNK

        def rows(block: np.ndarray, out: np.ndarray) -> None:
            np.matmul(fold, block.T, out=out)
    else:
        rows, chunk = _conve_rows(model, r), PREDICT_CHUNK

    def score(lo: int, hi: int) -> None:
        for start in range(lo, hi, chunk):
            rows(codes[start:start + chunk], psi_t[:, start:start + chunk])
        p_t[:, lo:hi] = kernel.sigmoid(psi_t[:, lo:hi])

    chunks = -(-len(codes) // chunk)
    with kernel.Lanes() as lanes:
        lanes.run(functools.partial(score, lo, hi)
                  for lo, hi in kernel.ranges(len(codes), chunk, min(lanes.count, chunks // 2)))
    return Predictions(list(features.image_ids), psi_t.T, p_t.T)


def _conve_rows(model: scoring.EmbeddingModel, r: np.ndarray):
    """A function that writes the conv scorer's (n, b) psi of b feature codes,
    for relation embedding ``r``, into its second argument."""
    k, d, taps = model.reshape_side, model.embed_dim, scoring.KERNEL_SIZE
    wc = model.wc.reshape(model.channels, 2 * k - taps + 1, -1, d)
    r = r.reshape(k, k)
    bias = kernel.relu(kernel.conv2d_fwd(r, model.kernels)).reshape(-1) @ wc[:, k:].reshape(-1, d)
    wc_rows = wc[:, :k].transpose(1, 0, 2, 3).reshape(-1, d)  # conv2d_fwd's (y, c, x) layout

    def rows(block: np.ndarray, out: np.ndarray) -> None:
        b = len(block)
        stacked = np.empty((b, k + taps - 1, k))
        stacked[:, :k] = (block @ model.wx).reshape(b, k, k)
        stacked[:, k:] = r[:taps - 1]
        conv = kernel.relu(kernel.conv2d_fwd(stacked, model.kernels))
        z2 = conv.transpose(0, 2, 1, 3).reshape(b, -1) @ wc_rows + bias
        out[:] = (kernel.relu(z2) @ model.ef.T).T

    return rows


def _check_threshold(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"threshold must be inside (0, 1), got {tau}")


def classify(p: np.ndarray, tau: float) -> np.ndarray:
    """Binary labels: 1 where p strictly exceeds tau."""
    _check_threshold(tau)
    return (p > tau).astype(np.int8)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D float array, each run of tied values given the
    mean of the ranks it spans."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc_roc(scores, labels) -> float | None:
    """AUC-ROC via the rank-sum statistic with midrank tie handling.

    Returns None when either class is empty; that case is undefined, not 0.
    A NaN score makes the AUC NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be aligned 1-D")
    if not set(np.unique(labels).tolist()) <= {0, 1}:
        raise ValueError("labels must be 0/1")
    pos = labels == 1
    p = int(pos.sum())
    n = int(len(labels) - p)
    if p == 0 or n == 0:
        return None
    if np.isnan(scores).any():
        return float("nan")
    ranks = _midranks(scores)
    return (float(ranks[pos].sum()) - p * (p + 1) / 2.0) / (p * n)


@dataclass
class EvalReport:
    """Per-finding and macro AUC, class counts, optional threshold metrics."""

    finding_names: list[str]
    auc: list[float | None]
    macro: float | None
    positives: list[int]
    negatives: list[int]
    tau: float | None = None
    sensitivity: list[float | None] | None = None
    specificity: list[float | None] | None = None


def macro_auc(
    predictions: Predictions,
    truth: AnnotationTable,
    policy: UncertainPolicy = UncertainPolicy.AS_POSITIVE,
    findings: list[str] | None = None,
    tau: float | None = None,
) -> EvalReport:
    """Per-finding AUC over all rows; macro = mean over defined findings.

    Rows are matched to truth by image id, and the reported findings are the
    columns of one row-aligned slice. ``findings`` restricts the report to a
    subset of finding names, each named once; ``tau`` adds
    sensitivity/specificity at that threshold, which must lie inside (0, 1).
    """
    if tau is not None:
        _check_threshold(tau)
    index = {image_id: i for i, image_id in enumerate(predictions.image_ids)}
    if len(index) != len(predictions):
        raise ValueError("duplicate image ids among predictions")
    missing = [i for i in truth.image_ids if i not in index]
    if missing:
        raise ValueError(f"no predictions for {len(missing)} truth rows, e.g. {missing[:3]}")
    if predictions.psi.shape[1] != truth.n:
        raise ValueError(f"predictions have {predictions.psi.shape[1]} findings, truth has {truth.n}")
    names = list(truth.finding_names if findings is None else findings)
    for k, name in enumerate(names):
        if name not in truth.finding_names:
            raise ValueError(f"unknown finding {name!r}")
        if name in names[:k]:
            raise ValueError(f"finding {name!r} is named twice")
    if not names and findings is not None:
        raise ValueError("empty finding subset")

    rows = [index[i] for i in truth.image_ids]
    columns = [truth.finding_names.index(name) for name in names]
    cells = np.ix_(rows, columns)
    y = relation_grid(truth, policy)[:, columns]
    positives = y.sum(axis=0).tolist()
    negatives = [truth.m - count for count in positives]
    aucs = [auc_roc(scores, labels) for scores, labels in zip(predictions.psi[cells].T, y.T)]
    defined = [a for a in aucs if a is not None]
    sensitivity = specificity = None
    if tau is not None:
        above = predictions.p[cells] > tau
        sensitivity = [hits / count if count else None
                       for hits, count in zip((above & y).sum(axis=0).tolist(), positives)]
        specificity = [hits / count if count else None
                       for hits, count in zip((~above & ~y).sum(axis=0).tolist(), negatives)]
    return EvalReport(names, aucs, float(np.mean(defined)) if defined else None,
                      positives, negatives, tau, sensitivity, specificity)


def param_count(model: scoring.EmbeddingModel) -> int:
    """Total scalar parameters across all blocks."""
    return int(sum(block.size for block in model.blocks().values()))


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def format_report(report: EvalReport, echo=()) -> str:
    """Structured text: config echo, per-finding lines, macro line."""
    header = "finding,positives,negatives,auc"
    if report.tau is not None:
        header += ",sensitivity,specificity"
    lines = [header]
    for i, name in enumerate(report.finding_names):
        row = [csv_cell(name, first=True), str(report.positives[i]), str(report.negatives[i]),
               _fmt(report.auc[i])]
        if report.tau is not None:
            row.append(_fmt(report.sensitivity[i]))
            row.append(_fmt(report.specificity[i]))
        lines.append(",".join(row))
    lines.append(f"macro_auc,{_fmt(report.macro)}")
    return comment_block(echo) + "\n".join(lines) + "\n"


def write_predictions(
    predictions: Predictions,
    finding_names: list[str],
    path,
    tau: float | None = None,
    comments=(),
) -> None:
    """Prediction CSV: probabilities to 6 decimals, binary label columns
    appended when a threshold is given."""
    width = predictions.p.shape[1]
    if width != len(finding_names):
        raise ValueError(f"predictions have {width} findings, expected {len(finding_names)}")
    row_format = "%s" + ",%.6f" * width
    p_rows = predictions.p.tolist()
    label_rows = [()] * len(p_rows)
    header = ["id", *finding_names]
    if tau is not None:
        row_format += ",%d" * width
        label_rows = classify(predictions.p, tau).tolist()
        header += [f"{name}_label" for name in finding_names]
    row_format += "\n"
    check_cells(predictions.image_ids, "image id")
    check_cells(finding_names, "finding name")
    with open_commented(path, comments) as fh:
        fh.write(",".join(map(csv_cell, header)) + "\n")
        fh.writelines(
            row_format % (csv_cell(image_id, first=True), *p, *labels)
            for image_id, p, labels in zip(predictions.image_ids, p_rows, label_rows)
        )

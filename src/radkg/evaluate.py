"""Inference and evaluation.

Labels are inferred by scoring the completion (image, hasFinding, F_j) for
every finding. Quality is measured per finding by AUC-ROC in the rank-sum
formulation, cross-checked by an O(P*N) pairwise oracle, and summarized as an
unweighted macro mean over the findings where AUC is defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from . import kernel, scoring
from .kg import AnnotationTable, RelationKind, UncertainPolicy, relation_grid

#: Rows ``predict_table`` scores per batched forward. Larger chunks score no
#: faster, and their transients (the conv scorer's im2col copy alone is
#: 4.9 MB at 256 rows) raise the peak memory of a scoring run; at 64 a
#: chunk's transients stay near 1 MB.
PREDICT_CHUNK = 64


@dataclass
class PredictionRow:
    """Scores of one image against every finding."""

    image_id: str
    psi: np.ndarray
    p: np.ndarray
    labels: np.ndarray | None = None


def predict(model: scoring.EmbeddingModel, c_x: np.ndarray, image_id: str = "") -> PredictionRow:
    """Score (image, hasFinding, F_j) for all j and apply the sigmoid."""
    psi = scoring.score_all_objects(model, c_x, RelationKind.HAS_FINDING)
    return PredictionRow(image_id=image_id, psi=psi, p=kernel.sigmoid(psi))


def predict_table(model: scoring.EmbeddingModel, features) -> list[PredictionRow]:
    """``predict`` for every row of a feature table, PREDICT_CHUNK rows per
    batched ``scoring.forward`` call."""
    ridx = model.relation_index(RelationKind.HAS_FINDING)
    rows = []
    for start in range(0, features.m, PREDICT_CHUNK):
        codes = features.codes[start:start + PREDICT_CHUNK]
        psi, _ = scoring.forward(model, codes @ model.wx, np.full(len(codes), ridx))
        p = kernel.sigmoid(psi)
        ids = features.image_ids[start:start + PREDICT_CHUNK]
        rows.extend(PredictionRow(image_id, psi[i], p[i]) for i, image_id in enumerate(ids))
    return rows


def classify(row: PredictionRow, tau: float) -> np.ndarray:
    """Binary labels: 1 where p strictly exceeds tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"threshold must be inside (0, 1), got {tau}")
    return (row.p > tau).astype(np.int8)


def auc_roc(scores, labels) -> float | None:
    """AUC-ROC via the rank-sum statistic with midrank tie handling.

    Returns None when either class is empty; that case is undefined, not 0.
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
    ranks = rankdata(scores, method="average")
    return (float(ranks[pos].sum()) - p * (p + 1) / 2.0) / (p * n)


def auc_bruteforce(scores, labels) -> float | None:
    """Pairwise AUC oracle: wins plus half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos_scores = scores[labels == 1]
    neg_scores = scores[labels == 0]
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        return None
    count = 0.0
    for sp in pos_scores:
        for sn in neg_scores:
            if sp > sn:
                count += 1.0
            elif sp == sn:
                count += 0.5
    return count / (len(pos_scores) * len(neg_scores))


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
    predictions: list[PredictionRow],
    truth: AnnotationTable,
    policy: UncertainPolicy = UncertainPolicy.AS_POSITIVE,
    findings: list[str] | None = None,
    tau: float | None = None,
) -> EvalReport:
    """Per-finding AUC over all rows; macro = mean over defined findings.

    Rows are matched to truth by image id. ``findings`` restricts the report
    to a subset of finding names; ``tau`` adds sensitivity/specificity at that
    threshold.
    """
    by_id = {row.image_id: row for row in predictions}
    if len(by_id) != len(predictions):
        raise ValueError("duplicate image ids among predictions")
    missing = [i for i in truth.image_ids if i not in by_id]
    if missing:
        raise ValueError(f"no predictions for {len(missing)} truth rows, e.g. {missing[:3]}")

    if findings is None:
        indices = list(range(truth.n))
    else:
        indices = []
        for name in findings:
            if name not in truth.finding_names:
                raise ValueError(f"unknown finding {name!r}")
            indices.append(truth.finding_names.index(name))
        if not indices:
            raise ValueError("empty finding subset")

    y = relation_grid(truth, policy)
    psi = np.stack([by_id[i].psi for i in truth.image_ids]) if truth.m else np.zeros((0, truth.n))
    p = np.stack([by_id[i].p for i in truth.image_ids]) if truth.m else np.zeros((0, truth.n))
    if psi.shape[1] != truth.n:
        raise ValueError(f"predictions have {psi.shape[1]} findings, truth has {truth.n}")

    names, aucs, positives, negatives = [], [], [], []
    sens: list[float | None] = []
    spec: list[float | None] = []
    for j in indices:
        names.append(truth.finding_names[j])
        col_y = y[:, j]
        n_pos = int(col_y.sum())
        n_neg = int(len(col_y) - n_pos)
        positives.append(n_pos)
        negatives.append(n_neg)
        aucs.append(auc_roc(psi[:, j], col_y) if truth.m else None)
        if tau is not None:
            pred_pos = p[:, j] > tau
            tp = int(np.sum(pred_pos & (col_y == 1)))
            tn = int(np.sum(~pred_pos & (col_y == 0)))
            sens.append(tp / n_pos if n_pos else None)
            spec.append(tn / n_neg if n_neg else None)
    defined = [a for a in aucs if a is not None]
    macro = float(np.mean(defined)) if defined else None
    return EvalReport(
        finding_names=names,
        auc=aucs,
        macro=macro,
        positives=positives,
        negatives=negatives,
        tau=tau,
        sensitivity=sens if tau is not None else None,
        specificity=spec if tau is not None else None,
    )


def param_count(model: scoring.EmbeddingModel) -> int:
    """Total scalar parameters across all blocks."""
    return int(sum(block.size for block in model.blocks().values()))


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def format_report(report: EvalReport, echo=()) -> str:
    """Structured text: config echo, per-finding lines, macro line."""
    lines = [f"# {line}" for line in echo]
    header = "finding,positives,negatives,auc"
    if report.tau is not None:
        header += ",sensitivity,specificity"
    lines.append(header)
    for i, name in enumerate(report.finding_names):
        row = [name, str(report.positives[i]), str(report.negatives[i]), _fmt(report.auc[i])]
        if report.tau is not None:
            row.append(_fmt(report.sensitivity[i]))
            row.append(_fmt(report.specificity[i]))
        lines.append(",".join(row))
    lines.append(f"macro_auc,{_fmt(report.macro)}")
    return "\n".join(lines) + "\n"


def write_predictions(
    rows: list[PredictionRow],
    finding_names: list[str],
    path,
    tau: float | None = None,
    comments=(),
) -> None:
    """Prediction CSV: probabilities to 6 decimals, binary label columns
    appended when a threshold is given."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        header = ["id", *finding_names]
        if tau is not None:
            header += [f"{name}_label" for name in finding_names]
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row.p) != len(finding_names):
                raise ValueError(
                    f"row {row.image_id!r} has {len(row.p)} findings, expected {len(finding_names)}"
                )
            cells = [row.image_id] + [f"{v:.6f}" for v in row.p]
            if tau is not None:
                cells += [str(int(v)) for v in classify(row, tau)]
            fh.write(",".join(cells) + "\n")

"""Multi-label image classification as link prediction over a knowledge graph.

Images and findings are graph entities; annotations become typed edges;
a learned scoring function (trilinear or convolutional) ranks candidate
(image, hasFinding, finding) completions, evaluated by per-finding AUC-ROC.

The package exports what the demos and the README quick start use, plus the
error types; everything else is imported from its module (``radkg.kg``,
``radkg.evaluate``, ...).
"""

from . import scoring
from .errors import CheckpointError, ParseError, RadkgError, TrainingDivergedError
from .kg import (
    AnnotationTable,
    RelationKind,
    UncertainPolicy,
    add_cooccurrence,
    build_radkg,
    cooccurrence_matrix,
    split,
)
from .encoders import SyntheticSpec, synth_dataset
from .scoring import conve_pipeline, embed_subject, init_model, score_conve, score_distmult
from .training import TrainConfig, load_checkpoint, resolve_relations, save_checkpoint, train
from .evaluate import macro_auc, param_count, predict_table
from .gradcheck import check_gradients, default_cases, run_suite

__version__ = "0.1.0"

__all__ = [
    "AnnotationTable",
    "CheckpointError",
    "ParseError",
    "RadkgError",
    "RelationKind",
    "SyntheticSpec",
    "TrainConfig",
    "TrainingDivergedError",
    "UncertainPolicy",
    "add_cooccurrence",
    "build_radkg",
    "check_gradients",
    "conve_pipeline",
    "cooccurrence_matrix",
    "default_cases",
    "embed_subject",
    "init_model",
    "load_checkpoint",
    "macro_auc",
    "param_count",
    "predict_table",
    "resolve_relations",
    "run_suite",
    "save_checkpoint",
    "score_conve",
    "score_distmult",
    "scoring",
    "split",
    "synth_dataset",
    "train",
]

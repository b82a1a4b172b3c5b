"""Multi-label image classification as link prediction over a knowledge graph.

Images and findings are graph entities; annotations become typed edges;
a learned scoring function (trilinear or convolutional) ranks candidate
(image, hasFinding, finding) completions, evaluated by per-finding AUC-ROC.
"""

from .errors import CheckpointError, ParseError, RadkgError, TrainingDivergedError
from .kg import (
    AnnotationTable,
    EntityId,
    EntityKind,
    KnowledgeGraph,
    LabelValue,
    RelationKind,
    Triple,
    UncertainPolicy,
    add_cooccurrence,
    build_radkg,
    cooccurrence_matrix,
    load_annotations,
    load_kg,
    negatives_for,
    relation_grid,
    split,
    write_annotations,
    write_kg,
)
from .encoders import (
    FeatureTable,
    SyntheticSpec,
    encode_finding,
    load_features,
    synth_dataset,
    write_features,
)
from .scoring import (
    EmbeddingModel,
    ModelGrads,
    conve_pipeline,
    embed_object,
    embed_subject,
    grad_all_objects,
    grad_all_objects_finding,
    grad_score,
    init_model,
    score_all_objects,
    score_all_objects_finding,
    score_conve,
    score_distmult,
)
from .training import (
    Adam,
    Sgd,
    TrainConfig,
    bce_loss,
    load_checkpoint,
    make_batches,
    resolve_relations,
    save_checkpoint,
    train,
    train_epoch,
)
from .evaluate import (
    EvalReport,
    PredictionRow,
    auc_bruteforce,
    auc_roc,
    classify,
    format_report,
    macro_auc,
    param_count,
    predict,
    predict_table,
    write_predictions,
)
from .gradcheck import GradCheckResult, SuiteReport, check_gradients, default_cases, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

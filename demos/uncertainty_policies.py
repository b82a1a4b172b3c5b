"""
What to do with "uncertain" labels
==================================

Radiology reports often hedge. A finding can be positive, negative, not
mentioned, or mentioned with uncertainty, and the graph can treat that last
class three different ways: promote it to a positive edge, drop it, or keep it
as its own probablyHasFinding relation. This script trains under each policy
on the same data and compares held-out ranking quality.
"""

import numpy as np

from radkg import (
    RelationKind,
    SyntheticSpec,
    TrainConfig,
    UncertainPolicy,
    build_radkg,
    init_model,
    macro_auc,
    predict_table,
    resolve_relations,
    split,
    synth_dataset,
    train,
)

spec = SyntheticSpec(m=250, n=6, dim=16, noise_scale=0.6, label_sparsity=0.3,
                     uncertain_fraction=0.2, seed=11)
features, annotations = synth_dataset(spec)

counts = {v: int((annotations.labels == v).sum()) for v in (1, 0, -1)}
print(f"label counts: positive {counts[1]}, negative {counts[0]}, "
      f"uncertain {counts[-1]}")

train_t, val_t, test_t = split(annotations, (0.7, 0.1, 0.2), seed=0)
train_f, val_f, test_f = (features.select(t.image_ids) for t in (train_t, val_t, test_t))

for policy in UncertainPolicy:
    graph = build_radkg(train_t, policy)
    relations = resolve_relations(graph, None)
    model = init_model("distmult", 16, 16, 6, relations=relations, seed=0)
    config = TrainConfig(learning_rate=0.01, epochs=12, batch_size=32, seed=0,
                         policy=policy, relations=relations, patience=12)
    best, _ = train(model, graph, train_f, (val_f, val_t), config)

    # Inference always asks the same completion query (image, hasFinding, ?),
    # whatever extra relations the model was trained with.
    predictions = predict_table(best, test_f)
    report = macro_auc(predictions, test_t, policy)

    trained = ",".join(r.value for r in best.relations)
    print(f"\npolicy = {policy.value}")
    print(f"  graph: {len(graph)} triples, trained relations: {trained}")
    print(f"  test macro-AUC: {report.macro:.4f}")
    if RelationKind.PROBABLY_HAS_FINDING in best.relations:
        print("  uncertain cells kept their own relation; hasFinding answers "
              "the queries")

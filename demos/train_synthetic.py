"""
Training on planted structure
=============================

The synthetic generator plants a linear structure: each finding owns a random
prototype vector and an image's feature code is the sum of the prototypes of
its positive findings plus noise. A link predictor trained on the resulting
graph should recover the labels almost perfectly, which makes this a good
end-to-end smoke test with a known answer.
"""

import numpy as np

from radkg import (
    SyntheticSpec,
    TrainConfig,
    UncertainPolicy,
    build_radkg,
    init_model,
    load_checkpoint,
    macro_auc,
    predict_table,
    save_checkpoint,
    split,
    synth_dataset,
    train,
)

spec = SyntheticSpec(m=300, n=8, dim=32, noise_scale=0.5, label_sparsity=0.25,
                     seed=7)
features, annotations = synth_dataset(spec)
print(f"dataset: {features.m} images, {annotations.n} findings, "
      f"{features.dim}-dim codes")
print(f"positive cells: {(annotations.labels == 1).mean():.1%}")

train_t, val_t, test_t = split(annotations, (0.7, 0.1, 0.2), seed=0)
print(f"folds: {train_t.m}/{val_t.m}/{test_t.m}")
train_f, val_f, test_f = (features.select(t.image_ids) for t in (train_t, val_t, test_t))

graph = build_radkg(train_t, UncertainPolicy.AS_POSITIVE)
print(f"training graph: {len(graph)} triples over {graph.m} images")

model = init_model("distmult", features.dim, embed_dim=32, n_findings=8, seed=0)
config = TrainConfig(learning_rate=5e-3, epochs=40, batch_size=32, seed=0,
                     patience=5)
best, history = train(model, graph, train_f, (val_f, val_t), config)

print(f"\ntrained {len(history)} epochs (early stopping patience "
      f"{config.patience})")
for entry in history[:3] + history[-2:]:
    print(f"  epoch {entry['epoch']:>2}  loss {entry['loss']:.4f}  "
          f"val macro-AUC {entry['val_auc']:.4f}")

predictions = predict_table(best, test_f)
report = macro_auc(predictions, test_t, UncertainPolicy.AS_POSITIVE)
print("\nheld-out test fold:")
for name, auc, p, n in zip(report.finding_names, report.auc,
                           report.positives, report.negatives):
    print(f"  {name:<12} auc {auc:.4f}  ({p} pos / {n} neg)")
print(f"macro-AUC: {report.macro:.4f}")

# Checkpoints are a deterministic function of the model, so writing the loaded
# model back out reproduces the file byte for byte.
save_checkpoint(best, "/tmp/radkg_demo.rkg", {"demo": "train_synthetic"})
loaded, metadata = load_checkpoint("/tmp/radkg_demo.rkg")
save_checkpoint(loaded, "/tmp/radkg_demo2.rkg", {"demo": metadata["demo"]})
identical = open("/tmp/radkg_demo.rkg", "rb").read() == open("/tmp/radkg_demo2.rkg", "rb").read()
print(f"\ncheckpoint round trip byte-identical: {identical}")

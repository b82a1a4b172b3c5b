"""One measured repeat of a workload part, in a fresh process; writes raw results.

The ``fit`` part calls radkg's public functions in the order the ``train``,
``predict`` and ``eval`` commands do; the ``ingest`` part runs a fit that
writes a checkpoint, then does the same for ``build-kg``, ``predict`` and
``eval`` with that checkpoint. Each call is timed. With ``--trace 1`` it
records a span around every wrapped function. ``run.py`` makes the inputs,
starts this process once per repeat and checks the outputs.

    python3 bench/measure.py --workload NAME --part fit|ingest --inputs DIR --out FILE --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from radkg import encoders, evaluate, kernel, kg, scoring, training  # noqa: E402

import spans  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_SIZE, CHANNELS, COOCCUR_THRESHOLD, EMBED_DIM, INGEST_PASSES, LEARNING_RATE, RATIOS,
    SPLIT_SEED,
    TRAIN_SEED, WORKLOADS, Fit,
)

# (owner, attribute, span name). Coarse names are ones the roadmap keeps;
# the fine ones below them may vanish in a refactor and are then reported absent.
COARSE = [
    (encoders, "load_features", "encoders.load_features"),
    (kg, "load_annotations", "kg.load_annotations"),
    (kg, "split", "kg.split"),
    (kg, "build_radkg", "kg.build_radkg"),
    (kg, "cooccurrence_matrix", "kg.cooccurrence_matrix"),
    (kg, "add_cooccurrence", "kg.add_cooccurrence"),
    (kg, "write_kg", "kg.write_kg"),
    (scoring, "init_model", "scoring.init_model"),
    (training, "train", "training.train"),
    (training, "make_batches", "training.make_batches"),
    (training, "train_epoch", "training.train_epoch"),
    (training.Adam, "step", "training.optimizer_step"),
    (training.Sgd, "step", "training.optimizer_step"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (evaluate, "predict_table", "evaluate.predict_table"),
    (evaluate, "macro_auc", "evaluate.macro_auc"),
    (evaluate, "write_predictions", "evaluate.write_predictions"),
]
FINE = [
    (evaluate, "predict", "evaluate.predict"),
    (scoring, "score_all_objects", "scoring.forward"),
    (scoring, "score_all_objects_finding", "scoring.forward"),
    (scoring, "grad_all_objects", "scoring.backward"),
    (scoring, "grad_all_objects_finding", "scoring.backward"),
    (kernel, "conv2d_fwd", "kernel.conv2d_fwd"),
    (kernel, "conv2d_bwd", "kernel.conv2d_bwd"),
]


def select(features, ids):
    index = {image_id: i for i, image_id in enumerate(features.image_ids)}
    return encoders.FeatureTable(list(ids), features.codes[[index[i] for i in ids]])


def fit_run(fit: Fit, inputs: Path, out: Path) -> dict:
    """``train``, ``predict`` of every image, and ``eval`` of the test fold.

    Returns wall times and what the checks need.
    """
    policy = kg.UncertainPolicy(fit.policy)
    t0 = time.perf_counter()
    features = encoders.load_features(inputs / "features.csv")
    annotations = kg.load_annotations(inputs / "annotations.csv")
    train_t, val_t, test_t = kg.split(annotations, RATIOS, SPLIT_SEED)
    train_f = select(features, train_t.image_ids)
    val_f = select(features, val_t.image_ids)
    graph = kg.build_radkg(train_t, policy)
    if fit.cooccurrence:
        matrix = kg.cooccurrence_matrix(train_t, policy)
        graph = kg.add_cooccurrence(graph, matrix, COOCCUR_THRESHOLD)
    relations = training.resolve_relations(graph, None)
    model = scoring.init_model(
        fit.scorer, feature_dim=features.dim, embed_dim=EMBED_DIM,
        n_findings=annotations.n, relations=relations, channels=CHANNELS, seed=TRAIN_SEED,
    )
    config = training.TrainConfig(
        learning_rate=LEARNING_RATE, epochs=fit.epochs, batch_size=BATCH_SIZE,
        optimizer="adam", seed=TRAIN_SEED, policy=policy, relations=relations,
        patience=fit.epochs,
    )
    t_ready = time.perf_counter()
    best, history = training.train(model, graph, train_f, (val_f, val_t), config)
    t_trained = time.perf_counter()
    training.save_checkpoint(best, out / "model.rkg", {"findings": ",".join(annotations.finding_names)})
    model, _ = training.load_checkpoint(out / "model.rkg")
    t_predict = time.perf_counter()
    for _ in range(fit.predict_passes):
        rows = evaluate.predict_table(model, features)
    t_predicted = time.perf_counter()
    evaluate.write_predictions(rows, annotations.finding_names, out / "fit_predictions.csv")
    report = evaluate.macro_auc(rows, test_t, policy)
    t_end = time.perf_counter()

    items = sum(graph.m if rel.subject_kind is kg.EntityKind.IMAGE else graph.n for rel in relations)
    return {
        "setup_s": t_ready - t0,
        "train_s": t_trained - t_ready,
        "predict_s": t_predicted - t_predict,
        "total_s": t_end - t0,
        "items_trained": items * len(history),
        "epochs_run": len(history),
        "images_scored": len(rows) * fit.predict_passes,
        "feature_rows": len(features.image_ids),
        "history": history,
        "test_macro_auc": report.macro,
        "triples": len(graph),
    }


def ingest_run(workload, inputs: Path, out: Path) -> dict:
    """``build-kg``, ``predict`` and ``eval`` on the big table, with the
    checkpoint the fit before it left in ``out``."""
    policy = kg.UncertainPolicy(workload.fit.policy)
    t0 = time.perf_counter()
    features = encoders.load_features(inputs / "ingest_features.csv")
    annotations = kg.load_annotations(inputs / "ingest_annotations.csv")
    _, _, test_t = kg.split(annotations, RATIOS, SPLIT_SEED)
    graph = kg.build_radkg(annotations, policy)
    matrix = kg.cooccurrence_matrix(annotations, policy)
    graph = kg.add_cooccurrence(graph, matrix, COOCCUR_THRESHOLD)
    model, _ = training.load_checkpoint(out / "model.rkg")
    t_ready = time.perf_counter()
    kg.write_kg(graph, out / "graph.tsv")
    t_predict = time.perf_counter()
    for _ in range(INGEST_PASSES):
        rows = evaluate.predict_table(model, features)
    t_predicted = time.perf_counter()
    evaluate.write_predictions(rows, annotations.finding_names, out / "predictions.csv")
    report = evaluate.macro_auc(rows, test_t, policy)
    t_end = time.perf_counter()
    return {
        "setup_s": t_ready - t0,
        "predict_s": t_predicted - t_predict,
        "total_s": t_end - t0,
        "items_trained": 0,
        "images_scored": len(rows) * INGEST_PASSES,
        "feature_rows": len(features.image_ids),
        "test_macro_auc": report.macro,
        "triples": len(graph),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def layer_metrics(tracer: spans.Tracer, run: dict) -> dict:
    """Per-layer figures from the spans of one traced run."""
    records = tracer.spans
    own = spans.self_times(records)
    by_name: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        by_name.setdefault(record[spans.NAME], []).append(i)

    def dur(i):
        return records[i][spans.END] - records[i][spans.START]

    def total(name):
        return math.fsum(dur(i) for i in by_name.get(name, ()))

    def under(name, parent_name):
        return [i for i in by_name.get(name, ())
                if records[i][spans.PARENT] >= 0
                and records[records[i][spans.PARENT]][spans.NAME] == parent_name]

    def micros(name):
        return [dur(i) * 1e6 for i in by_name.get(name, ())]

    def count(name):
        return len(by_name.get(name, ()))

    epoch_steps = under("training.optimizer_step", "training.train_epoch")
    validate = {i for name in ("evaluate.predict", "evaluate.predict_table", "evaluate.macro_auc")
                for i in under(name, "training.train")}
    train_children = validate.union(*(under(name, "training.train")
                                      for name in ("training.make_batches", "training.train_epoch")))
    train_total = total("training.train")
    table_total = math.fsum(dur(i) for i in by_name.get("evaluate.predict_table", ())
                            if i not in validate)
    images = run["images_scored"]
    rows_parsed = run["feature_rows"]
    load_s = total("encoders.load_features")
    forward, backward = micros("scoring.forward"), micros("scoring.backward")
    steps = micros("training.optimizer_step")

    values = {
        "encoders.load_features_s": load_s,
        "encoders.load_features_rows_per_s": rows_parsed / load_s if load_s else 0.0,
        "kg.load_annotations_s": total("kg.load_annotations"),
        "kg.split_s": total("kg.split"),
        "kg.build_radkg_s": total("kg.build_radkg"),
        "kg.add_cooccurrence_s": total("kg.cooccurrence_matrix") + total("kg.add_cooccurrence"),
        "kg.write_kg_s": total("kg.write_kg"),
        "kg.triples": run["triples"],
        "training.make_batches_s": total("training.make_batches"),
        "training.items": run["items_trained"],
        "training.train_epoch_s": total("training.train_epoch"),
        "training.compute_s": total("training.train_epoch") - math.fsum(map(dur, epoch_steps)),
        "training.validate_s": math.fsum(map(dur, validate)),
        "training.optimizer_step_us_p50": spans.percentile(steps, 50)["value"],
        "training.optimizer_step_us_p90": spans.percentile(steps, 90)["value"],
        "training.optimizer_steps": len(steps),
        "training.save_checkpoint_s": total("training.save_checkpoint"),
        "training.load_checkpoint_s": total("training.load_checkpoint"),
        "training.checkpoint_bytes": run["checkpoint_bytes"],
        "scoring.forward_us_p50": spans.percentile(forward, 50)["value"],
        "scoring.forward_us_p99": spans.percentile(forward, 99)["value"],
        "scoring.forward_calls": len(forward),
        "scoring.backward_us_p50": spans.percentile(backward, 50)["value"],
        "scoring.backward_us_p99": spans.percentile(backward, 99)["value"],
        "scoring.backward_calls": len(backward),
        "kernel.conv2d_fwd_s": total("kernel.conv2d_fwd"),
        "kernel.conv2d_fwd_calls": count("kernel.conv2d_fwd"),
        "kernel.conv2d_bwd_s": total("kernel.conv2d_bwd"),
        "kernel.conv2d_bwd_calls": count("kernel.conv2d_bwd"),
        "evaluate.predict_table_s": table_total,
        "evaluate.predict_us_per_image": table_total / images * 1e6 if images else 0.0,
        "evaluate.macro_auc_s": math.fsum(dur(i) for i in by_name.get("evaluate.macro_auc", ())
                                          if i not in validate),
        "evaluate.write_predictions_s": total("evaluate.write_predictions"),
        "trace.train_coverage": (math.fsum(map(dur, train_children)) / train_total
                                 if train_total else 0.0),
    }
    self_by_layer = {name: math.fsum(own[i] for i in indices) for name, indices in by_name.items()}
    return {"values": values, "self_s": self_by_layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--part", required=True, choices=("fit", "ingest"))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = args.out.parent
    checkpoint = out / "model.rkg"

    tracer = spans.Tracer()
    if args.trace:
        for owner, attr, name in COARSE + FINE:
            tracer.wrap(owner, attr, name)
        tracer.run_id = f"{args.workload}-{args.out.stem}"

    # The ingest part first fits the checkpoint it scores with. That fit gives
    # the part's train throughput; its other end-to-end figures cover the
    # read path alone.
    with tracer.span("run"):
        fitted = fit_run(workload.fit, args.inputs, out)
        run = fitted if args.part == "fit" else ingest_run(workload, args.inputs, out)
    run["checkpoint_sha256"] = sha256(checkpoint)
    if run is not fitted:
        run["fit"] = fitted | {"checkpoint_sha256": run["checkpoint_sha256"]}
    run["checkpoint_bytes"] = checkpoint.stat().st_size
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer.write(out / f"{args.out.stem}-spans.jsonl")
        # The spans cover the fit as well as the read path: count both.
        work = {key: run[key] + (fitted[key] if run is not fitted else 0)
                for key in ("items_trained", "images_scored", "feature_rows")}
        run.update(layers=layer_metrics(tracer, run | work), absent=sorted(set(tracer.absent)))
    args.out.write_text(json.dumps(run, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: make inputs, run the measured process, check, report.

    python3 bench/run.py --workload fit-distmult --seed 1 --seconds 40 --trace 0

Inputs are generated from the seed outside any timed region and outside the
measured process, which is a fresh interpreter with a fixed BLAS thread
count. Its outputs are checked afterwards. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. Files go under ``.bench_run/`` at the repository root. The
exit code is 0 only when every step ran and every check passed.
"""

from __future__ import annotations

import os

# One BLAS thread: steadier timings on a shared 2-core machine, and the thread
# count that byte-identical checkpoints are defined for. It must be set
# before numpy loads, here and in the measured process, which inherits it.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from inputs import generate, write_annotations, write_features  # noqa: E402
from workloads import AUC_FLOOR, COOCCUR_THRESHOLD, WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
REPEAT_TIMEOUT_S = 60
RESCORE_SAMPLE = 64


def declared_metrics() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))

def make_inputs(workload, seed: int, inputs: Path) -> tuple[list[dict], dict]:
    """Write the workload's input files; returns their description and the
    generated tables the checks compare against."""
    fit = workload.fit
    if workload.ingest is None:
        tables = {"fit": generate(fit.data, seed)}
    else:
        # One planted dataset: the big table, then disjoint rows to fit on.
        big = workload.ingest.m
        whole = generate(replace(workload.ingest, m=big + fit.data.m), seed)
        tables = {"ingest": whole.rows(0, big), "fit": whole.rows(big, big + fit.data.m)}
    files = [
        write_features(tables["fit"], inputs / "features.csv"),
        write_annotations(tables["fit"], inputs / "annotations.csv"),
    ]
    if "ingest" in tables:
        files += [
            write_features(tables["ingest"], inputs / "ingest_features.csv"),
            write_annotations(tables["ingest"], inputs / "ingest_annotations.csv"),
        ]
    return files, tables


class Checks:
    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail="") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": str(detail)})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def check_fit(checks: Checks, fit, runs: list[dict]) -> None:
    for k, run in enumerate(runs):
        losses = [h["loss"] for h in run["history"]]
        checks.add(f"fit[{k}].epochs", run["epochs_run"] == fit.epochs,
                   f"{run['epochs_run']} of {fit.epochs}")
        checks.add(f"fit[{k}].finite_losses",
                   all(isinstance(x, float) and math.isfinite(x) for x in losses), losses)
        auc = run["test_macro_auc"]
        checks.add(f"fit[{k}].test_macro_auc_floor",
                   auc is not None and auc >= AUC_FLOOR, f"{auc} >= {AUC_FLOOR}")
    digests = {run["checkpoint_sha256"] for run in runs}
    checks.add("fit.checkpoint_identical", len(digests) == 1, sorted(digests))


def check_ingest(checks: Checks, table, out: Path, seed: int) -> None:
    from radkg import kg, scoring, training

    # Per-relation triple counts against counts taken from the label grid,
    # under the separate-relation policy ingest-predict uses.
    counts: dict[str, int] = {}
    with open(out / "graph.tsv", encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                relation = line.split("\t")[1]
                counts[relation] = counts.get(relation, 0) + 1
    labels = table.labels
    positive = (labels == 1).astype(np.float64)
    seen = positive.sum(axis=0)
    joint = positive.T @ positive
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = joint / seen[np.newaxis, :]
    edges = (seen[np.newaxis, :] > 0) & (conditional > COOCCUR_THRESHOLD)
    np.fill_diagonal(edges, False)
    expected = {
        "hasFinding": int((labels == 1).sum()),
        "probablyHasFinding": int((labels == -1).sum()),
        "coOccurs": int(edges.sum()),
    }
    for relation, want in expected.items():
        got = counts.get(relation, 0)
        checks.add(f"graph.{relation}_count", got == want, f"{got} vs {want}")

    # Written probabilities against the single-triple reference scorer.
    model, _ = training.load_checkpoint(out / "model.rkg")
    written = {}
    with open(out / "predictions.csv", encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split(",")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            written[cells[0]] = [float(c) for c in cells[1:]]
    checks.add("predictions.header", header == ["id", *table.finding_names], header[:3])
    checks.add("predictions.rows", list(written) == table.image_ids, f"{len(written)} rows")
    rng = np.random.default_rng([0x5C0E, seed])
    sample = rng.choice(len(table.image_ids), size=RESCORE_SAMPLE, replace=False)
    r_r = model.er[model.relations.index(kg.RelationKind.HAS_FINDING)]
    worst = 0.0
    for i in sample.tolist():
        e_s = table.codes[i] @ model.wx
        row = written.get(table.image_ids[i], [math.nan] * table.labels.shape[1])
        for j, p_written in enumerate(row):
            psi = scoring.score_conve(model, e_s, r_r, model.ef[j])
            p = 0.5 * (1.0 + math.tanh(0.5 * psi))
            worst = max(worst, abs(p - p_written)) if math.isfinite(p_written) else math.inf
    checks.add("predictions.match_reference_6dp", worst <= 5e-7 + 1e-9, f"max diff {worst:.2e}")


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "radkg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fast_rate(windows: list[list[float]]) -> float:
    """The upper decile of the ``work / seconds`` rates of many short windows.

    The machine's slow stretches only ever add time, and they come and go
    within a run; the fast end of many windows spread over the run is the
    program's own speed, and any change to the program moves every window.
    """
    rates = sorted(work / seconds for work, seconds in windows)
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=10, method="inclusive")[-1]


def end_to_end(runs: list[dict], fits: list[dict]) -> dict:
    """Metrics of the repeats; ``train`` throughput comes from ``fits``.

    Rates are the work of all repeats over the time it took, and ``total_s``
    is the mean repeat: both average over the whole run.
    """
    return {
        "setup_s": statistics.median([r["setup_s"] for r in runs]),
        "train_items_per_s": (sum(r["items_trained"] for r in fits)
                              / sum(r["train_s"] for r in fits)),
        "predict_images_per_s": (sum(r["images_scored"] for r in runs)
                                 / sum(r["predict_s"] for r in runs)),
        "total_s": statistics.fmean(r["total_s"] for r in runs),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        "test_macro_auc": statistics.median([r["test_macro_auc"] for r in runs]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "radkg" / "__init__.py").is_file():
        print(f"error: no radkg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    out = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "inputs").mkdir(parents=True)
    files, tables = make_inputs(workload, args.seed, out / "inputs")

    # One fresh process per repeat, as a command-line user runs the program.
    def repeat(part: str, trace: int, name: str) -> dict | None:
        raw_path = out / f"{name}.json"
        command = [sys.executable, str(BENCH / "measure.py"), "--workload", args.workload,
                   "--part", part, "--inputs", str(out / "inputs"), "--out", str(raw_path),
                   "--trace", str(trace)]
        try:
            proc = subprocess.run(command, timeout=REPEAT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        return json.loads(raw_path.read_text()) if proc.returncode == 0 else None

    def failure(attempted: int) -> int:
        print(f"error: a measured repeat of {args.workload} failed", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 1, "metrics": {}}))
        return 1

    # A repeat starts only if one as long as the last would end no more than
    # half a repeat past the budget.
    part = "fit" if workload.ingest is None else "ingest"
    runs: list[dict] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    last = 0.0
    while not runs or time.perf_counter() - start + last / 2 <= budget:
        began = time.perf_counter()
        run = repeat(part, 0, f"repeat{len(runs)}")
        if run is None:
            return failure(len(runs) + 1)
        runs.append(run)
        last = time.perf_counter() - began
    traced = repeat(part, 1, "traced") if args.trace else None
    if args.trace and traced is None:
        return failure(len(runs) + 1)

    checks = Checks()
    checked = runs + ([traced] if traced else [])
    fits = checked if part == "fit" else [run["fit"] for run in checked]
    env = environment(args.seed)
    check_fit(checks, workload.fit, fits)
    if part == "ingest":
        for k, run in enumerate(checked):
            auc = run["test_macro_auc"]
            checks.add(f"ingest[{k}].test_macro_auc_floor",
                       auc is not None and auc >= AUC_FLOOR, f"{auc} >= {AUC_FLOOR}")
        check_ingest(checks, tables["ingest"], out, args.seed)
    aucs = {r["test_macro_auc"] for r in checked}
    checks.add("test_macro_auc_repeatable", len(aucs) == 1, sorted(aucs, key=str))

    end_to_end_units, per_layer_units = declared_metrics()
    if args.trace:
        values = dict(traced["layers"]["values"])
        values["trace.overhead_s"] = traced["total_s"] - statistics.median(r["total_s"] for r in runs)
        names = per_layer_units
    else:
        values = end_to_end(runs, fits)
        names = end_to_end_units
    missing = sorted(set(names) - set(values))
    checks.add("metrics_cover_benchmark_json", not missing, missing)
    attempted = len(checked) + len(checks.results)
    failed = checks.failed
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names.items() if name in values}
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "inputs": files,
        "checks": checks.results,
        "error_rate": {"failed": failed, "attempted": attempted, "ratio": failed / attempted},
        "metrics": metrics,
        "repeats": runs,
        "traced": traced,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1, default=str))
    # The inputs are reproducible from the seed; the outputs have been checked.
    shutil.rmtree(out / "inputs")
    for name in ("fit_predictions.csv", "predictions.csv", "graph.tsv"):
        (out / name).unlink(missing_ok=True)

    for check in checks.results:
        if not check["ok"]:
            print(f"FAILED check {check['check']}: {check['detail']}")
    basis = f"{len(runs)} repeats" if not args.trace else "one traced repeat"
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']} ({basis})")
    print(f"{args.workload} error_rate = {failed}/{attempted} checks and steps failed")
    if args.trace and traced["absent"]:
        print(f"{args.workload} absent spans: {', '.join(traced['absent'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # Unwind on SIGTERM as on Ctrl-C, so that subprocess.run kills and reaps
    # the measured process before this one exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main())

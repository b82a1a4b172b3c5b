"""Command-line surface: reproducible runs over files.

Subcommands cover the whole pipeline: synthesize data, build the graph,
train, evaluate, predict, and verify gradients. Option values resolve as
defaults, then a flat ``key = value`` config file (--config, or the
RADKG_CONFIG environment variable), then explicit flags; the effective
configuration is echoed into every output artifact. ``train`` stores its
configuration and a digest of its training fold's ids in the checkpoint;
``eval`` takes the split, and the truth policy unless --policy is given,
from there, and refuses annotations whose training fold does not match the
digest. Exit codes: 0 success, 1 usage error, 2 data or parse error,
unwritable output directory or out of memory, 3 numerical failure. A command
that fails writes none of its outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import zlib
from dataclasses import dataclass

from . import gradcheck
from .artifacts import atomic_open, check_target, csv_cell, data_lines, open_commented, split_csv_line
from .encoders import SyntheticSpec, load_features, synth_dataset, write_features
from .errors import CheckpointError, ParseError, TrainingDivergedError
from .evaluate import format_report, macro_auc, predict_table, write_predictions
from .kg import (
    RelationKind,
    UncertainPolicy,
    add_cooccurrence,
    build_radkg,
    cooccurrence_matrix,
    load_annotations,
    split,
    write_annotations,
    write_kg,
)
from .scoring import SCORER_KINDS, init_model
from .training import (
    OPTIMIZER_KINDS, TrainConfig, load_checkpoint, resolve_relations, save_checkpoint, train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this surface reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# Option table: one declarative spec per flag, shared by the argparse layer,
# the config-file layer, and the echo. A converter takes the raw string (True
# for a flag) and raises ValueError on a bad value.
# ---------------------------------------------------------------------------

def _bool(v):
    low = str(v).lower()
    if low not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"expected true/false, got {v!r}")
    return low in ("true", "1", "yes")


def _ratios(v):
    parts = v.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated ratios, got {v!r}")
    return tuple(float(p) for p in parts)


def _names(v):
    return [token.strip() for token in v.split(",") if token.strip()]


def _relations(v):
    if v.lower() == "auto":
        return None
    return tuple(RelationKind(token.strip()) for token in v.split(","))


def _optional(convert):
    """``convert``, with ``none`` (any case) read as None."""
    return lambda v: None if v.lower() == "none" else convert(v)


@dataclass(frozen=True)
class Opt:
    name: str
    convert: object
    default: object = None
    help: str = ""
    flag: bool = False
    required: bool = False
    choices: tuple = ()

    @property
    def key(self) -> str:
        return self.name.replace("-", "_")


_CONFIG_OPT = Opt("config", str, None, "path to a key = value config file")

_KG_OPTS = [
    Opt("policy", UncertainPolicy, UncertainPolicy.AS_POSITIVE,
        "uncertain-label handling", choices=tuple(p.value for p in UncertainPolicy)),
    Opt("cooccurrence", _bool, False, "add finding co-occurrence edges", flag=True),
    Opt("cooccur-threshold", float, 0.2,
        "conditional probability above which a co-occurrence edge is added"),
]

COMMAND_OPTS: dict[str, list[Opt]] = {
    "synth": [
        Opt("out-features", str, required=True, help="feature CSV to write"),
        Opt("out-annotations", str, required=True, help="annotation CSV to write"),
        Opt("m", int, 500, "number of images"),
        Opt("n", int, 14, "number of findings"),
        Opt("dim", int, 64, "feature dimension"),
        Opt("prototype-scale", float, 1.0, "scale of per-finding prototypes"),
        Opt("noise-scale", float, 0.1, "additive feature noise"),
        Opt("sparsity", float, 0.25, "per-cell positive-label probability"),
        Opt("uncertain-fraction", float, 0.0,
            "fraction of positive cells downgraded to uncertain"),
        Opt("seed", int, 0, "generator seed"),
    ],
    "build-kg": [
        Opt("annotations", str, required=True, help="annotation CSV to read"),
        Opt("out", str, required=True, help="graph file to write"),
        *_KG_OPTS,
    ],
    "train": [
        Opt("features", str, required=True, help="feature CSV"),
        Opt("annotations", str, required=True, help="annotation CSV"),
        Opt("out-checkpoint", str, required=True, help="checkpoint to write"),
        Opt("out-history", str, None, "per-epoch loss/val-AUC file"),
        Opt("scorer", str, "distmult", "scoring function", choices=SCORER_KINDS),
        Opt("embed-dim", int, 100, "embedding dimension d"),
        Opt("channels", int, 8, "convolution channels (conve only)"),
        *_KG_OPTS,
        Opt("ratios", _ratios, (0.7, 0.1, 0.2), "train,val,test proportions"),
        Opt("split-seed", int, 0, "seed for the fold assignment"),
        Opt("lr", float, 1e-3, "learning rate"),
        Opt("epochs", int, 20, "maximum epochs"),
        Opt("batch-size", int, 32, "minibatch size in items"),
        Opt("optimizer", str, "adam", "optimizer", choices=OPTIMIZER_KINDS),
        Opt("seed", int, 0, "training seed (init and shuffling)"),
        Opt("patience", int, 5, "epochs without val-AUC gain before stopping"),
        Opt("relations", _optional(_relations), None,
            "relations to train on (comma list; default: those present in the graph)"),
    ],
    "eval": [
        Opt("checkpoint", str, required=True, help="checkpoint to read"),
        Opt("features", str, required=True, help="feature CSV"),
        Opt("annotations", str, required=True, help="annotation CSV"),
        Opt("fold", str, "test", "which fold to evaluate",
            choices=("train", "val", "test", "all")),
        Opt("policy", UncertainPolicy, None,
            "uncertain-label mapping for ground truth (default: the checkpoint's)",
            choices=tuple(p.value for p in UncertainPolicy)),
        Opt("findings", _optional(_names), None, "comma list restricting the reported findings"),
        Opt("tau", _optional(float), None, "threshold for sensitivity/specificity"),
        Opt("out", str, None, "report file (also printed to stdout)"),
    ],
    "predict": [
        Opt("checkpoint", str, required=True, help="checkpoint to read"),
        Opt("features", str, required=True, help="feature CSV"),
        Opt("out", str, required=True, help="prediction CSV to write"),
        Opt("ids", _optional(_names), None, "comma list of image ids (default: all rows)"),
        Opt("tau", _optional(float), None, "threshold adding binary label columns"),
    ],
    "gradcheck": [
        Opt("scorer", str, "distmult", "scoring function", choices=SCORER_KINDS),
        Opt("dim", int, 1024, "feature dimension D"),
        Opt("embed-dim", int, 100, "embedding dimension d"),
        Opt("channels", int, 8, "convolution channels (conve only)"),
        Opt("n", int, 14, "number of findings"),
        Opt("trials", int, 5, "random instances per mode"),
        Opt("seed", int, 0, "base seed"),
        Opt("tolerance", float, gradcheck.TOLERANCE, "max allowed relative error"),
    ],
}


def build_parser() -> _Parser:
    """Prefixes of option names (``--tol``) are not accepted: an option is
    spelled in full, so ``join_values`` knows which tokens take a value."""
    parser = _Parser(prog="radkg", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, opts in COMMAND_OPTS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        for opt in [_CONFIG_OPT, *opts]:
            if opt.flag:
                p.add_argument(f"--{opt.name}", dest=opt.key, action="store_true",
                               default=argparse.SUPPRESS, help=opt.help)
            else:
                # resolve_options checks choices; argparse only shows them.
                metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
                p.add_argument(f"--{opt.name}", dest=opt.key, default=argparse.SUPPRESS,
                               metavar=metavar, help=opt.help)
    return parser


_VALUED = {f"--{opt.name}" for opts in COMMAND_OPTS.values()
           for opt in [_CONFIG_OPT, *opts] if not opt.flag}


def join_values(argv: list[str]) -> list[str]:
    """``argv`` with each ``--x v`` of an option that takes a value written
    ``--x=v``, so that the token after it is its value whatever it looks
    like: argparse alone reads ``-1e-4`` or ``-inf`` as a flag."""
    joined, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUED else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def _load_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values: dict[str, str] = {}
    try:
        for lineno, text in data_lines(path):
            key, sep, value = text.partition("=")
            if not sep:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {text.strip()!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    except ParseError as exc:
        raise UsageError(str(exc)) from None
    return values


_ALL_KEYS = {opt.key for opts in COMMAND_OPTS.values() for opt in opts}


def resolve_options(command: str, namespace: argparse.Namespace) -> dict[str, object]:
    """Merge defaults, config file, and explicit flags, then convert."""
    opts = COMMAND_OPTS[command]
    given = vars(namespace)
    config_path = given.get("config") or os.environ.get("RADKG_CONFIG")
    file_values = _load_config_file(config_path) if config_path else {}
    for key in file_values:
        if key not in _ALL_KEYS:
            raise UsageError(f"unknown config key {key!r}")

    resolved: dict[str, object] = {"config": config_path}
    for opt in opts:
        if opt.key in given:
            raw = given[opt.key]
        elif opt.key in file_values:
            raw = file_values[opt.key]
        else:
            resolved[opt.key] = opt.default
            continue
        if opt.choices and raw not in opt.choices:
            raise UsageError(f"--{opt.name}: invalid choice {raw!r}")
        try:
            resolved[opt.key] = opt.convert(raw)
        except ValueError as exc:
            raise UsageError(f"--{opt.name}: {exc}") from None
    for opt in opts:
        if opt.required and resolved.get(opt.key) is None:
            raise UsageError(f"--{opt.name} is required")
    return resolved


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, UncertainPolicy):
        return value.value
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if isinstance(value, RelationKind):
        return value.value
    return str(value)


def echo_lines(command: str, resolved: dict[str, object]) -> list[str]:
    """The effective configuration as sorted ``key = value`` lines."""
    lines = [f"command = {command}"]
    for key in sorted(resolved):
        lines.append(f"{key.replace('_', '-')} = {_render(resolved[key])}")
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_synth(cfg: dict, echo: list[str]) -> int:
    spec = SyntheticSpec(
        m=cfg["m"],
        n=cfg["n"],
        dim=cfg["dim"],
        prototype_scale=cfg["prototype_scale"],
        noise_scale=cfg["noise_scale"],
        label_sparsity=cfg["sparsity"],
        uncertain_fraction=cfg["uncertain_fraction"],
        seed=cfg["seed"],
    )
    features, annotations = synth_dataset(spec)
    write_features(features, cfg["out_features"], comments=echo)
    write_annotations(annotations, cfg["out_annotations"], comments=echo)
    print(f"wrote {features.m} images x {annotations.n} findings")
    return EXIT_OK


def _build_graph(annotations, cfg: dict):
    """The typed graph of ``annotations``, with co-occurrence edges if asked."""
    graph = build_radkg(annotations, cfg["policy"])
    if cfg["cooccurrence"]:
        matrix = cooccurrence_matrix(annotations, cfg["policy"])
        graph = add_cooccurrence(graph, matrix, cfg["cooccur_threshold"])
    return graph


def _cmd_build_kg(cfg: dict, echo: list[str]) -> int:
    graph = _build_graph(load_annotations(cfg["annotations"]), cfg)
    write_kg(graph, cfg["out"], comments=echo)
    for relation, count in sorted(graph.relation_counts().items(), key=lambda kv: kv[0].value):
        print(f"{relation.value}: {count}")
    return EXIT_OK


def _ids_digest(table) -> str:
    """zlib.crc32, as 8 hex digits, of a fold's image ids one per line; no id
    holds a line break."""
    ids = "\n".join(table.image_ids).encode("utf-8")
    return f"{zlib.crc32(ids):08x}"


def _cmd_train(cfg: dict, echo: list[str]) -> int:
    features = load_features(cfg["features"])
    annotations = load_annotations(cfg["annotations"])
    train_t, val_t, _ = split(annotations, cfg["ratios"], cfg["split_seed"])
    train_f = features.select(train_t.image_ids)
    val_f = features.select(val_t.image_ids)
    graph = _build_graph(train_t, cfg)

    relations = resolve_relations(graph, cfg["relations"])
    model = init_model(
        cfg["scorer"],
        feature_dim=features.dim,
        embed_dim=cfg["embed_dim"],
        n_findings=annotations.n,
        relations=relations,
        channels=cfg["channels"],
        seed=cfg["seed"],
    )
    config = TrainConfig(
        learning_rate=cfg["lr"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        optimizer=cfg["optimizer"],
        seed=cfg["seed"],
        policy=cfg["policy"],
        relations=relations,
        patience=cfg["patience"],
    )
    best, history = train(model, graph, train_f, (val_f, val_t), config)

    defined = [(h["val_auc"], h["epoch"]) for h in history if h["val_auc"] is not None]
    best_auc, best_epoch = max(defined, key=lambda t: (t[0], -t[1])) if defined else (None, len(history))
    metadata = {f"config.{key.replace('_', '-')}": _render(value) for key, value in cfg.items()}
    metadata.update({
        "findings": ",".join(map(csv_cell, annotations.finding_names)),
        "seed": str(cfg["seed"]),
        "epoch": str(best_epoch),
        "val_auc": _render(best_auc),
        "train-ids": _ids_digest(train_t),
    })
    save_checkpoint(best, cfg["out_checkpoint"], metadata)
    if cfg["out_history"]:
        with open_commented(cfg["out_history"], echo) as fh:
            fh.write("epoch,loss,val_auc\n")
            for entry in history:
                fh.write(f"{entry['epoch']},{_render(entry['loss'])},{_render(entry['val_auc'])}\n")
    print(f"trained {len(history)} epochs; best val macro-AUC {_render(best_auc)} at epoch {best_epoch}")
    if not defined:
        print(f"no model selection took place: the validation fold ({val_t.m} rows) has no finding "
              f"with both classes, so every epoch ran and the last model was kept")
    return EXIT_OK


def _load_scorer(cfg: dict):
    """The checkpoint's model and metadata, and the features it will score."""
    model, metadata = load_checkpoint(cfg["checkpoint"])
    features = load_features(cfg["features"])
    if model.feature_dim != features.dim:
        raise ValueError(
            f"checkpoint expects {model.feature_dim}-dim features, file has {features.dim}"
        )
    return model, metadata, features


def _cmd_eval(cfg: dict, echo: list[str]) -> int:
    model, metadata, features = _load_scorer(cfg)
    # The fit's split, and its truth policy unless --policy is given, or train's defaults.
    for opt in COMMAND_OPTS["train"]:
        if opt.name in ("policy", "ratios", "split-seed") and cfg.get(opt.key) is None:
            stored = metadata.get(f"config.{opt.name}")
            try:
                cfg[opt.key] = opt.default if stored is None else opt.convert(stored)
            except ValueError as exc:
                raise CheckpointError(f"{cfg['checkpoint']}: config.{opt.name}: {exc}") from None
    echo = echo_lines("eval", cfg)
    annotations = load_annotations(cfg["annotations"])
    names = split_csv_line(metadata["findings"]) if "findings" in metadata else None
    if names is not None and names != annotations.finding_names:
        raise ValueError(f"checkpoint scores findings {names}, annotations list "
                         f"{annotations.finding_names}")
    if model.n_findings != annotations.n:
        raise ValueError(
            f"checkpoint scores {model.n_findings} findings, annotations list {annotations.n}"
        )
    fold_t, trained_on = annotations, metadata.get("train-ids")
    if cfg["fold"] != "all":
        folds = dict(zip(("train", "val", "test"),
                         split(annotations, cfg["ratios"], cfg["split_seed"])))
        fold_t, digest = folds[cfg["fold"]], _ids_digest(folds["train"])
        if trained_on is not None and digest != trained_on:
            raise ValueError(f"{cfg['annotations']}: the training fold's ids digest {digest} is "
                             f"not the checkpoint's {trained_on}: these are not the annotations "
                             f"the model was trained on")
    predictions = predict_table(model, features.select(fold_t.image_ids))
    report = macro_auc(predictions, fold_t, cfg["policy"], findings=cfg["findings"], tau=cfg["tau"])
    text = format_report(report, echo=echo)
    sys.stdout.write(text)
    if cfg["out"]:
        with atomic_open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_predict(cfg: dict, echo: list[str]) -> int:
    if cfg["ids"] == []:
        raise ValueError("--ids: empty image id list (none selects every row)")
    model, metadata, features = _load_scorer(cfg)
    selected = features.select(cfg["ids"]) if cfg["ids"] is not None else features
    finding_names = split_csv_line(metadata["findings"]) if "findings" in metadata else []
    if len(finding_names) != model.n_findings:
        finding_names = [f"finding_{j:02d}" for j in range(model.n_findings)]
    predictions = predict_table(model, selected)
    write_predictions(predictions, finding_names, cfg["out"], tau=cfg["tau"], comments=echo)
    print(f"wrote {len(predictions)} prediction rows")
    return EXIT_OK


def _cmd_gradcheck(cfg: dict, echo: list[str]) -> int:
    cases = [(cfg["scorer"], cfg["dim"], cfg["embed_dim"], cfg["n"], cfg["channels"])]
    seeds = range(cfg["seed"], cfg["seed"] + cfg["trials"])
    reports = [gradcheck.run_suite(cases, seeds, mode=mode, tolerance=cfg["tolerance"])
               for mode in ("score", "loss")]
    worst = max((r.max_rel_error for r in reports), key=lambda e: (math.isnan(e), e))
    checked = sum(r.coords_checked for report in reports for r in report.results)
    print(f"max relative error: {worst:.3e} over {checked} coordinate checks "
          f"(tolerance {cfg['tolerance']:g})")
    if not all(r.passed for r in reports):
        print("gradcheck: FAIL")
        return EXIT_NUMERIC
    print("gradcheck: PASS")
    return EXIT_OK


_RUNNERS = {
    "synth": _cmd_synth,
    "build-kg": _cmd_build_kg,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(join_values(sys.argv[1:] if argv is None else argv))
    if namespace.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        resolved = resolve_options(namespace.command, namespace)
        for opt in COMMAND_OPTS[namespace.command]:
            if opt.name.partition("-")[0] == "out" and (opt.required or resolved[opt.key]):
                check_target(resolved[opt.key])
        echo = echo_lines(namespace.command, resolved)
        return _RUNNERS[namespace.command](resolved, echo)
    except UsageError as exc:
        sys.stderr.write(f"radkg: {exc}\n")
        return EXIT_USAGE
    except (ParseError, CheckpointError, OSError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"radkg: {str(exc) or type(exc).__name__}\n")
        return EXIT_DATA
    except TrainingDivergedError as exc:
        sys.stderr.write(f"radkg: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

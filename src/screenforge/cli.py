"""Command-line interface.

Exit codes: 0 success, 2 empty active set, 3 input error, 4 config error.
The SCREENFORGE_SEED environment variable overrides the default seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from . import __version__, fingerprints
# parse_smiles stays bound here: the benchmark tracer's tests look it up in cli.
from .chem_graph import molecular_formula, parse_smiles  # noqa: F401
from .descriptors import admet_flags, compute_descriptors, load_admet_thresholds
from .fingerprints import FingerprintConfig, circular_fingerprint, to_hex
from .pdenet import (
    DEFAULT_GATE_THRESHOLD,
    TrainConfig,
    load_model,
    molecules,
    predict_and_gate,
    save_model,
    train_pipeline,
)
from .pharmacophore import (
    DEFAULT_MAX_CANDIDATES,
    class_summary,
    generate_hypotheses,
    load_hypothesis,
    save_hypothesis,
    score_candidates,
    screen_by_fit,
    select_best,
)
from .screenctl import (
    EXIT_CONFIG_ERROR,
    EXIT_EMPTY_ACTIVE_SET,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    METRICS,
    OVERLAP_CUTOFF,
    compare_routes,
    default_seed,
    derive_seed,
    emit_report,
    fingerprinted,
    ingest,
    run_screen,
)
from .simcluster import LINKAGES, hier_cluster


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code 2 collides with ours
        self.exit(EXIT_CONFIG_ERROR, f"{self.prog}: error: {message}\n")


class InputError(Exception):
    pass


def _load_records(path: str):
    try:
        records, stats = ingest(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    for message in stats.errors:
        print(f"warning: {message}", file=sys.stderr)
    return records, stats


def _check_threshold(threshold: float) -> None:
    if not math.isfinite(threshold):
        raise ValueError(f"--threshold {threshold} must be a finite number")


def _writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def cmd_parse(args) -> int:
    records, stats = _load_records(args.file)
    out = _writer()
    out.writerow(("id", "name", "canonical_smiles", "formula"))
    for r, mol in molecules(records):
        out.writerow((r.id, r.name or "", r.canonical_smiles, molecular_formula(mol)))
    print(
        f"read={stats.read} parsed={stats.parsed} parse_errors={stats.parse_errors} "
        f"duplicates_removed={stats.duplicates_removed}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_descriptors(args) -> int:
    thresholds = load_admet_thresholds(args.admet_constants)  # fails before any output
    records, _ = _load_records(args.file)
    out = _writer()
    out.writerow(
        (
            "id", "name", "canonical_smiles", "formula", "mw", "tpsa", "wlogp",
            "hbd", "hba", "rotatable_bonds", "heavy_atoms",
            "gi_absorption", "bbb_permeant", "pgp_substrate", "bioavailability_score",
        )
    )
    for r, mol in molecules(records):
        d = compute_descriptors(mol)
        flags = admet_flags(d, thresholds)
        out.writerow(
            (
                r.id, r.name or "", r.canonical_smiles, molecular_formula(mol),
                f"{d.mw:.2f}", f"{d.tpsa:.2f}", f"{d.wlogp:.2f}",
                d.hbd, d.hba, d.rotatable_bonds, d.heavy_atoms,
                flags.gi_absorption, flags.bbb_permeant, flags.pgp_substrate,
                f"{flags.bioavailability_score:.2f}",
            )
        )
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    records, _ = _load_records(args.file)
    cfg = FingerprintConfig(radius=args.radius, nbits=args.nbits, hash_seed=args.seed)
    for r, mol in molecules(records):
        fp = circular_fingerprint(mol, cfg)
        print(f"{r.id}\t{to_hex(fp)}")
    return EXIT_OK


def cmd_similarity(args) -> int:
    a, _ = _load_records(args.fileA)
    b, _ = _load_records(args.fileB)
    if not a or not b:
        raise InputError("both inputs must contain at least one parseable compound")
    summary = compare_routes(a, b, args.metric)
    out = _writer()
    out.writerow(("id", f"max_{args.metric}", f"mean_{args.metric}"))
    for item_id, best, mean in zip(summary.ids_a, summary.max_sim, summary.mean_sim):
        out.writerow((item_id, f"{best:.4f}", f"{mean:.4f}"))
    if args.metric == METRICS[0]:
        print(f"overlap(T >= {OVERLAP_CUTOFF})={summary.overlap}", file=sys.stderr)
    return EXIT_OK


def cmd_cluster(args) -> int:
    records, _ = _load_records(args.file)
    records, fps = fingerprinted(records)
    if len(records) < 2:
        raise InputError("need at least two parseable compounds to cluster")
    if not 1 <= args.clusters <= len(records):
        raise ValueError(f"--clusters {args.clusters} outside [1, {len(records)}]")
    assignment = hier_cluster(fps, linkage=args.linkage, k=args.clusters)
    reps = set(assignment.representatives)
    out = _writer()
    out.writerow(("id", "cluster", "representative"))
    for i, r in enumerate(records):
        out.writerow((r.id, assignment.labels[i], "true" if i in reps else "false"))
    return EXIT_OK


def cmd_train(args) -> int:
    if args.epochs < 1:
        raise ValueError(f"--epochs {args.epochs} must be at least 1")
    records, _ = _load_records(args.csv)
    labeled = [r for r in records if r.pic50 is not None]
    if not labeled:
        raise InputError("training csv has no rows with ic50_nm or pic50")
    seed = args.seed if args.seed is not None else default_seed()
    try:
        hidden = tuple(int(x) for x in args.hidden.split(",") if x)
    except ValueError:
        raise ValueError(
            f"--hidden {args.hidden!r} must be comma-separated positive integers") from None
    cfg = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        hidden_layers=hidden,
        seed=derive_seed(seed, "train"),
    )
    model, losses, result = train_pipeline(labeled, cfg, args.target)
    save_model(model, args.out)
    print(
        f"trained target={args.target} records={len(labeled)} "
        f"final_train_mse={losses[-1]:.4f} test_mse={result.mse:.4f} "
        f"test_r2={result.r2:.4f} -> {args.out}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    _check_threshold(args.threshold)
    records, _ = _load_records(args.file)
    model = load_model(args.model)
    predictions = predict_and_gate(model, records, args.threshold)
    out = _writer()
    out.writerow(("id", "name", f"pic50_{model.target}", "active"))
    for p in predictions:
        out.writerow((p.id, p.name or "", f"{p.pic50:.2f}", "true" if p.active else "false"))
    return EXIT_OK


def cmd_pharm_train(args) -> int:
    records, _ = _load_records(args.csv)
    training = [(m, r.pic50) for r, m in molecules([r for r in records if r.pic50 is not None])]
    if len(training) < 4:
        raise InputError("need at least 4 rows with activity data")
    candidates = generate_hypotheses(training, max_candidates=args.max_candidates)
    score_candidates(candidates, training)
    best = select_best(candidates)
    save_hypothesis(best, args.out)
    print(
        f"candidates={len(candidates)} best_features={len(best.features)} "
        f"null_cost={best.costs.null_cost:.3f} total_cost={best.costs.total_cost:.3f} "
        f"delta={best.costs.delta:.3f} -> {args.out}"
    )
    return EXIT_OK


def cmd_pharm_screen(args) -> int:
    records, _ = _load_records(args.file)
    hypothesis = load_hypothesis(args.hypothesis)
    # A generator, so each molecule and its feature distances go once it is scored.
    library = ((r.id, r.name, mol, r.class_label) for r, mol in molecules(records))
    rows = screen_by_fit(hypothesis, library)
    out = _writer()
    has_classes = any(r.class_label for r in rows)
    header = ["id", "name", "fit", "predicted_pic50"]
    if has_classes:
        header.append("class")
    out.writerow(header)
    for row in rows:
        values = [
            row.id,
            row.name or "",
            f"{row.fit:.2f}",
            "" if row.predicted_pic50 is None else f"{row.predicted_pic50:.2f}",
        ]
        if has_classes:
            values.append(row.class_label or "")
        out.writerow(values)
    if has_classes:
        print("# class summary", file=sys.stderr)
        print("classify,type,representative,quantity,degree_of_fit", file=sys.stderr)
        for s in class_summary(rows):
            print(
                f"{s.classify},{s.type_label},{s.representative},"
                f"{s.quantity},{s.degree_of_fit:.2f}",
                file=sys.stderr,
            )
    return EXIT_OK


def cmd_screen(args) -> int:
    _check_threshold(args.threshold)
    thresholds = load_admet_thresholds(args.admet_constants)  # a bad table fails before any work
    records, _ = _load_records(args.file)
    models = {}
    for path in args.model or ():
        model = load_model(path)
        models[model.target] = model
    hypothesis = load_hypothesis(args.hypothesis) if args.hypothesis else None
    report = run_screen(
        records,
        models,
        hypothesis,
        clusters=args.clusters,
        picks=args.picks,
        threshold=args.threshold,
        linkage=args.linkage,
        seed=args.seed,
        admet_thresholds=thresholds,
        admet_constants=args.admet_constants,
    )
    emit_report(report, args.out)
    print(
        f"library={report.header['library_size']} actives={len(report.rows)} "
        f"clusters={report.header['clusters_effective']} "
        f"picks={report.header['picks_effective']} -> {args.out}"
    )
    return EXIT_OK if report.rows else EXIT_EMPTY_ACTIVE_SET


def build_parser() -> _Parser:
    parser = _Parser(prog="screenforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"screenforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse, canonicalize and deduplicate")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("descriptors", help="physicochemical descriptors and ADME flags")
    p.add_argument("file")
    p.add_argument("--admet-constants", default=None, metavar="PATH")
    p.set_defaults(func=cmd_descriptors)

    p = sub.add_parser("fingerprint", help="circular fingerprints as hex strings")
    p.add_argument("file")
    p.add_argument("--radius", type=int, default=FingerprintConfig.radius)
    p.add_argument("--nbits", type=int, default=FingerprintConfig.nbits)
    p.add_argument("--seed", type=int, default=FingerprintConfig.hash_seed)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("similarity", help="cross-set similarity summary")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.add_argument("--metric", choices=METRICS, default=METRICS[0])
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("cluster", help="hierarchical clustering with medoid picks")
    p.add_argument("file")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--linkage", choices=LINKAGES, default=LINKAGES[0])
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train a pIC50 regressor")
    p.add_argument("csv")
    p.add_argument("--target", choices=("PDE4", "PDE7", "XO", "custom"), required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--hidden", default=",".join(map(str, TrainConfig.hidden_layers)))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict pIC50 and gate actives")
    p.add_argument("file")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_GATE_THRESHOLD)
    p.set_defaults(func=cmd_predict)

    pharm = sub.add_parser("pharm", help="pharmacophore hypotheses")
    pharm_sub = pharm.add_subparsers(dest="pharm_command", required=True)

    p = pharm_sub.add_parser("train", help="build and select a hypothesis")
    p.add_argument("csv")
    p.add_argument("--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pharm_train)

    p = pharm_sub.add_parser("screen", help="rank a library by fit value")
    p.add_argument("file")
    p.add_argument("--hypothesis", required=True)
    p.set_defaults(func=cmd_pharm_screen)

    p = sub.add_parser("screen", help="full screening funnel to a report file")
    p.add_argument("file")
    p.add_argument("--model", action="append", metavar="MODEL_JSON")
    p.add_argument("--hypothesis", default=None)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--picks", type=int, required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_GATE_THRESHOLD)
    p.add_argument("--linkage", choices=LINKAGES, default=LINKAGES[0])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--admet-constants", default=None, metavar="PATH")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_screen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, MemoryError) as exc:  # MemoryError: a size the machine cannot hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    finally:
        # Each command starts with empty caches, as a new process does.
        fingerprints._ENV_IDS.clear()


if __name__ == "__main__":
    sys.exit(main())

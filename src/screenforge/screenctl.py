"""Ingestion, deduplication, pipeline orchestration and report emission.

All randomness flows from one top-level seed fanned out per stage through
a stable hash of the stage name, and every report carries a provenance
header that fully determines its own regeneration; identical seeds and
inputs give byte-identical report files (no timestamps anywhere).
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .chem_graph import (
    SmilesError,
    canonical_smiles,
    iter_smi_lines,
    molecular_formula,
    parse_smiles,
)
from .descriptors import AdmetFlags, admet_flags, compute_descriptors
from .fingerprints import FingerprintConfig, circular_fingerprint
from .pdenet import (
    DEFAULT_GATE_THRESHOLD,
    DatasetRecord,
    MlpModel,
    predict_pic50,
)
from .pharmacophore import Hypothesis, fit_value
from .simcluster import _tanimoto_rows, distance_matrix, hier_cluster, string_similarity

log = logging.getLogger(__name__)

DEFAULT_SEED = 7
SEED_ENV_VAR = "SCREENFORGE_SEED"

EXIT_OK = 0
EXIT_EMPTY_ACTIVE_SET = 2
EXIT_INPUT_ERROR = 3
EXIT_CONFIG_ERROR = 4

CSV_ROLES = ("id", "name", "smiles", "ic50_nm", "pic50", "class", "target")
DEFAULT_COLUMN_MAP = {role: role for role in CSV_ROLES}


def default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            log.warning("ignoring non-integer %s=%r", SEED_ENV_VAR, env)
    return DEFAULT_SEED


def derive_seed(seed: int, stage: str) -> int:
    """Per-stage seed: stable hash of the stage name keyed by the top seed."""
    key = (seed % 2**64).to_bytes(8, "little")
    digest = hashlib.blake2b(stage.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") % 2**31


@dataclass(frozen=True)
class LibrarySource:
    path: str
    format: str  # "smi" | "csv"
    column_map: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_COLUMN_MAP))

    def __post_init__(self):
        if self.format not in ("smi", "csv"):
            raise ValueError(f"unsupported format {self.format!r}")
        if self.format == "csv" and "smiles" not in self.column_map:
            raise ValueError("csv sources must map a smiles column")


@dataclass
class IngestStats:
    read: int = 0
    parsed: int = 0
    parse_errors: int = 0
    duplicates_removed: int = 0
    errors: list[str] = field(default_factory=list)


def source_for(path: str) -> LibrarySource:
    fmt = "csv" if str(path).lower().endswith(".csv") else "smi"
    return LibrarySource(path=str(path), format=fmt)


def ingest(source: LibrarySource) -> tuple[list[DatasetRecord], IngestStats]:
    """Read, parse, canonicalize and deduplicate a compound library.

    Per-row failures are collected in the stats and never abort the batch;
    an unreadable file raises. Duplicate structures (same canonical
    SMILES) keep their first occurrence.
    """
    text = Path(source.path).read_text("utf-8")
    stats = IngestStats()
    records: list[DatasetRecord] = []
    seen: set[str] = set()

    def add(row_id: str, name, smiles, ic50, pic50, target, class_label, where):
        stats.read += 1
        try:
            mol = parse_smiles(smiles)
            canonical = canonical_smiles(mol)
            record = DatasetRecord(
                id=row_id,
                name=name,
                smiles=smiles,
                canonical_smiles=canonical,
                ic50_nm=ic50,
                pic50=pic50,
                target=target,
                class_label=class_label,
            )
        except (SmilesError, ValueError) as exc:
            stats.parse_errors += 1
            stats.errors.append(f"{where}: {exc}")
            return
        stats.parsed += 1
        if canonical in seen:
            stats.duplicates_removed += 1
            return
        seen.add(canonical)
        records.append(record)

    if source.format == "smi":
        for lineno, smiles, name in iter_smi_lines(text):
            add(str(stats.read + 1), name, smiles, None, None, None, None,
                f"line {lineno}")
    else:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None:
            raise ValueError(f"{source.path}: empty csv")
        columns = {source.column_map.get(role, role): role for role in CSV_ROLES}
        for rownum, raw in enumerate(reader, start=2):
            values = {}
            for column, value in raw.items():
                role = columns.get(column)
                if role and value not in (None, ""):
                    values[role] = value.strip()
            if "smiles" not in values:
                stats.read += 1
                stats.parse_errors += 1
                stats.errors.append(f"row {rownum}: missing smiles")
                continue
            try:
                ic50 = float(values["ic50_nm"]) if "ic50_nm" in values else None
                pic50 = float(values["pic50"]) if "pic50" in values else None
            except ValueError as exc:
                stats.read += 1
                stats.parse_errors += 1
                stats.errors.append(f"row {rownum}: {exc}")
                continue
            add(
                values.get("id", str(rownum - 1)),
                values.get("name"),
                values["smiles"],
                ic50,
                pic50,
                values.get("target"),
                values.get("class"),
                f"row {rownum}",
            )
    return records, stats


# ---------------------------------------------------------------------------
# Screening funnel
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    id: str
    name: str | None
    canonical_smiles: str
    formula: str
    mw: float
    fit: float | None
    pic50_per_target: dict[str, float]
    cluster_id: int | None
    representative: bool
    admet: AdmetFlags
    active: bool


@dataclass
class ScreeningReport:
    header: dict[str, str]
    targets: list[str]
    rows: list[ReportRow]


def run_screen(
    records: list[DatasetRecord],
    models: dict[str, MlpModel],
    hypothesis: Hypothesis | None = None,
    clusters: int = 34,
    picks: int = 16,
    threshold: float = DEFAULT_GATE_THRESHOLD,
    linkage: str = "average",
    fp_config: FingerprintConfig = FingerprintConfig(),
    seed: int | None = None,
    admet_constants: str | None = None,
) -> ScreeningReport:
    """Full funnel: score, gate, cluster the actives, mark medoid picks.

    With several models a compound is active only when every target's
    prediction clears the gate (dual-inhibition reading); with none, the
    hypothesis fit regression supplies the gated prediction. Requested
    cluster/pick counts are clamped to the active-set size and both the
    requested and effective values land in the header.
    """
    if not models and hypothesis is None:
        raise ValueError("need at least one model or a hypothesis")
    if picks > clusters:
        raise ValueError("picks must not exceed clusters")
    seed = default_seed() if seed is None else seed
    targets = sorted(models)

    actives = []  # (record, mol, pic50s, fit); inactive molecules are dropped
    for record in records:
        try:
            mol = parse_smiles(record.canonical_smiles)
        except SmilesError as exc:
            log.warning("skipping %s: %s", record.id, exc)
            continue
        pic50s = {t: predict_pic50(models[t], mol) for t in targets}
        fit = fit_value(hypothesis, mol) if hypothesis is not None else None
        if targets:
            active = all(pic50s[t] > threshold for t in targets)
        else:
            predicted = hypothesis.predict_pic50(fit)
            if predicted is None:
                raise ValueError("hypothesis lacks a fit regression")
            pic50s = {"hypothesis": predicted}
            active = predicted > threshold
        if active:
            actives.append((record, mol, pic50s, fit))

    k_eff = min(clusters, len(actives))
    p_eff = min(picks, k_eff)

    cluster_of: dict[str, int] = {}
    representative_ids: set[str] = set()
    if len(actives) == 1:
        cluster_of[actives[0][0].id] = 0
        if p_eff >= 1:
            representative_ids.add(actives[0][0].id)
    elif len(actives) >= 2:
        fps = [circular_fingerprint(mol, fp_config) for _, mol, _, _ in actives]
        ids = [record.id for record, *_ in actives]
        assignment = hier_cluster(distance_matrix(fps), linkage=linkage, k=k_eff)
        for item_id, label in zip(ids, assignment.labels):
            cluster_of[item_id] = label
        by_size = sorted(
            range(k_eff),
            key=lambda c: (-len(assignment.members(c)), c),
        )
        for c in by_size[:p_eff]:
            representative_ids.add(ids[assignment.representatives[c]])

    rows = []
    for record, mol, pic50s, fit in actives:
        desc = compute_descriptors(mol)
        rows.append(
            ReportRow(
                id=record.id,
                name=record.name,
                canonical_smiles=record.canonical_smiles,
                formula=molecular_formula(mol),
                mw=desc.mw,
                fit=fit,
                pic50_per_target=pic50s,
                cluster_id=cluster_of.get(record.id),
                representative=record.id in representative_ids,
                admet=admet_flags(desc, admet_constants),
                active=True,
            )
        )
    rows.sort(key=_row_sort_key)

    report_targets = targets if targets else (["hypothesis"] if hypothesis else [])
    header = {
        "toolchain": f"screenforge {__version__}",
        "seed": str(seed),
        "fingerprint": fp_config.tag(),
        "threshold": repr(threshold),
        "linkage": linkage,
        "clusters_requested": str(clusters),
        "picks_requested": str(picks),
        "clusters_effective": str(k_eff),
        "picks_effective": str(p_eff),
        "models": ",".join(targets) if targets else "none",
        "hypothesis": "yes" if hypothesis is not None else "no",
        "admet_constants": admet_constants or "bundled",
        "sort_key": "mean pIC50 desc, id asc",
        "library_size": str(len(records)),
        "active_count": str(len(actives)),
    }
    return ScreeningReport(header=header, targets=report_targets, rows=rows)


def _row_sort_key(row: ReportRow):
    score = (
        sum(row.pic50_per_target.values()) / len(row.pic50_per_target)
        if row.pic50_per_target
        else (row.fit or 0.0)
    )
    return (-score, row.id)


# ---------------------------------------------------------------------------
# Route comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RouteComparison:
    ids_a: list[str]
    metric: str
    max_sim: list[float]
    mean_sim: list[float]
    overlap: int
    cutoff: float


def compare_routes(
    set_a: list[DatasetRecord],
    set_b: list[DatasetRecord],
    metric: str = "tanimoto",
    cutoff: float = 0.85,
    fp_config: FingerprintConfig = FingerprintConfig(),
) -> RouteComparison:
    """Cross-set structural similarity in one metric (fingerprint Tanimoto
    or character-sequence): per compound of A, the max and mean against B,
    plus the count of A compounds whose max reaches the cutoff."""
    if not set_a or not set_b:
        raise ValueError("both sets must be non-empty")

    def fingerprint_rows(records: list[DatasetRecord]) -> np.ndarray:
        return np.stack(
            [
                circular_fingerprint(parse_smiles(r.canonical_smiles), fp_config).bits
                for r in records
            ]
        ).astype(float)

    if metric == "tanimoto":
        sims = _tanimoto_rows(fingerprint_rows(set_a), fingerprint_rows(set_b))
    elif metric == "string":
        sims = np.array(
            [
                [string_similarity(a.canonical_smiles, b.canonical_smiles) for b in set_b]
                for a in set_a
            ]
        )
    else:
        raise ValueError(f"unknown metric {metric!r}")
    best = sims.max(axis=1)
    return RouteComparison(
        ids_a=[r.id for r in set_a],
        metric=metric,
        max_sim=[float(x) for x in best],
        mean_sim=[float(x) for x in sims.mean(axis=1)],
        overlap=int(np.sum(best >= cutoff)),
        cutoff=cutoff,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _report_columns(report: ScreeningReport) -> list[str]:
    return [
        "id",
        "name",
        "canonical_smiles",
        "formula",
        "mw",
        "fit",
        *(f"pic50_{t}" for t in report.targets),
        "cluster_id",
        "representative",
        "gi_absorption",
        "bbb_permeant",
        "pgp_substrate",
        "bioavailability_score",
        "active",
    ]


def _row_values(row: ReportRow, report: ScreeningReport) -> list[str]:
    return [
        row.id,
        row.name or "",
        row.canonical_smiles,
        row.formula,
        f"{row.mw:.2f}",
        "" if row.fit is None else f"{row.fit:.2f}",
        *(
            f"{row.pic50_per_target[t]:.2f}" if t in row.pic50_per_target else ""
            for t in report.targets
        ),
        "" if row.cluster_id is None else str(row.cluster_id),
        "true" if row.representative else "false",
        row.admet.gi_absorption,
        row.admet.bbb_permeant,
        row.admet.pgp_substrate,
        f"{row.admet.bioavailability_score:.2f}",
        "true" if row.active else "false",
    ]


def emit_report(report: ScreeningReport, path: str, format: str = "csv") -> None:
    """Write the report with its provenance header. ``csv`` prefixes the
    table with ``# key=value`` lines; ``md`` renders a pipe table."""
    if format not in ("csv", "md"):
        raise ValueError(f"unsupported report format {format!r}")
    columns = _report_columns(report)
    buf = io.StringIO()
    if format == "csv":
        for key, value in report.header.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in report.rows:
            writer.writerow(_row_values(row, report))
    else:
        for key, value in report.header.items():
            buf.write(f"> {key}={value}\n")
        buf.write("\n")
        buf.write("| " + " | ".join(columns) + " |\n")
        buf.write("|" + "|".join(" --- " for _ in columns) + "|\n")
        for row in report.rows:
            buf.write("| " + " | ".join(_row_values(row, report)) + " |\n")
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def read_report_header(path: str) -> dict[str, str]:
    header = {}
    for line in Path(path).read_text("utf-8").splitlines():
        if not line.startswith(("#", ">")):
            break
        key, _, value = line[1:].strip().partition("=")
        header[key] = value
    return header

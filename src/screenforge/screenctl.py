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
import itertools
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .chem_graph import canonical_smiles, iter_smi_lines, molecular_formula, parse_smiles
from .descriptors import AdmetFlags, admet_flags, compute_descriptors
from .fields import decimal
from .fingerprints import FingerprintConfig, circular_fingerprint
from .pdenet import (
    DEFAULT_GATE_THRESHOLD,
    DatasetRecord,
    MlpModel,
    molecules,
    scored_molecules,
)
from .pharmacophore import Hypothesis, fit_value
from .simcluster import LINKAGES, hier_cluster, string_similarity, tanimoto_matrix

log = logging.getLogger(__name__)

DEFAULT_SEED = 7
SEED_ENV_VAR = "SCREENFORGE_SEED"

EXIT_OK = 0
EXIT_EMPTY_ACTIVE_SET = 2
EXIT_INPUT_ERROR = 3
EXIT_CONFIG_ERROR = 4

CSV_ROLES = ("id", "name", "smiles", "ic50_nm", "pic50", "class")

# Similarity metrics: fingerprint Tanimoto, the default and the one an
# overlap count is reported for, and character-sequence similarity.
METRICS = ("tanimoto", "string")
# A compound of set A overlaps set B when its best Tanimoto against B
# reaches this value.
OVERLAP_CUTOFF = 0.85


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


@dataclass
class IngestStats:
    read: int = 0
    parsed: int = 0
    parse_errors: int = 0
    duplicates_removed: int = 0
    errors: list[str] = field(default_factory=list)


def _library_rows(path: str, text: str):
    """``(where, id, values)`` for each row of a library file, ``values``
    mapping the roles in CSV_ROLES that the row fills to their text. A CSV
    record that cannot be split into cells fills none, and ``where`` says why;
    a header that names a role twice raises before any row is read."""
    if not path.lower().endswith(".csv"):
        for n, (lineno, smiles, name) in enumerate(iter_smi_lines(text), start=1):
            yield f"line {lineno}", str(n), {"smiles": smiles, "name": name}
        return
    reader = csv.DictReader(io.StringIO(text))
    try:
        header = reader.fieldnames
    except csv.Error as exc:  # a header cell over the field size limit
        raise ValueError(f"row 1: {exc}") from None
    if header is None:
        raise ValueError("empty csv")  # the caller names the file
    repeated = next((c for n, c in enumerate(header) if c in CSV_ROLES and c in header[:n]), None)
    if repeated is not None:
        raise ValueError(f"row 1: column {repeated!r} repeated")
    for rownum in itertools.count(2):
        try:
            raw = next(reader, None)
        except csv.Error as exc:  # a cell over the field size limit; the next record is read
            yield f"row {rownum}: {exc}", str(rownum - 1), {}
            continue
        if raw is None:
            return
        values = {
            column: value.strip()
            for column, value in raw.items()
            if column in CSV_ROLES and value not in (None, "")
        }
        yield f"row {rownum}", values.get("id", str(rownum - 1)), values


def ingest(path: str) -> tuple[list[DatasetRecord], IngestStats]:
    """Read, parse, canonicalize and deduplicate a compound library: CSV
    when the name ends in ``.csv`` (columns named in CSV_ROLES are read,
    others ignored), SMILES lines otherwise. A UTF-8 byte order mark is
    skipped.

    Per-row failures are collected in the stats and never abort the batch;
    an unreadable file raises. Duplicate structures (same canonical
    SMILES) keep their first occurrence.
    """
    text = Path(path).read_text("utf-8-sig")
    stats = IngestStats()
    records: list[DatasetRecord] = []
    seen: set[str] = set()
    for where, row_id, values in _library_rows(path, text):
        stats.read += 1
        try:
            if "smiles" not in values:
                raise ValueError("missing smiles")
            # a spelled-out inf or nan is left to DatasetRecord's finiteness check
            ic50, pic50 = (decimal(values[role], role, finite=False) if role in values else None
                           for role in ("ic50_nm", "pic50"))
            canonical = canonical_smiles(parse_smiles(values["smiles"]))
            record = DatasetRecord(
                id=row_id,
                name=values.get("name"),
                smiles=values["smiles"],
                canonical_smiles=canonical,
                ic50_nm=ic50,
                pic50=pic50,
                class_label=values.get("class"),
            )
        except ValueError as exc:
            stats.parse_errors += 1
            stats.errors.append(f"{where}: {exc}")
            continue
        stats.parsed += 1
        if canonical in seen:
            stats.duplicates_removed += 1
            continue
        seen.add(canonical)
        records.append(record)
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
    cluster_id: int
    representative: bool
    admet: AdmetFlags


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
    linkage: str = LINKAGES[0],
    seed: int | None = None,
    *,
    admet_thresholds: dict[str, float],
    admet_constants: str | None = None,
) -> ScreeningReport:
    """Full funnel: score, gate, cluster the actives, mark medoid picks.

    With several models a compound is active only when every target's
    prediction clears the gate (dual-inhibition reading); with none, the
    hypothesis fit regression supplies the gated prediction. Requested
    cluster/pick counts are clamped to the active-set size and both the
    requested and effective values land in the header, with the file of
    ``admet_thresholds``, ``admet_constants`` (None: the bundled table).
    """
    seed = default_seed() if seed is None else seed
    if not models and hypothesis is None:
        raise ValueError("need at least one model or a hypothesis")
    if clusters < 1 or picks < 0:
        raise ValueError(f"need clusters >= 1 and picks >= 0, got {clusters} and {picks}")
    if picks > clusters:
        raise ValueError("picks must not exceed clusters")
    targets = sorted(models)

    # Each active keeps what clustering and the report read, not its molecule.
    actives = []  # (record, fingerprint, descriptors, formula, pic50s, fit)
    screened = 0
    for record, mol, pic50s in scored_molecules(records, {t: models[t] for t in targets}):
        screened += 1
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
            actives.append((record, circular_fingerprint(mol), compute_descriptors(mol),
                            molecular_formula(mol), pic50s, fit))
        del mol  # no molecule outlives its block

    k_eff = min(clusters, len(actives))
    p_eff = min(picks, k_eff)

    # Cluster labels and picks are by position in ``actives``: ids need not
    # be unique.
    labels: tuple[int, ...] = ()
    picked: set[int] = set()
    if actives:
        assignment = hier_cluster([fp for _, fp, *_ in actives], linkage=linkage, k=k_eff)
        labels = assignment.labels
        by_size = sorted(range(k_eff), key=lambda c: (-labels.count(c), c))
        picked = {assignment.representatives[c] for c in by_size[:p_eff]}

    rows = [
        ReportRow(
            id=record.id,
            name=record.name,
            canonical_smiles=record.canonical_smiles,
            formula=formula,
            mw=desc.mw,
            fit=fit,
            pic50_per_target=pic50s,
            cluster_id=labels[n],
            representative=n in picked,
            admet=admet_flags(desc, admet_thresholds),
        )
        for n, (record, _, desc, formula, pic50s, fit) in enumerate(actives)
    ]
    rows.sort(key=_row_sort_key)

    report_targets = targets or ["hypothesis"]
    header = {
        "toolchain": f"screenforge {__version__}",
        "seed": str(seed),
        "fingerprint": FingerprintConfig().tag(),
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
        "library_size": str(screened),
        "active_count": str(len(actives)),
    }
    return ScreeningReport(header=header, targets=report_targets, rows=rows)


def _row_sort_key(row: ReportRow):
    return (-sum(row.pic50_per_target.values()) / len(row.pic50_per_target), row.id)


# ---------------------------------------------------------------------------
# Route comparison
# ---------------------------------------------------------------------------

def fingerprinted(records: list[DatasetRecord]):
    """The records ``molecules`` yields, and a list of the default fingerprint of each."""
    pairs = [(record, circular_fingerprint(mol)) for record, mol in molecules(records)]
    return [record for record, _ in pairs], [fp for _, fp in pairs]


@dataclass(frozen=True)
class RouteComparison:
    ids_a: list[str]
    max_sim: list[float]
    mean_sim: list[float]
    overlap: int


def compare_routes(
    set_a: list[DatasetRecord],
    set_b: list[DatasetRecord],
    metric: str = METRICS[0],
) -> RouteComparison:
    """Cross-set structural similarity in one metric (fingerprint Tanimoto
    over the compounds ``molecules`` yields, or character-sequence over
    all): per compound of A, the max and mean against B, plus the count of
    A compounds whose max reaches OVERLAP_CUTOFF."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if metric == METRICS[0]:
        (set_a, fps_a), (set_b, fps_b) = fingerprinted(set_a), fingerprinted(set_b)
    if not set_a or not set_b:
        raise ValueError("both sets must be non-empty")
    if metric == METRICS[0]:
        sims = tanimoto_matrix(fps_a, fps_b)
    else:
        sims = np.array([[string_similarity(a.canonical_smiles, b.canonical_smiles)
                          for b in set_b] for a in set_a])
    best = sims.max(axis=1)
    return RouteComparison(
        ids_a=[r.id for r in set_a],
        max_sim=[float(x) for x in best],
        mean_sim=[float(x) for x in sims.mean(axis=1)],
        overlap=int(np.sum(best >= OVERLAP_CUTOFF)),
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
        *(f"{row.pic50_per_target[t]:.2f}" for t in report.targets),
        str(row.cluster_id),
        "true" if row.representative else "false",
        row.admet.gi_absorption,
        row.admet.bbb_permeant,
        row.admet.pgp_substrate,
        f"{row.admet.bioavailability_score:.2f}",
        "true",  # the report keeps active rows only
    ]


def emit_report(report: ScreeningReport, path: str) -> None:
    """Write the report with its provenance header: a pipe table after
    ``> key=value`` lines when ``path`` ends in ``.md``, otherwise CSV after
    ``# key=value`` lines."""
    columns = _report_columns(report)
    buf = io.StringIO()
    if not path.lower().endswith(".md"):
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

"""Checks at scale: the program against the implementations it replaced,
kept in tests/oracles.py, on thousands of generated compounds, with seeds
no other test or workload uses; its peak memory; and outputs that must not
depend on the process that writes them. They take minutes, so tier-1
deselects the ``scale`` marker. CI runs each in a step of its own, and

    python -m pytest -m scale

runs them all.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gen import Generator, descriptor_labels, donor_labels, write_activity_csv, write_smi
from oracles import (
    canonical_ranks_oracle,
    canonical_smiles_oracle,
    circular_fingerprint_oracle,
    components_oracle,
    dense_rows,
    distance_matrix_oracle,
    distance_totals_oracle,
    hier_cluster_oracle,
    hydrogens_oracle,
    nn_list_cluster_oracle,
    parse_smiles_oracle,
    predict_pic50_oracle,
    score_candidates_oracle,
    tanimoto_rows_oracle,
)
from screenforge.chem_graph import canonical_ranks, canonical_smiles, parse_smiles
from screenforge.cli import main
from screenforge.descriptors import compute_descriptors
from screenforge.fingerprints import FingerprintConfig, circular_fingerprint, to_hex
from screenforge.pdenet import DatasetRecord, load_model, predict_and_gate
from screenforge.pharmacophore import generate_hypotheses, score_candidates
from screenforge.simcluster import (
    _condensed_distances,
    _distance_totals,
    hier_cluster,
    tanimoto_matrix,
)

pytestmark = pytest.mark.scale

ROOT = Path(__file__).resolve().parents[1]
TRAIN = ["--target", "PDE4", "--epochs", "20", "--seed", "7"]
# An atom token of SMILES text: a bracket atom or an organic-subset symbol
# (each an atom, in the parser's order), or any other single character.
TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|[BCNOPSFIbcnops]|.")
# Reads the peak RSS of ``python argv`` for peak_rss_mb. A child's ru_maxrss
# counts the RSS of the process it was forked from, up to its exec, so the
# measured child is started by this small process, not by pytest.
LAUNCH = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run(*argv: str, **env: str) -> bytes:
    """Stdout of ``python argv`` in a child process, which must exit 0."""
    return subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}).stdout


def peak_rss_mb(*argv: str, **env: str) -> float:
    """Peak RSS of ``python argv`` in a child process, which must exit 0."""
    code, peak_kb = run("-c", LAUNCH, *argv, **env).split()
    assert code == b"0", f"{argv} failed"
    return int(peak_kb) / 1024


def bracketed(text: str, mol, rng: random.Random) -> str:
    """``text`` with about a third of its organic-subset atoms written in
    brackets with the H count they have (``mol`` is ``text`` parsed)."""
    out, atom = [], 0
    for token in TOKEN.findall(text):
        if token[0] == "[" or token.isalpha():
            h = mol.hydrogens[atom]
            if token[0] != "[" and rng.random() < 1 / 3:
                token = f"[{token}{'H' if h else ''}{h if h > 1 else ''}]"
            atom += 1
        out.append(token)
    return "".join(out)


@pytest.fixture(scope="session")
def activity_table(tmp_path_factory) -> Path:
    """300 compounds from generator seed 7, labelled as the learn benchmark
    labels them."""
    smiles = Generator(7).grow(300)
    path = tmp_path_factory.mktemp("activity") / "activity.csv"
    write_activity_csv(path, smiles, descriptor_labels(smiles, random.Random(7), 6.0), "T",
                       "PDE4")
    return path


@pytest.fixture(scope="session")
def trained_model(activity_table) -> Path:
    """The default 256,64 network trained on the activity table in a child
    process."""
    path = activity_table.with_name("model.json")
    run("-m", "screenforge.cli", "train", str(activity_table), *TRAIN, "--out", str(path))
    return path


@pytest.mark.parametrize("workload", ["funnel", "library", "learn"])
def test_benchmark_smoke_run(workload, tmp_path):
    """One 1-second run of each benchmark workload. Fails unless the run's
    last line (its JSON result) reports correct outputs and no failed
    operation. It runs from a copy of benchmarks/ and src/, as run.py writes
    its results next to its checkout."""
    for part in ("benchmarks", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(str(tmp_path / "benchmarks" / "run.py"), "--workload", workload, "--seconds", "1")
    result = json.loads(out.splitlines()[-1])
    print(f"{workload}: correct={result['correct']} failed={result['failed']}")
    assert result["correct"] is True and result["failed"] == 0


def test_ingest_core_matches_oracles():
    """Grows 3000 compounds from generator seed 11, which no test or
    workload uses, and fails on any compound where the parser (the
    molecule and its fragment list), the canonical ranks or the canonical
    writer differs from the implementation it replaced, or the molecule's
    hydrogen counts differ from their re-derivation, all kept in
    tests/oracles.py, or where the canonical SMILES does not parse back to
    itself: pdenet.molecules rebuilds every record's molecule from that
    string and skips, with a warning, one that fails. Each compound is also
    re-spelled with about a third of its organic atoms in brackets that
    pin their own H count, and must give the same canonical SMILES through
    the writer and its oracle."""
    smiles = Generator(11).grow(3000)
    assert len(smiles) == 3000
    rng = random.Random(11)
    failures = []
    for text in smiles:
        mol, ref = parse_smiles(text), parse_smiles_oracle(text)
        canonical = canonical_smiles(mol)
        respelled = parse_smiles(bracketed(text, mol, rng))
        checks = {
            "molecule": mol == ref,
            "fragments": mol._fragment_list == components_oracle(ref, range(len(ref.atoms))),
            "hydrogens": (mol.hydrogens, mol.total_h) == hydrogens_oracle(mol),
            "ranks": canonical_ranks(mol) == canonical_ranks_oracle(mol),
            "canonical": canonical == canonical_smiles_oracle(mol),
            "re-parse": canonical_smiles(parse_smiles(canonical)) == canonical,
            "brackets": {canonical_smiles(respelled), canonical_smiles_oracle(respelled)}
            == {canonical},
        }
        failures += [f"{name} differs from its oracle: {text}"
                     for name, same in checks.items() if not same]
    assert not failures


def test_pharm_scoring_matches_oracle():
    """For generator seeds 1 to 3 builds a pharm training set the way the
    learn benchmark does (12 polyols and glycosides, 16 compounds with at
    most three donors, donor-count labels), prints how many of the
    enumerated candidates are distinct, and fails on any candidate whose
    regression or costs from score_candidates, which scores each distinct
    hypothesis once, differ from scoring every candidate, the loop kept in
    tests/oracles.py."""
    failures = []
    for seed in (1, 2, 3):
        g = Generator(seed)
        smiles = g.polyol_slice(12)
        few_donors = []
        while len(few_donors) < 16:
            few_donors += [s for s in g.grow(16 - len(few_donors))
                           if compute_descriptors(parse_smiles(s)).hbd <= 3]
        smiles += few_donors
        labels = donor_labels(smiles, random.Random(seed))
        training = [(parse_smiles(s), p) for s, p in zip(smiles, labels)]
        candidates = generate_hypotheses(training)
        reference = generate_hypotheses(training)
        score_candidates(candidates, training)
        score_candidates_oracle(reference, training)
        keys = {(tuple(h.features), tuple(h.pair_constraints.items())) for h in candidates}
        print(f"seed {seed}: {len(keys)} distinct of {len(candidates)} candidates")
        failures += [f"seed {seed}: candidate {h.enumeration_index} differs from its oracle"
                     for h, ref in zip(candidates, reference)
                     if repr((h.fit_regression, h.costs)) != repr((ref.fit_regression, ref.costs))]
    assert not failures


def test_clustering_matches_oracles():
    """Fingerprints 1500 compounds from generator seed 13, which no test or
    workload uses, and fails unless each fingerprint's on-bits and hex
    equal those of the seed's dense fingerprint, and the one on-bit kernel,
    given the fingerprint lists, agrees with the unblocked float64 matrix
    of their dense rows in all three of its uses: the condensed distances
    equal its upper triangle, a 37 x 1500 slice and the 700 x 800 cross-set
    tanimoto_matrix equal the unblocked kernel, and the medoid totals of all
    1500 fingerprints equal its row sums. The labels and representatives of
    all three linkages at k=50 must also equal both the full-scan
    clustering and the nearest-neighbour-list merge that the inf-retiring
    one replaced, all kept in tests/oracles.py."""
    mols = [parse_smiles(s) for s in Generator(13).grow(1500)]
    fps = [circular_fingerprint(mol) for mol in mols]
    seed_bits = [circular_fingerprint_oracle(mol, FingerprintConfig()) for mol in mols]
    rows = dense_rows(fps).astype(float)
    dist = distance_matrix_oracle(fps)
    checks = {
        "fingerprints": all(
            np.array_equal(fp.on_bits, np.flatnonzero(bits))
            and to_hex(fp) == f"{fp.config.tag()}:{np.packbits(bits).tobytes().hex()}"
            for fp, bits in zip(fps, seed_bits)
        ),
        "condensed": np.array_equal(_condensed_distances(fps),
                                    dist[np.triu_indices(len(fps), 1)]),
        "slice": np.array_equal(tanimoto_matrix(fps[200:237], fps),
                                tanimoto_rows_oracle(rows[200:237], rows)),
        "cross-set": np.array_equal(tanimoto_matrix(fps[:700], fps[700:]),
                                    tanimoto_rows_oracle(rows[:700], rows[700:])),
        "medoid totals": np.array_equal(_distance_totals(fps),
                                        distance_totals_oracle(list(range(len(fps))), dist)),
    }
    for linkage in ("single", "complete", "average"):
        ours = hier_cluster(fps, linkage, 50)
        checks[f"{linkage} full scan"] = ours == hier_cluster_oracle(dist, linkage, 50)
        checks[f"{linkage} nn list"] = ours == nn_list_cluster_oracle(fps, linkage, 50)
    assert len(fps) == 1500
    assert [name for name, same in checks.items() if not same] == []


def test_clustering_scale_smoke_run(tmp_path):
    """Clusters 4000 generated compounds in a child process, once with
    --clusters 50 and once with --clusters 1, and fails if either child's
    peak RSS exceeds 160 MB. Merging in the condensed upper triangle of the
    distances, counted from on-bits one strip at a time, and taking medoids
    in slabs reads about 111 MB at both k with fingerprints held as on-bits
    (119 MB with dense 2048-byte fingerprints; 122 MB when the fill also
    held an n x nbits copy of them and a float64 strip). The square n x n
    matrix read 180 MB at k=50 and 183 MB at k=1, a working copy of it
    about 310 MB, and an n x nbits float64 copy of the fingerprints about
    620 MB. Then fingerprints the same compounds in two child processes
    with different string-hash seeds and fails unless both print 4000 lines
    with the same sha256: the memo of environment ids must not depend on
    the order of dicts or sets."""
    path = tmp_path / "big.smi"
    write_smi(path, Generator(5).grow(4000), "G")
    for k in ("50", "1"):
        peak = peak_rss_mb("-m", "screenforge.cli", "cluster", str(path), "--clusters", k)
        print(f"cluster --clusters {k} on 4000 compounds: peak RSS {peak:.0f} MB (limit 160)")
        assert peak <= 160
    outputs = [run("-m", "screenforge.cli", "fingerprint", str(path), PYTHONHASHSEED=seed)
               for seed in ("1", "2")]
    lines, digests = outputs[0].count(b"\n"), [hashlib.sha256(o).hexdigest() for o in outputs]
    print(f"fingerprint, PYTHONHASHSEED=1 and 2: {lines} lines, {digests}")
    assert lines == 4000 and digests[0] == digests[1]


def test_training_determinism_across_processes(activity_table, trained_model, tmp_path):
    """Trains the default 256,64 network on a 300-row generated activity
    table in two child processes and fails unless both model files have the
    same sha256. Training reuses its gradient buffers and Adam's scratch
    from step to step; an element left unwritten in one of them would make
    the two files differ. Then the test's own process trains the same
    model, and a fork-started multiprocessing child, which inherits that
    process's state after its run, trains it once more; the test fails
    unless the child exits 0 within 300 s with a model of the same sha256.
    A worker thread that outlived the run it served once made such a child
    hang in its first shared Adam step."""
    argv = ["train", str(activity_table), *TRAIN, "--out"]
    again, parent, forked = (tmp_path / f"{name}.json" for name in ("b", "parent", "forked"))
    run("-m", "screenforge.cli", *argv, str(again))
    assert main(argv + [str(parent)]) == 0
    child = multiprocessing.get_context("fork").Process(
        target=lambda: sys.exit(main(argv + [str(forked)])))
    child.start()
    child.join(300)
    if child.exitcode is None:  # still running
        child.kill()
        child.join()
    assert child.exitcode == 0
    digests = [hashlib.sha256(model.read_bytes()).hexdigest()
               for model in (trained_model, again, parent, forked)]
    print("train: child processes, the test's process, its forked child:", *digests)
    assert len(set(digests)) == 1


def test_prediction_matches_oracle(trained_model):
    """Takes the default 256,64 network trained on the Generator(7) activity
    table, the determinism test's first model, and scores 2000 compounds
    from generator seed 17, which no test or workload uses, through
    predict_and_gate (PREDICT_BLOCK rows at a time, one GEMV per row and
    layer) and through the single-row path it replaced, kept in
    tests/oracles.py. Fails on any compound whose pIC50 repr differs from
    the oracle's. CI runs it with one and then two BLAS threads
    (OPENBLAS_NUM_THREADS)."""
    model = load_model(str(trained_model))
    records = [
        DatasetRecord(id=str(n), smiles=s, canonical_smiles=canonical_smiles(parse_smiles(s)))
        for n, s in enumerate(Generator(17).grow(2000))
    ]
    scored = {p.id: p.pic50 for p in predict_and_gate(model, records)}
    failures = [
        f"compound {record.id} differs from its oracle: {record.smiles}"
        for record in records
        if repr(scored.get(record.id))
        != repr(predict_pic50_oracle(model, parse_smiles(record.canonical_smiles)))
    ]
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}: "
          f"{len(records)} compounds, {len(scored)} scored, {len(failures)} differences")
    assert not failures and len(scored) == 2000


def test_training_memory_smoke_run(activity_table, tmp_path):
    """Trains the default 256,64 network for 20 epochs on 300 generated
    compounds, labelled as the learn benchmark labels them, in a child
    process, and fails if its peak RSS exceeds that of a child that only
    imports screenforge.cli (34.3 MB) by more than 19 MB. Holding each
    feature array once (one preallocated raw matrix, freed once normalized;
    normalization in place) reads 17.1 MB above; a list of rows, its
    stacked copy and the raw matrix alive through training read 20.7-21.7
    MB. One BLAS thread in both children keeps per-thread buffers out of
    the reading."""
    base = peak_rss_mb("-c", "import screenforge.cli", OPENBLAS_NUM_THREADS="1")
    train = peak_rss_mb("-m", "screenforge.cli", "train", str(activity_table), *TRAIN,
                        "--out", str(tmp_path / "model.json"), OPENBLAS_NUM_THREADS="1")
    print(f"train on 300 compounds: peak RSS {train:.1f} MB, {train - base:.1f} MB "
          f"above importing screenforge.cli ({base:.1f} MB; limit 19)")
    assert train - base <= 19

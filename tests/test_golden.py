"""Golden outputs: the sha256 of stdout, stderr, the exit code and every
output file of each command, run as a user runs it, in a child process.

The inputs are the bundled corpus, a salted copy of it, a CSV of it with a
class label on most rows, the bundled XO activity table, a small library
from ``benchmarks/gen.py``, and small files written here for what those
leave out: unusual SMILES (``EDGE``), an activity table with both activity
columns (``ACTIVITY``), hand-written hypotheses and an edited constants
table. Commands run in one temporary directory with relative paths, so no
path of the machine enters an output.

Two groups:

- portable: parsing, descriptors, fingerprints, similarity, clustering and
  the pharmacophore commands. Their floats come from Python arithmetic or
  from a float32 GEMM over 0/1 rows, which is exact, so the bytes are the
  same on every platform.
- platform: ``train``, ``predict`` and ``screen`` with models. Their floats
  come from BLAS matrix products, whose last bits can differ between CPUs
  and library builds, so they are pinned for one platform key (the key of
  ``benchmarks/digests.json``) and skipped on any other.

To re-record after an intended output change::

    PYTHONPATH=src python tests/test_golden.py

which rewrites ``tests/golden_digests.json`` on this machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("golden_digests.json")
sys.path.insert(0, str(ROOT / "benchmarks"))

from gen import Generator, write_smi  # noqa: E402
from run import platform_key, provenance  # noqa: E402

SALTS = (".[Na+]", ".[Cl-]")
# Cycled over the corpus rows of classes.csv; an empty label leaves a row unclassified.
CLASSES = ("Alkaloids", "Flavonoids", "Terpenes", "")
# A duplicate and two unparseable rows, a %nn ring closure, two-unit
# charges written both ways, carbon-free compounds, three-membered rings
# (with a charged N that only the ring-free TPSA row matches), a P compound,
# and rule-of-five failures in the low, middle and high TPSA buckets.
EDGE = """\
CCO ethanol
OCC ethanol_again
C1CC unclosed_ring
C$C bad_character
C%10CCCCC%10 cyclohexane
[Ca++].[O-]C(=O)C(=O)[O-] calcium_oxalate
[Mg+2].[O-2] magnesium_oxide
OO peroxide
C1CO1 oxirane
C1C[NH2+]1 aziridinium
CP(C)C trimethylphosphine
CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC tetracontane
OCC(O)C(O)C(O)C(O)C(O)CCCCCCCCCCCCCCCCCCCCCCCC hexol_tail
OCC(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)CO dodecitol
"""
# Bracket atoms: a bracket that pins the H count the bare symbol gets is
# dropped, so the ethanols, the waters and the pyrroles are one molecule
# each; the rest keep their brackets (a radical, an isotope, a charge, two
# pentavalent carbons, one with more bonds than any valence, and an
# aromatic carbon without its H).
BRACKETS = """\
CCO ethanol
[CH3]CO ethanol_bracketed
OC[CH2]C propanol_bracketed
[OH2] water_bracketed
O water
c1cc[nH]c1 pyrrole
[cH]1ccc[nH]1 pyrrole_bracketed
C[CH2] ethyl_radical
[13CH4] methane_13c
[NH4+] ammonium
[CH](C)(C)(C)C pentavalent_ch
C[C](C)(C)(C)C pentavalent_c
c1cc[c]cc1 phenyl_radical
"""
# Every compound carries three CH2OH on one carbon and is labelled pIC50 6,
# so pharm train meets repeated candidates and fits that are all equal, and
# train a test split with no variance. Rows give ic50_nm, pic50 or both;
# one row disagrees with itself and one has a cell over the CSV reader's
# field size limit.
ACTIVITY = "id,name,smiles,ic50_nm,pic50\n" + "".join(
    f"a{n},{name},{smiles},{ic50},{pic50}\n" for n, (name, smiles, ic50, pic50) in enumerate([
        ("pentaerythritol", "C(CO)(CO)(CO)CO", "1000", "6"),
        ("trimethylolethane", "CC(CO)(CO)CO", "", "6"),
        ("trimethylolpropane", "CCC(CO)(CO)CO", "1000", ""),
        ("tmp_butyl", "CCCC(CO)(CO)CO", "1000", "6.0"),
        ("tmp_pentyl", "CCCCC(CO)(CO)CO", "", "6"),
        ("tmp_hexyl", "CCCCCC(CO)(CO)CO", "1000", ""),
        ("tmp_methoxy", "COCC(CO)(CO)CO", "1000", "6"),
        ("tmp_ethoxy", "CCOCC(CO)(CO)CO", "", "6"),
        ("tmp_chloro", "ClCC(CO)(CO)CO", "1000", ""),
        ("tmp_amino", "NCC(CO)(CO)CO", "1000", "6"),
        ("tmp_phenyl", "c1ccccc1C(CO)(CO)CO", "", "6"),
        ("tmp_vinyl", "C=CC(CO)(CO)CO", "1000", ""),
        ("inconsistent", "CCCCCCCC(CO)(CO)CO", "10", "6"),
        ("oversized", "C" * 140_000, "1000", ""),
    ], start=1))
# No fit regression; on salted.smi the PosIonizable feature is often only
# the counter-ion, at no finite distance from the others.
HYPOTHESIS_NO_FIT = {
    "format_version": 1,
    "features": [{"kind": kind, "weight": 1.0} for kind in ("HBD", "HBA", "PosIonizable")],
    "pair_constraints": [{"i": i, "j": j, "distance": d, "tolerance": 1}
                         for i, j, d in ((0, 1, 1), (0, 2, 2), (1, 2, 2))],
    "fit_regression": None,
}
# A one-weight model whose kept feature index is outside its 64 features.
MODEL_BAD_KEPT = {
    "format_version": 1, "target": "custom", "layer_sizes": [1, 1], "activation": "relu",
    "weights": [[[0.5]]], "biases": [[0.0]],
    "feature_config": {"radius": 2, "nbits": 64, "hash_seed": 0, "descriptors": []},
    "norm_stats": {"mean": [0.0], "std": [1.0], "kept": [64]},
}


class Command(NamedTuple):
    name: str
    argv: list[str]
    files: list[str]  # output files
    group: str
    env: dict[str, str] | None = None  # set on top of the environment


# Run in this order: later commands read the models and the hypothesis that
# earlier ones write.
COMMANDS = [Command(*c) for c in [
    ("parse_corpus", ["parse", "corpus.smi"], [], "portable"),
    ("parse_salted", ["parse", "salted.smi"], [], "portable"),
    ("parse_library", ["parse", "library.smi"], [], "portable"),
    ("parse_csv", ["parse", "xoi_ic50.csv"], [], "portable"),
    ("descriptors_corpus", ["descriptors", "corpus.smi"], [], "portable"),
    ("descriptors_salted", ["descriptors", "salted.smi"], [], "portable"),
    ("descriptors_library", ["descriptors", "library.smi"], [], "portable"),
    ("descriptors_csv", ["descriptors", "xoi_ic50.csv"], [], "portable"),
    ("fingerprint_corpus", ["fingerprint", "corpus.smi"], [], "portable"),
    ("fingerprint_salted", ["fingerprint", "salted.smi", "--radius", "3", "--nbits", "1024"],
     [], "portable"),
    ("fingerprint_library", ["fingerprint", "library.smi"], [], "portable"),
    ("similarity_tanimoto", ["similarity", "library.smi", "corpus.smi"], [], "portable"),
    ("similarity_salted", ["similarity", "salted.smi", "corpus.smi"], [], "portable"),
    ("similarity_string", ["similarity", "library.smi", "corpus.smi", "--metric", "string"],
     [], "portable"),
    ("cluster_average", ["cluster", "library.smi", "--clusters", "8"], [], "portable"),
    ("cluster_single", ["cluster", "library.smi", "--clusters", "8", "--linkage", "single"],
     [], "portable"),
    ("cluster_complete", ["cluster", "corpus.smi", "--clusters", "6", "--linkage", "complete"],
     [], "portable"),
    ("cluster_bad_k", ["cluster", "corpus.smi", "--clusters", "0"], [], "portable"),
    ("pharm_train", ["pharm", "train", "xoi_ic50.csv", "--out", "hyp.json"], ["hyp.json"],
     "portable"),
    ("pharm_screen_library", ["pharm", "screen", "library.smi", "--hypothesis", "hyp.json"],
     [], "portable"),
    ("pharm_screen_salted", ["pharm", "screen", "salted.smi", "--hypothesis", "hyp.json"],
     [], "portable"),
    ("pharm_screen_classes", ["pharm", "screen", "classes.csv", "--hypothesis", "hyp.json"],
     [], "portable"),
    ("screen_hypothesis_csv",
     ["screen", "library.smi", "--hypothesis", "hyp.json", "--clusters", "5", "--picks", "3",
      "--linkage", "complete", "--out", "hyp_report.csv"], ["hyp_report.csv"], "portable"),
    ("screen_hypothesis_md",
     ["screen", "salted.smi", "--hypothesis", "hyp.json", "--clusters", "4", "--picks", "4",
      "--threshold", "6.5", "--out", "hyp_report.md"], ["hyp_report.md"], "portable"),
    ("screen_no_actives",
     ["screen", "corpus.smi", "--hypothesis", "hyp.json", "--clusters", "3", "--picks", "1",
      "--threshold", "99", "--out", "empty_report.csv"], ["empty_report.csv"], "portable"),
    ("train_xo",
     ["train", "xoi_ic50.csv", "--target", "XO", "--epochs", "30", "--out", "xo.json"],
     ["xo.json"], "platform"),
    ("train_custom",
     ["train", "xoi_ic50.csv", "--target", "custom", "--epochs", "12", "--hidden", "16,8",
      "--lr", "0.01", "--batch", "5", "--seed", "3", "--out", "custom.json"],
     ["custom.json"], "platform"),
    ("predict_corpus", ["predict", "corpus.smi", "--model", "xo.json"], [], "platform"),
    ("predict_salted", ["predict", "salted.smi", "--model", "custom.json", "--threshold", "0"],
     [], "platform"),
    ("screen_models_csv",
     ["screen", "corpus.smi", "--model", "xo.json", "--model", "custom.json", "--clusters", "5",
      "--picks", "3", "--threshold", "0", "--out", "report.csv"], ["report.csv"], "platform"),
    ("screen_models_md",
     ["screen", "salted.smi", "--model", "xo.json", "--hypothesis", "hyp.json", "--clusters",
      "6", "--picks", "2", "--threshold", "1", "--linkage", "single", "--out", "report.md"],
     ["report.md"], "platform"),
    ("parse_edge", ["parse", "edge.smi"], [], "portable"),
    ("parse_brackets", ["parse", "brackets.smi"], [], "portable"),
    ("descriptors_edge", ["descriptors", "edge.smi"], [], "portable"),
    ("descriptors_constants", ["descriptors", "edge.smi", "--admet-constants", "admet.txt"],
     [], "portable"),
    ("screen_edge",
     ["screen", "edge.smi", "--hypothesis", "hyp.json", "--clusters", "4", "--picks", "2",
      "--threshold", "0", "--admet-constants", "admet.txt", "--out", "edge_report.csv"],
     ["edge_report.csv"], "portable"),
    ("parse_activity", ["parse", "activity.csv"], [], "portable"),
    ("pharm_train_capped",
     ["pharm", "train", "activity.csv", "--max-candidates", "5", "--out", "hyp5.json"],
     ["hyp5.json"], "portable"),
    ("pharm_screen_no_fit", ["pharm", "screen", "salted.smi", "--hypothesis", "no_fit.json"],
     [], "portable"),
    ("pharm_screen_big_weight",
     ["pharm", "screen", "corpus.smi", "--hypothesis", "big_weight.json"], [], "portable"),
    ("pharm_screen_big_index",
     ["pharm", "screen", "corpus.smi", "--hypothesis", "big_index.json"], [], "portable"),
    ("predict_bad_kept", ["predict", "corpus.smi", "--model", "bad_kept_model.json"], [],
     "portable"),
    ("predict_ragged_weights", ["predict", "corpus.smi", "--model", "ragged_model.json"], [],
     "portable"),
    ("parse_missing_file", ["parse", "missing.smi"], [], "portable"),
    ("cluster_bad_int", ["cluster", "corpus.smi", "--clusters", "many"], [], "portable"),
    ("screen_seed_env",
     ["screen", "corpus.smi", "--hypothesis", "hyp.json", "--clusters", "3", "--picks", "1",
      "--out", "seed_report.csv"], ["seed_report.csv"], "portable", {"SCREENFORGE_SEED": "11"}),
    ("screen_bad_seed_env",
     ["screen", "corpus.smi", "--hypothesis", "hyp.json", "--clusters", "3", "--picks", "1",
      "--out", "bad_seed_report.csv"], ["bad_seed_report.csv"], "portable",
     {"SCREENFORGE_SEED": "eleven"}),
    ("train_activity",
     ["train", "activity.csv", "--target", "PDE4", "--epochs", "3", "--hidden", "8",
      "--batch", "4", "--out", "activity.json"], ["activity.json"], "platform"),
    # Its 139 x 1024 first layer holds four full Adam chunks, so the worker
    # thread takes a share of each step.
    ("train_xo_wide",
     ["train", "xoi_ic50.csv", "--target", "XO", "--epochs", "5", "--hidden", "1024,8",
      "--out", "xo_wide.json"], ["xo_wide.json"], "platform"),
]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(work: Path) -> dict[str, str]:
    """Write the inputs into ``work``; returns their digests."""
    data = resources.files("screenforge") / "data"
    corpus = (data / "corpus.smi").read_text("utf-8")
    (work / "corpus.smi").write_text(corpus, encoding="utf-8")
    (work / "xoi_ic50.csv").write_text((data / "xoi_ic50.csv").read_text("utf-8"),
                                       encoding="utf-8")
    salted, classes, n = [], ["id,name,smiles,class"], 0
    for line in corpus.splitlines():
        if line.strip() and not line.startswith("#"):
            smiles, _, name = line.partition(" ")
            line = f"{smiles}{SALTS[n % 2]} {name}"
            classes.append(f"c{n + 1},{name},{smiles},{CLASSES[n % len(CLASSES)]}")
            n += 1
        salted.append(line)
    (work / "salted.smi").write_text("\n".join(salted) + "\n", encoding="utf-8")
    (work / "classes.csv").write_text("\n".join(classes) + "\n", encoding="utf-8")
    write_smi(work / "library.smi", Generator(3).grow(60), "G")
    (work / "edge.smi").write_text(EDGE, encoding="utf-8")
    (work / "brackets.smi").write_text(BRACKETS, encoding="utf-8")
    (work / "activity.csv").write_text(ACTIVITY, encoding="utf-8")
    features, pairs = HYPOTHESIS_NO_FIT["features"], HYPOTHESIS_NO_FIT["pair_constraints"]
    documents = {
        "no_fit.json": HYPOTHESIS_NO_FIT,
        "big_weight.json": {**HYPOTHESIS_NO_FIT,
                            "features": [{**features[0], "weight": 10**400}, *features[1:]]},
        "big_index.json": {**HYPOTHESIS_NO_FIT,
                           "pair_constraints": [{**pairs[0], "i": 10**400}, *pairs[1:]]},
        "bad_kept_model.json": MODEL_BAD_KEPT,
        "ragged_model.json": {**MODEL_BAD_KEPT, "weights": [[[0.5], [0.5, 0.5]]]},
    }
    for name, doc in documents.items():
        (work / name).write_text(json.dumps(doc), encoding="utf-8")
    constants = (data / "admet_thresholds.txt").read_text("utf-8")
    constants = constants.replace("bbb_tpsa_max 79", "bbb_tpsa_max 90")
    constants = constants.replace("bioavail_default_fail 0.17", "bioavail_default_fail 0.2")
    (work / "admet.txt").write_text(constants, encoding="utf-8")
    names = ("corpus.smi", "salted.smi", "classes.csv", "xoi_ic50.csv", "library.smi",
             "edge.smi", "brackets.smi", "activity.csv", *documents, "admet.txt")
    return {name: sha256((work / name).read_bytes()) for name in names}


def command_env(command: Command) -> dict[str, str]:
    """The environment a command runs in: the caller's, without its
    SCREENFORGE_SEED (so the default seed), plus the command's own."""
    env = {k: v for k, v in os.environ.items() if k != "SCREENFORGE_SEED"}
    return {**env, **(command.env or {})}


def run_commands(work: Path) -> dict[str, dict]:
    out = {}
    for command in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "screenforge.cli", *command.argv],
            cwd=work, env={**command_env(command), "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, check=False,
        )
        out[command.name] = {
            "exit": proc.returncode,
            "stdout": sha256(proc.stdout),
            "stderr": sha256(proc.stderr),
            "files": {f: sha256((work / f).read_bytes())
                      for f in command.files if (work / f).is_file()},
        }
    return out


def current_platform() -> dict:
    return platform_key(provenance(0))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    inputs = write_inputs(work)
    return inputs, run_commands(work)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text("utf-8"))


def test_inputs(golden, recorded):
    assert golden[0] == recorded["inputs"]


@pytest.mark.parametrize("name", [c.name for c in COMMANDS if c.group == "portable"])
def test_portable(name, golden, recorded):
    assert golden[1][name] == recorded["portable"][name]


@pytest.mark.parametrize("name", [c.name for c in COMMANDS if c.group == "platform"])
def test_platform(name, golden, recorded):
    if current_platform() != recorded["platform_key"]:
        pytest.skip("BLAS float results are pinned only for the platform they were recorded "
                    f"on: {recorded['platform_key']}")
    assert golden[1][name] == recorded["platform"][name]


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp))
        results = run_commands(Path(tmp))
    doc = {
        "inputs": inputs,
        "platform_key": current_platform(),
        **{group: {c.name: results[c.name] for c in COMMANDS if c.group == group}
           for group in ("portable", "platform")},
    }
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    record()

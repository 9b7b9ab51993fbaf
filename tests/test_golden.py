"""Golden outputs: the sha256 of stdout, stderr, the exit code and every
output file of each command, run as a user runs it, in a child process.

The inputs are the bundled corpus, a salted copy of it, a CSV of it with a
class label on most rows, the bundled XO activity table and a small
library from ``benchmarks/gen.py``. Commands run in one temporary
directory with relative paths, so no path of the machine enters an
output.

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

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("golden_digests.json")
sys.path.insert(0, str(ROOT / "benchmarks"))

from gen import Generator, write_smi  # noqa: E402
from run import platform_key, provenance  # noqa: E402

SALTS = (".[Na+]", ".[Cl-]")
# Cycled over the corpus rows of classes.csv; an empty label leaves a row unclassified.
CLASSES = ("Alkaloids", "Flavonoids", "Terpenes", "")

# (name, argv, output files, group), run in this order: later commands read
# the models and the hypothesis that earlier ones write.
COMMANDS = [
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
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(work: Path) -> dict[str, str]:
    """Write the five inputs into ``work``; returns their digests."""
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
    names = ("corpus.smi", "salted.smi", "classes.csv", "xoi_ic50.csv", "library.smi")
    return {name: sha256((work / name).read_bytes()) for name in names}


def run_commands(work: Path) -> dict[str, dict]:
    # The default seed, whatever the caller's environment sets.
    env = {k: v for k, v in os.environ.items() if k != "SCREENFORGE_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = {}
    for name, argv, files, _ in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "screenforge.cli", *argv],
            cwd=work, env=env, capture_output=True, check=False,
        )
        out[name] = {
            "exit": proc.returncode,
            "stdout": sha256(proc.stdout),
            "stderr": sha256(proc.stderr),
            "files": {f: sha256((work / f).read_bytes()) for f in files if (work / f).is_file()},
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


@pytest.mark.parametrize("name", [c[0] for c in COMMANDS if c[3] == "portable"])
def test_portable(name, golden, recorded):
    assert golden[1][name] == recorded["portable"][name]


@pytest.mark.parametrize("name", [c[0] for c in COMMANDS if c[3] == "platform"])
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
        **{group: {name: results[name] for name, _, _, g in COMMANDS if g == group}
           for group in ("portable", "platform")},
    }
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    record()

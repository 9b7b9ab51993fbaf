"""The three benchmark workloads: their inputs, set-up and command lists.

Each workload's set-up writes its inputs into a work directory (and, for
``funnel`` and ``library``, trains the two PDENet models that ``screen``
and ``predict`` load). A pass then runs the workload's commands back to
back through ``screenforge.cli.main``. Commands name their files relative
to the work directory, which is the current directory while they run, so
stdout and output files carry no host paths.

Sizes are chosen so one pass takes 5 to 10 seconds on a 2-core x86
machine, so that several passes fit in a run, and so that the work in a
pass hardly depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from screenforge.chem_graph import parse_smiles
from screenforge.descriptors import compute_descriptors

import gen

CLUSTERS, PICKS = "34", "16"
# Set-up models are small so that set-up stays short; the learn workload
# trains the default 256,64 network as measured work.
SETUP_TRAIN = ("--epochs", "20", "--hidden", "64,16")
# PDENet's predictions on compounds outside its training set spread over
# several pIC50 units whatever the label offset, so each workload sets its
# gate pass rate with the threshold: 1.0 lets nearly the whole funnel
# library reach clustering (which keeps the clustered set, and its cubic
# cost, the same size for every seed); 5.75 passes a few percent of the
# library workload's compounds.
LABEL_OFFSET = 6.0
FUNNEL_THRESHOLD = "1.0"
LIBRARY_THRESHOLD = "5.75"


@dataclass(frozen=True)
class Command:
    label: str                    # metric stem: "<label>_s"
    argv: tuple[str, ...]
    compounds: int                # input rows the command processes
    lines: int                    # expected stdout lines
    outputs: tuple[str, ...] = ()  # files the command writes


@dataclass
class Setup:
    commands: list[Command]
    setup_commands: list[Command]  # run after the inputs are written
    inputs: list[str]              # generated files, digested
    generator: dict                # the generator's attempt and rejection counts


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], Setup]


def _seed_for(seed: int, stage: str) -> str:
    return str(random.Random(f"screenforge-bench:{seed}:{stage}").randrange(2**31))


def _models(seed: int, g: gen.Generator, workdir: Path,
            n_train: int = 240) -> tuple[list[Command], list[str]]:
    """Write one activity table per target over a shared training set and
    return the set-up commands that train the PDE4 and PDE7 models."""
    smiles = g.grow(n_train)
    rng = random.Random(f"screenforge-bench:{seed}:labels")
    commands, files = [], []
    for target in ("PDE4", "PDE7"):
        name = f"{target.lower()}_activity.csv"
        labels = gen.descriptor_labels(smiles, rng, LABEL_OFFSET)
        gen.write_activity_csv(workdir / name, smiles, labels, target.lower(), target)
        files.append(name)
        commands.append(Command(
            f"setup_train_{target.lower()}",
            ("train", name, "--target", target, *SETUP_TRAIN,
             "--seed", _seed_for(seed, target), "--out", f"{target.lower()}.json"),
            n_train, 1, outputs=(f"{target.lower()}.json",),
        ))
    return commands, files


def build_funnel(seed: int, workdir: Path) -> Setup:
    g = gen.Generator(seed)
    library = g.grow(600)
    gen.write_smi(workdir / "library.smi", library, "F")
    train, files = _models(seed, g, workdir)
    n = len(library)
    commands = [
        Command("cluster", ("cluster", "library.smi", "--clusters", CLUSTERS,
                            "--linkage", "complete"), n, n + 1),
        Command("screen", ("screen", "library.smi", "--model", "pde4.json",
                           "--model", "pde7.json", "--clusters", CLUSTERS, "--picks", PICKS,
                           "--threshold", FUNNEL_THRESHOLD, "--linkage", "average",
                           "--seed", _seed_for(seed, "screen"),
                           "--out", "report.csv"), n, 1, outputs=("report.csv",)),
    ]
    return Setup(commands, train, ["library.smi", *files], g.stats.as_dict())


def build_library(seed: int, workdir: Path) -> Setup:
    g = gen.Generator(seed)
    library = g.grow(1500)
    # References from outside the slice, spread over the library's growth
    # strata: the LCS cost of similarity grows with SMILES lengths, and a
    # stratified pick keeps their sum nearly the same for every seed.
    references = library[300::60][:20]
    library_slice = library[:300]
    gen.write_smi(workdir / "library.smi", library, "L")
    gen.write_smi(workdir / "slice.smi", library_slice, "L")
    gen.write_smi(workdir / "references.smi", references, "R")
    train, files = _models(seed, g, workdir)
    n = len(library)
    commands = [
        Command("parse", ("parse", "library.smi"), n, n + 1),
        Command("descriptors", ("descriptors", "library.smi"), n, n + 1),
        Command("fingerprint", ("fingerprint", "library.smi"), n, n),
        Command("predict", ("predict", "library.smi", "--model", "pde4.json"), n, n + 1),
        Command("screen", ("screen", "library.smi", "--model", "pde4.json",
                           "--model", "pde7.json", "--clusters", CLUSTERS, "--picks", PICKS,
                           "--threshold", LIBRARY_THRESHOLD,
                           "--seed", _seed_for(seed, "screen"), "--out", "report.csv"),
                n, 1, outputs=("report.csv",)),
        Command("similarity", ("similarity", "references.smi", "slice.smi",
                               "--metric", "tanimoto"),
                len(references) + len(library_slice), len(references) + 1),
    ]
    return Setup(commands, train,
                 ["library.smi", "slice.smi", "references.smi", *files],
                 g.stats.as_dict())


def _few_donors(g: gen.Generator, n: int, max_hbd: int = 3) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        for s in g.grow(n - len(out)):
            if compute_descriptors(parse_smiles(s)).hbd <= max_hbd:
                out.append(s)
    return out


def build_learn(seed: int, workdir: Path) -> Setup:
    g = gen.Generator(seed)
    pharm_polyols = g.polyol_slice(12)
    screen_polyols = g.polyol_slice(16)
    pharm_set = pharm_polyols + _few_donors(g, 16)
    screen_set = g.grow(400) + screen_polyols
    train_set = g.grow(300)
    rng = random.Random(f"screenforge-bench:{seed}:labels")
    gen.write_activity_csv(workdir / "activity.csv", train_set,
                           gen.descriptor_labels(train_set, rng, LABEL_OFFSET), "T", "PDE4")
    gen.write_activity_csv(workdir / "pharm.csv", pharm_set,
                           gen.donor_labels(pharm_set, rng), "P")
    gen.write_smi(workdir / "screen.smi", screen_set, "S")
    commands = [
        Command("train", ("train", "activity.csv", "--target", "PDE4", "--epochs", "20",
                          "--seed", _seed_for(seed, "train"), "--out", "model.json"),
                len(train_set), 1, outputs=("model.json",)),
        Command("pharm_train", ("pharm", "train", "pharm.csv", "--out", "hypothesis.json"),
                len(pharm_set), 1, outputs=("hypothesis.json",)),
        Command("pharm_screen", ("pharm", "screen", "screen.smi",
                                 "--hypothesis", "hypothesis.json"),
                len(screen_set), len(screen_set) + 1),
    ]
    return Setup(commands, [], ["activity.csv", "pharm.csv", "screen.smi"],
                 g.stats.as_dict())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("funnel", "clustering-heavy: complete-linkage cluster of 600 compounds, then "
                 "a two-model screen whose gate passes most of them", build_funnel),
        Workload("library", "per-compound parse/descriptors/fingerprint/predict over 1500 "
                 "compounds; strict-gate screen and tanimoto similarity keep clustering small",
                 build_library),
        Workload("learn", "PDENet training plus pharmacophore train/screen on polyols and "
                 "glycosides, whose same-kind features blow up the fit search", build_learn),
    )
}

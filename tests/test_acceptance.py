"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion C2 checks a 16-row reference table of formulas and stated
weights, kept verbatim; two of those rows are internally inconsistent (the
stated weight does not match the stated formula) and the test reports them
honestly rather than loosening the tolerance to mask source-data defects.
"""

import random

import numpy as np

from helpers import on_bit_vector, renumbered
from oracles import (
    brute_force_isomorphic,
    distance_matrix,
    fit_value_oracle,
    formula_weight,
    least_squares_oracle,
    tanimoto_set_oracle,
)
from screenforge.cli import main as cli_main
from screenforge.chem_graph import canonical_smiles, parse_smiles
from screenforge.fingerprints import FingerprintConfig
from screenforge.pdenet import (
    DatasetRecord,
    TrainConfig,
    adam_step,
    backprop,
    forward,
    ic50_to_pic50,
    init_model,
    mse_loss,
    predict_and_gate,
    save_model,
    split_dataset,
    train,
)
from screenforge.pharmacophore import (
    generate_hypotheses,
    fit_value,
    score_costs,
    select_best,
)
from screenforge.simcluster import hier_cluster, tanimoto_matrix
from test_pdenet import gate_model
from test_screenctl import constant_model, run_screen


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def test_c01_tanimoto_exactness():
    rng = random.Random(11)
    worst = 0.0
    cfg = FingerprintConfig(nbits=128)
    for _ in range(1000):
        a = np.array([rng.randint(0, 1) for _ in range(128)])
        b = np.array([rng.randint(0, 1) for _ in range(128)])
        va, vb = on_bit_vector(np.flatnonzero(a), cfg), on_bit_vector(np.flatnonzero(b), cfg)
        t = tanimoto_matrix([va], [vb])[0, 0]
        worst = max(worst, abs(t - tanimoto_set_oracle(a, b)))
    cfg = FingerprintConfig(nbits=64)
    exact_third = tanimoto_matrix([on_bit_vector([0, 1], cfg)], [on_bit_vector([0, 2], cfg)])[0, 0]
    ok = worst < 1e-12 and abs(exact_third - 1 / 3) < 1e-12
    report("C1 similarity formula exactness", ok, f"worst |diff| = {worst:.2e}")


# 16 reference rows (formula, stated weight), kept verbatim.
REFERENCE_WEIGHTS = [
    ("C15H20O8", 346.38),   # inconsistent source row: formula weighs 328.32
    ("C20H20O4", 324.37),
    ("C15H10O6", 286.24),
    ("C11H8O3", 188.19),
    ("C14H8O4", 240.19),
    ("C15H10O5", 270.24),
    ("C15H10O5", 270.24),
    ("C15H8O6", 284.22),
    ("C42H38O20", 862.64),  # inconsistent source row: formula weighs 862.75
    ("C15H10O7", 302.24),
    ("C15H10O6", 286.24),
    ("C27H30O16", 610.52),
    ("C15H10O5", 270.24),
    ("C15H10O6", 286.24),
    ("C15H10O5", 270.24),
    ("C15H12O5", 272.26),
]


def test_c02_molecular_weight_oracle():
    failures = []
    for formula, stated in REFERENCE_WEIGHTS:
        computed = formula_weight(formula)
        if abs(computed - stated) > 0.05:
            failures.append(f"{formula}: computed {computed:.2f} vs stated {stated}")
    report(
        "C2 molecular weight vs 16-row reference table (±0.05)",
        not failures,
        "; ".join(failures) or "all 16 rows",
    )


def test_c03_split_contract():
    a = split_dataset(list(range(100)), TrainConfig(seed=2))
    b = split_dataset(list(range(1261)), TrainConfig(seed=2))
    sizes_ok = [len(p) for p in a] == [78, 12, 10] and [len(p) for p in b] == [983, 151, 127]
    disjoint_ok = sorted(a[0] + a[1] + a[2]) == list(range(100))
    again = split_dataset(list(range(1261)), TrainConfig(seed=2))
    deterministic_ok = again == b
    report(
        "C3 split sizes 78/12/10 and 983/151/127, disjoint, deterministic",
        sizes_ok and disjoint_ok and deterministic_ok,
    )


def test_c04_gradient_check():
    model = init_model([10, 8, 4, 1], "tanh", seed=42)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 10))
    y = rng.normal(size=8)
    analytic, _ = backprop(model, X, y)
    eps = 1e-5
    worst = 0.0
    for p, g in zip(model.parameter_list(), analytic):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up = mse_loss(forward(model, X), y)
            p[idx] = orig - eps
            down = mse_loss(forward(model, X), y)
            p[idx] = orig
            numeric = (up - down) / (2 * eps)
            rel = abs(numeric - g[idx]) / max(abs(numeric), abs(g[idx]), 1e-8)
            worst = max(worst, rel)
    report("C4 backprop vs central differences on 10x8x4x1", worst < 1e-5,
           f"max rel err = {worst:.2e}")


def test_c05_optimizer_sanity():
    model = init_model([3, 2, 1], seed=1)
    p = np.concatenate([x.reshape(-1) for x in model.parameter_list()])
    before = p.copy()
    adam_step(p, np.zeros_like(p), np.zeros_like(p), np.zeros_like(p), 1, lr=0.3)
    fixed_point = np.array_equal(p, before)

    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, size=(20, 3))
    y = 2 * X[:, 0] - 3 * X[:, 1] + 0.5 * X[:, 2] + 0.25
    net = init_model([3, 32, 1], "relu", seed=5)
    losses = train(
        net, (X, y),
        TrainConfig(learning_rate=0.02, batch_size=32, epochs=2000,
                    hidden_layers=(32,), seed=5),
    )
    overfit = losses[-1] < 1e-4
    descent = losses[-1] < losses[0]
    report(
        "C5 zero-gradient fixed point; 20-point overfit < 1e-4; descent",
        fixed_point and overfit and descent,
        f"final mse = {losses[-1]:.2e}",
    )


def test_c06_gate_strictness():
    records = [
        DatasetRecord(id=f"{i}", smiles=s, canonical_smiles=s)
        for i, s in enumerate(["C", "CC", "CCC"])  # predict 5.69 / 5.70 / 5.71
    ]
    predictions = predict_and_gate(gate_model(), records, threshold=5.7)
    values = sorted(p.pic50 for p in predictions)
    actives = [p for p in predictions if p.active]
    ok = values == [5.69, 5.70, 5.71] and len(actives) == 1 and actives[0].pic50 == 5.71
    report("C6 strict activity gate at 5.7", ok,
           f"actives = {[p.pic50 for p in actives]}")


def test_c07_pic50_conversion():
    ok = (
        abs(ic50_to_pic50(0.59) - 9.229) <= 1e-3
        and ic50_to_pic50(1.0) == 9.0
    )
    report("C7 activity conversion 0.59 -> 9.229, 1.0 -> 9.0", ok)


def test_c08_clustering_recovery():
    cfg = FingerprintConfig(nbits=64)

    def vec(bits):
        return on_bit_vector(bits, cfg)

    blob1 = [vec(set(range(20)) | {30 + i}) for i in range(5)]
    blob2 = [vec(set(range(40, 60)) | {i}) for i in range(5)]
    d = distance_matrix(blob1 + blob2)
    within = max(
        d[i][j] for i in range(5) for j in range(5) if i != j
    )
    between = min(d[i][j + 5] for i in range(5) for j in range(5))
    two = hier_cluster(blob1 + blob2, "average", 2)
    recovered = two.labels[:5] == (0,) * 5 and two.labels[5:] == (1,) * 5
    singletons = sorted(hier_cluster(blob1 + blob2, "average", 10).labels) == list(range(10))
    merged = set(hier_cluster(blob1 + blob2, "average", 1).labels) == {0}
    report(
        "C8 two-blob recovery at k=2 plus degenerate k",
        within < 0.1 and between > 0.9 and recovered and singletons and merged,
        f"within<{within:.3f}, between>{between:.3f}",
    )


def test_c09_pharmacophore_oracle(corpus):
    from screenforge.pharmacophore import Hypothesis

    hypotheses = [
        Hypothesis(
            features=[("HBD", 1.0), ("HBA", 1.0), ("Hydrophobe", 1.0)],
            pair_constraints={(0, 1): (0.0, 1), (0, 2): (1.0, 1), (1, 2): (1.0, 1)},
        ),
        Hypothesis(
            features=[("HBD", 1.0), ("HBA", 1.0), ("HBA", 0.5), ("AromaticRing", 2.0)],
            pair_constraints={
                (0, 1): (0.0, 1), (0, 2): (3.0, 1), (0, 3): (1.0, 2),
                (1, 2): (3.0, 1), (1, 3): (1.0, 2), (2, 3): (2.0, 1),
            },
        ),
    ]
    from screenforge.pharmacophore import detect_features

    checked = 0
    agree = True
    for name, _, mol in corpus:
        if len(detect_features(mol)) > 8:
            continue
        for h in hypotheses:
            if abs(fit_value(h, mol) - fit_value_oracle(h, mol)) > 1e-12:
                agree = False
        checked += 1

    training = [
        (parse_smiles("Oc1ccccc1"), 9.0),
        (parse_smiles("Oc1ccc(O)cc1"), 8.0),
        (parse_smiles("CCO"), 6.0),
        (parse_smiles("CCC"), 5.0),
    ]
    candidates = generate_hypotheses(training)
    for c in candidates:
        score_costs(c, training)
    best = select_best(candidates)
    seed_mol = training[0][0]
    seed_first = all(
        fit_value(best, seed_mol) >= fit_value(best, mol) for mol, _ in training
    )

    # hand-computed 4-point check of the winning delta
    fits = [fit_value_oracle(best, mol) for mol, _ in training]
    ys = [p for _, p in training]
    slope, intercept = least_squares_oracle(fits, ys)
    total = sum((slope * f + intercept - y) ** 2 for f, y in zip(fits, ys)) + 0.1 * len(best.features)
    null = sum((sum(ys) / 4 - y) ** 2 for y in ys)
    delta_ok = abs(best.costs.delta - (null - total)) < 1e-12
    maximal = all(best.costs.delta >= c.costs.delta for c in candidates)
    report(
        "C9 fit oracle equivalence, seed dominance, best-delta selection",
        agree and checked >= 20 and seed_first and delta_ok and maximal,
        f"{checked} molecules cross-checked",
    )


def test_c10_round_trip(corpus):
    rng = random.Random(101)
    iso_ok = True
    perm_ok = True
    for name, _, mol in corpus:
        c = canonical_smiles(mol)
        if mol.heavy_atom_count() <= 12:
            if not brute_force_isomorphic(mol, parse_smiles(c)):
                iso_ok = False
        elif canonical_smiles(parse_smiles(c)) != c:
            iso_ok = False
        n = len(mol.atoms)
        for _ in range(100):
            order = list(range(n))
            rng.shuffle(order)
            if canonical_smiles(renumbered(mol, order)) != c:
                perm_ok = False
                break
    report(
        "C10 corpus round trip and 100-permutation canonical stability",
        iso_ok and perm_ok,
        f"{len(corpus)} molecules",
    )


def synthetic_active_library():
    smiles = (
        ["C" * n for n in range(1, 61)]
        + ["O" + "C" * n for n in range(1, 41)]
        + ["N" + "C" * n for n in range(1, 41)]
        + ["C" * n + "Cl" for n in range(1, 40)]
    )
    assert len(smiles) == 179
    return [
        DatasetRecord(id=f"{i + 1:03d}", smiles=s,
                      canonical_smiles=canonical_smiles(parse_smiles(s)))
        for i, s in enumerate(smiles)
    ]


def test_c11_funnel_reproduction():
    records = synthetic_active_library()
    report_obj = run_screen(
        records, {"PDE4": constant_model(6.0)}, clusters=34, picks=16, seed=13
    )
    actives = len(report_obj.rows)
    clusters = len({r.cluster_id for r in report_obj.rows})
    picks = sum(1 for r in report_obj.rows if r.representative)
    ok = actives == 179 and clusters == 34 and picks == 16
    report("C11 funnel stage sizes 179 -> 34 -> 16", ok,
           f"{actives} -> {clusters} -> {picks}")


def test_c12_end_to_end_determinism(tmp_path):
    lib = tmp_path / "lib.smi"
    lib.write_text(
        "\n".join(r.smiles for r in synthetic_active_library()[:40]) + "\n"
    )
    model_path = tmp_path / "model.json"
    save_model(constant_model(6.0), str(model_path))
    blobs = []
    for i in range(2):
        out = tmp_path / f"report{i}.csv"
        code = cli_main(
            ["screen", str(lib), "--model", str(model_path),
             "--clusters", "8", "--picks", "4", "--seed", "77", "--out", str(out)]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    report("C12 byte-identical screen reports for fixed seed", blobs[0] == blobs[1])

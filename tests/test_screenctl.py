import functools
import tracemalloc
import weakref

import numpy as np
import pytest

from gen import Generator
from helpers import read_report_header, tanimoto_pair
from oracles import dense_rows, distance_matrix, tanimoto_rows_oracle, tanimoto_set_oracle
from screenforge import fingerprints, pdenet, screenctl
from screenforge.chem_graph import canonical_smiles, parse_smiles
from screenforge.descriptors import load_admet_thresholds
from screenforge.fingerprints import FingerprintConfig, circular_fingerprint
from screenforge.pdenet import (
    PREDICT_BLOCK,
    DatasetRecord,
    FeatureSpec,
    MlpModel,
    NormStats,
    predict_and_gate,
)
from screenforge.screenctl import (
    DEFAULT_SEED,
    OVERLAP_CUTOFF,
    compare_routes,
    default_seed,
    derive_seed,
    emit_report,
    ingest,
)
from screenforge.simcluster import string_similarity

# The funnel with the bundled ADME threshold table.
run_screen = functools.partial(screenctl.run_screen, admet_thresholds=load_admet_thresholds())


def constant_model(value: float, target: str = "PDE4") -> MlpModel:
    """Predicts ``value`` for every molecule."""
    return MlpModel(
        weights=[np.array([[0.0]])],
        biases=[np.array([float(value)])],
        activation="relu",
        target=target,
        feature_spec=FeatureSpec(),
        norm_stats=NormStats(mean=np.zeros(1), std=np.ones(1), kept=np.array([0])),
    )


def heavy_atom_model(target: str = "PDE4") -> MlpModel:
    """Predicts heavy_atoms / 2, so the 5.7 gate passes at >= 12 heavy atoms."""
    spec = FeatureSpec()
    heavy_idx = spec.fingerprint.nbits + list(spec.descriptors).index("heavy_atoms")
    return MlpModel(
        weights=[np.array([[0.5]])],
        biases=[np.zeros(1)],
        activation="relu",
        target=target,
        feature_spec=spec,
        norm_stats=NormStats(
            mean=np.zeros(1), std=np.ones(1), kept=np.array([heavy_idx])
        ),
    )


def thirty_compound_records():
    smiles = (
        ["C" * n for n in range(1, 11)]
        + ["O" + "C" * n for n in range(1, 11)]
        + ["N" + "C" * n for n in range(1, 11)]
    )
    return [
        DatasetRecord(id=f"{i + 1:02d}", smiles=s, canonical_smiles=canonical_smiles(parse_smiles(s)))
        for i, s in enumerate(smiles)
    ]


class TestIngestSmi:
    def test_error_isolation(self, tmp_path):
        path = tmp_path / "lib.smi"
        path.write_text("CCO ethanol\nC1CC broken\nc1ccccc1 benzene\n")
        records, stats = ingest(str(path))
        assert len(records) == 2
        assert stats.read == 3
        assert stats.parsed == 2
        assert stats.parse_errors == 1
        assert stats.errors and "line 2" in stats.errors[0]

    def test_duplicate_spellings_removed(self, tmp_path):
        path = tmp_path / "lib.smi"
        path.write_text("OCC a\nCCO b\nC c\n")
        records, stats = ingest(str(path))
        assert stats.duplicates_removed == 1
        assert [r.name for r in records] == ["a", "c"]  # first occurrence kept

    def test_long_chain_does_not_abort_batch(self, tmp_path):
        path = tmp_path / "lib.smi"
        path.write_text("C" * 1200 + " chain\nCCO ethanol\n")
        records, stats = ingest(str(path))
        assert [r.name for r in records] == ["chain", "ethanol"]
        assert records[0].canonical_smiles == "C" * 1200
        assert stats.parse_errors == 0

    def test_conservation_invariant(self, tmp_path):
        path = tmp_path / "lib.smi"
        path.write_text("# comment\nCCO\nbadatom(\nCCN\nCCO\n")
        records, stats = ingest(str(path))
        assert stats.read == stats.parsed + stats.parse_errors
        assert len(records) == stats.parsed - stats.duplicates_removed


class TestIngestCsv:
    def test_ic50_converted(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text("id,name,smiles,ic50_nm\nx1,alpha,CCO,0.59\n")
        records, stats = ingest(str(path))
        assert stats.parsed == 1
        assert records[0].pic50 == pytest.approx(9.229, abs=1e-3)

    def test_inconsistent_pic50_is_row_error(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text("id,smiles,ic50_nm,pic50\nx1,CCO,1.0,5.0\nx2,CCN,1.0,9.0\n")
        records, stats = ingest(str(path))
        assert stats.parse_errors == 1
        assert [r.id for r in records] == ["x2"]

    def test_non_finite_activity_is_row_error(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text(
            "id,smiles,ic50_nm,pic50\n"
            "x1,CCO,,nan\nx2,CCN,,inf\nx3,CCC,inf,\nx4,CCS,nan,\nx5,CCCl,,7.0\n"
        )
        records, stats = ingest(str(path))
        assert [r.id for r in records] == ["x5"]
        assert stats.parse_errors == 4
        assert all("is not finite" in e for e in stats.errors), stats.errors

    def test_activity_cells_read_as_ascii_decimals(self, tmp_path):
        # float() alone would read 1000 and 123 from the first two cells.
        path = tmp_path / "lib.csv"
        path.write_text(
            "id,smiles,ic50_nm,pic50\nx1,CCO,1_000,\nx2,CCN,,\u0661\u0662\u0663\nx3,CCC,1e3,\n",
            encoding="utf-8",
        )
        records, stats = ingest(str(path))
        assert [r.id for r in records] == ["x3"]
        assert stats.errors == [
            "row 2: ic50_nm = '1_000' is not a finite decimal number",
            "row 3: pic50 = '\u0661\u0662\u0663' is not a finite decimal number",
        ]

    def test_columns_outside_roles_ignored(self, tmp_path):
        path = tmp_path / "lib.CSV"
        path.write_text("Compound,id,smiles,Activity,ic50_nm,target\nc1,x1,CCO,5,100,PDE4\n")
        records, stats = ingest(str(path))
        assert stats.parse_errors == 0
        assert (records[0].id, records[0].name) == ("x1", None)
        assert records[0].pic50 == pytest.approx(7.0)

    def test_smiles_column_required(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text("id,Structure\nx1,CCO\nx2,CCN\n")
        records, stats = ingest(str(path))
        assert records == []
        assert stats.errors == ["row 2: missing smiles", "row 3: missing smiles"]

    def test_other_suffix_reads_smiles_lines(self, tmp_path):
        path = tmp_path / "lib.txt"
        path.write_text("id,smiles\nCCO ethanol\n")
        records, stats = ingest(str(path))
        assert [r.name for r in records] == ["ethanol"]
        assert stats.parse_errors == 1  # the header line is not a SMILES

    def test_class_column_ingested(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text("id,smiles,class\nx1,CCO,Flavonoids\n")
        records, _ = ingest(str(path))
        assert records[0].class_label == "Flavonoids"


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed(7, "train") == derive_seed(7, "train")
        assert derive_seed(7, "train") != derive_seed(7, "split")
        assert derive_seed(7, "train") != derive_seed(8, "train")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SCREENFORGE_SEED", "123")
        assert default_seed() == 123
        monkeypatch.setenv("SCREENFORGE_SEED", "junk")
        assert default_seed() == DEFAULT_SEED
        monkeypatch.delenv("SCREENFORGE_SEED")
        assert default_seed() == DEFAULT_SEED


class TestCompareRoutes:
    def records(self, smiles):
        return [
            DatasetRecord(id=f"r{i}", smiles=s, canonical_smiles=canonical_smiles(parse_smiles(s)))
            for i, s in enumerate(smiles)
        ]

    def test_identical_sets(self):
        a = self.records(["CCO", "c1ccccc1", "CCN"])
        summary = compare_routes(a, a)
        assert summary.max_sim == [1.0, 1.0, 1.0]
        assert compare_routes(a, a, "string").max_sim == [1.0, 1.0, 1.0]
        assert summary.overlap == 3

    def test_disjoint_fingerprints(self):
        a = self.records(["CCCCCC"])
        b = self.records(["O=S(=O)(O)O"])  # shares no environments with hexane
        summary = compare_routes(a, b)
        assert summary.max_sim == [0.0]
        assert summary.overlap == 0

    def test_matches_pairwise_oracle(self):
        a = self.records(["CCO", "CCCC"])
        b = self.records(["CCN", "c1ccccc1"])
        summary = compare_routes(a, b)
        cfg = FingerprintConfig()
        for i, ra in enumerate(a):
            sims = [
                tanimoto_set_oracle(*dense_rows([
                    circular_fingerprint(parse_smiles(ra.canonical_smiles), cfg),
                    circular_fingerprint(parse_smiles(rb.canonical_smiles), cfg),
                ]))
                for rb in b
            ]
            assert summary.max_sim[i] == pytest.approx(max(sims), abs=1e-12)
            assert summary.mean_sim[i] == pytest.approx(sum(sims) / len(sims), abs=1e-12)

    def test_tanimoto_paths_agree_bitwise(self, corpus):
        records = self.records([smiles for _, smiles, _ in corpus])
        cfg = FingerprintConfig()
        fps = [circular_fingerprint(parse_smiles(r.canonical_smiles), cfg) for r in records]
        pairwise = np.array([[tanimoto_pair(a, b) for b in fps] for a in fps])
        assert np.array_equal(distance_matrix(fps), 1.0 - pairwise)
        summary = compare_routes(records[:12], records)
        assert summary.max_sim == [float(x) for x in pairwise[:12].max(axis=1)]
        assert summary.mean_sim == [float(x) for x in pairwise[:12].mean(axis=1)]

    def test_tanimoto_summary_matches_unblocked_float64_kernel(self, corpus):
        records = self.records([smiles for _, smiles, _ in corpus])
        rows = dense_rows(
            [circular_fingerprint(parse_smiles(r.canonical_smiles)) for r in records]
        ).astype(np.float64)
        for a, b in ((slice(0, 1), slice(None)), (slice(3, 40), slice(10, 55))):
            sims = tanimoto_rows_oracle(rows[a], rows[b])
            summary = compare_routes(records[a], records[b])
            assert summary.max_sim == [float(x) for x in sims.max(axis=1)]
            assert summary.mean_sim == [float(x) for x in sims.mean(axis=1)]
            assert summary.overlap == int(np.sum(sims.max(axis=1) >= OVERLAP_CUTOFF))

    def test_string_metric_matches_pairwise_loop(self):
        a = self.records(["CCO", "c1ccccc1O", "CC(=O)N"])
        b = self.records(["CCN", "c1ccccc1", "OCCO", "CCCCCl"])
        summary = compare_routes(a, b, "string")
        for i, ra in enumerate(a):
            sims = [string_similarity(ra.canonical_smiles, rb.canonical_smiles) for rb in b]
            assert max(sims) < 1.0
            assert summary.max_sim[i] == max(sims)
            assert summary.mean_sim[i] == pytest.approx(sum(sims) / len(sims), abs=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            compare_routes([], self.records(["C"]))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            compare_routes(self.records(["C"]), self.records(["C"]), "cosine")


class TestRunScreen:
    def test_thirty_compound_funnel(self):
        records = thirty_compound_records()
        report = run_screen(records, {"PDE4": constant_model(6.0)}, clusters=5, picks=5, seed=1)
        assert len(report.rows) == 30
        reps = [r for r in report.rows if r.representative]
        assert len(reps) == 5
        assert len({r.cluster_id for r in report.rows}) == 5
        assert report.header["clusters_effective"] == "5"

    def test_memory_holds_no_molecule(self):
        # 600 actives: the run peaks at 8.1 MB, of which the condensed
        # distances take 1.4 MB. Holding every active's molecule, with its
        # memoized fingerprint, descriptors and graph, until the report
        # rows are built reads 13.3 MB.
        smiles = Generator(3).grow(600)
        records = [
            DatasetRecord(id=str(n), smiles=s, canonical_smiles=canonical_smiles(parse_smiles(s)))
            for n, s in enumerate(smiles)
        ]
        fingerprints._ENV_IDS.clear()  # each run hashes every environment afresh
        tracemalloc.start()
        try:
            report = run_screen(records, {"PDE4": constant_model(9.0)}, clusters=34, picks=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.rows) == 600
        assert peak < 10e6

    @pytest.mark.parametrize("entry", ["predict_and_gate", "run_screen"])
    def test_holds_one_block_of_molecules(self, entry, monkeypatch):
        smiles = Generator(3).grow(3 * PREDICT_BLOCK + 5)
        records = [
            DatasetRecord(id=str(n), smiles=s, canonical_smiles=canonical_smiles(parse_smiles(s)))
            for n, s in enumerate(smiles)
        ]
        alive, peak = set(), [0]
        molecules = pdenet.molecules

        def counted(records):
            for record, mol in molecules(records):
                alive.add(record.id)
                peak[0] = max(peak[0], len(alive))
                weakref.finalize(mol, alive.discard, record.id)
                yield record, mol

        monkeypatch.setattr(pdenet, "molecules", counted)
        model = constant_model(9.0)
        if entry == "predict_and_gate":
            assert len(predict_and_gate(model, records)) == len(records)
        else:
            report = run_screen(records, {"PDE4": model}, clusters=5, picks=2)
            assert len(report.rows) == len(records)
        assert peak[0] == PREDICT_BLOCK and not alive

    def test_gate_excludes_all(self):
        records = thirty_compound_records()
        report = run_screen(records, {"PDE4": constant_model(5.0)}, clusters=5, picks=5, seed=1)
        assert report.rows == []
        assert report.header["active_count"] == "0"

    def test_dual_target_all_models_must_pass(self):
        records = thirty_compound_records()
        models = {"PDE4": constant_model(6.0, "PDE4"), "PDE7": heavy_atom_model("PDE7")}
        report = run_screen(records, models, clusters=2, picks=1, seed=1)
        # heavy_atom_model passes only for >= 12 heavy atoms: none in fixture
        assert report.rows == []

    def test_rows_reparse_to_themselves(self):
        records = thirty_compound_records()
        report = run_screen(records, {"PDE4": constant_model(6.0)}, clusters=3, picks=2, seed=1)
        for row in report.rows:
            assert canonical_smiles(parse_smiles(row.canonical_smiles)) == row.canonical_smiles

    def test_failures_skipped_and_logged(self, caplog):
        records = [
            DatasetRecord(id="ok", smiles="CC", canonical_smiles="CC"),
            DatasetRecord(id="broken", smiles="C", canonical_smiles="C1CC"),
        ]
        with caplog.at_level("WARNING"):
            report = run_screen(records, {"PDE4": constant_model(6.0)}, clusters=1, picks=1,
                                seed=1)
        assert [row.id for row in report.rows] == ["ok"]
        assert any("broken" in r.message for r in caplog.records)

    def test_requires_model_or_hypothesis(self):
        with pytest.raises(ValueError):
            run_screen(thirty_compound_records(), {}, None, clusters=2, picks=1)

    @pytest.mark.parametrize("clusters, picks", [(0, 0), (-1, 0), (5, -1)])
    def test_cluster_and_pick_counts_checked_before_scoring(self, clusters, picks, monkeypatch):
        def no_scoring(*args):
            raise AssertionError("scored before the counts were checked")

        monkeypatch.setattr(screenctl, "scored_molecules", no_scoring)
        with pytest.raises(ValueError, match="clusters >= 1 and picks >= 0"):
            run_screen(thirty_compound_records(), {"PDE4": constant_model(6.0)},
                       clusters=clusters, picks=picks)

    def test_zero_picks_marks_no_representative(self):
        records = thirty_compound_records()
        report = run_screen(records, {"PDE4": constant_model(6.0)}, clusters=5, picks=0, seed=1)
        assert report.header["picks_effective"] == "0"
        assert not any(r.representative for r in report.rows)
        assert len({r.cluster_id for r in report.rows}) == 5

    @pytest.mark.parametrize("picks", [0, 1])
    def test_one_active_is_cluster_zero(self, picks):
        dodecane = "C" * 12  # the only compound with the 12 heavy atoms the gate needs
        records = thirty_compound_records()[:5] + [
            DatasetRecord(id="big", smiles=dodecane, canonical_smiles=dodecane)
        ]
        report = run_screen(records, {"PDE4": heavy_atom_model()}, clusters=4, picks=picks,
                            seed=1)
        assert [(r.id, r.cluster_id, r.representative) for r in report.rows] == [
            ("big", 0, picks == 1)
        ]
        assert report.header["clusters_effective"] == "1"
        assert report.header["picks_effective"] == str(picks)

    def test_rows_sharing_an_id_keep_their_own_cluster_and_pick(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text("id,smiles\nA,CCO\nA,c1ccccc1\nB,CCCO\nC,Cc1ccccc1\n")
        records, _ = ingest(str(path))
        assert [r.id for r in records] == ["A", "A", "B", "C"]
        report = run_screen(records, {"PDE4": constant_model(6.0)}, clusters=2, picks=1, seed=1)
        cluster = {r.canonical_smiles: r.cluster_id for r in report.rows}
        assert cluster["CCO"] == cluster["CCCO"] != cluster["c1ccccc1"] == cluster["Cc1ccccc1"]
        assert len([r for r in report.rows if r.representative]) == 1

    def test_clamping_recorded(self):
        records = thirty_compound_records()[:3]
        report = run_screen(records, {"PDE4": constant_model(6.0)}, clusters=10, picks=10, seed=1)
        assert report.header["clusters_requested"] == "10"
        assert report.header["clusters_effective"] == "3"
        assert len([r for r in report.rows if r.representative]) == 3

    def test_deterministic_reports(self, tmp_path):
        records = thirty_compound_records()
        paths = []
        for i in range(2):
            report = run_screen(records, {"PDE4": constant_model(6.0)}, clusters=5, picks=3, seed=9)
            path = tmp_path / f"r{i}.csv"
            emit_report(report, str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_hypothesis_only_screen(self):
        from screenforge.pharmacophore import generate_hypotheses, score_costs, select_best

        training = [
            (parse_smiles("Oc1ccccc1"), 9.0),
            (parse_smiles("Oc1ccc(O)cc1"), 8.0),
            (parse_smiles("CCO"), 6.0),
            (parse_smiles("CCC"), 5.0),
        ]
        candidates = generate_hypotheses(training)
        for c in candidates:
            score_costs(c, training)
        h = select_best(candidates)
        records = [
            DatasetRecord(id="phenol", smiles="Oc1ccccc1",
                          canonical_smiles=canonical_smiles(parse_smiles("Oc1ccccc1"))),
            DatasetRecord(id="propane", smiles="CCC",
                          canonical_smiles=canonical_smiles(parse_smiles("CCC"))),
        ]
        report = run_screen(records, {}, h, clusters=1, picks=1, seed=1)
        assert report.targets == ["hypothesis"]
        assert [r.id for r in report.rows] == ["phenol"]


class TestEmitReport:
    def test_empty_report_is_header_only(self, tmp_path):
        report = run_screen(
            thirty_compound_records(), {"PDE4": constant_model(5.0)}, clusters=2, picks=1, seed=1
        )
        path = tmp_path / "r.csv"
        emit_report(report, str(path))
        lines = path.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 1  # column header only
        assert data[0].startswith("id,name,canonical_smiles,formula,mw,fit,pic50_PDE4,")

    def test_single_row_field_order_and_formats(self, tmp_path):
        records = thirty_compound_records()[:1]
        report = run_screen(records, {"PDE4": constant_model(6.0)}, clusters=1, picks=1, seed=1)
        path = tmp_path / "r.csv"
        emit_report(report, str(path))
        data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 2
        fields = data[1].split(",")
        header = data[0].split(",")
        assert header[:6] == ["id", "name", "canonical_smiles", "formula", "mw", "fit"]
        assert fields[header.index("mw")] == "16.04"
        assert fields[header.index("pic50_PDE4")] == "6.00"
        assert fields[header.index("active")] == "true"

    def test_markdown_table(self, tmp_path):
        records = thirty_compound_records()[:2]
        report = run_screen(records, {"PDE4": constant_model(6.0)}, clusters=1, picks=1, seed=1)
        path = tmp_path / "r.md"
        emit_report(report, str(path))
        text = path.read_text()
        assert "| id | name |" in text
        assert text.count("|") > 10

    def test_two_target_schema(self, tmp_path):
        records = thirty_compound_records()[:16]
        models = {"PDE4": constant_model(7.0, "PDE4"), "PDE7": constant_model(6.5, "PDE7")}
        report = run_screen(records, models, clusters=4, picks=2, seed=1)
        path = tmp_path / "r.csv"
        emit_report(report, str(path))
        data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        header = data[0].split(",")
        assert "pic50_PDE4" in header and "pic50_PDE7" in header
        assert len(data) == 17  # 16 compound rows + header

    def test_header_round_trip_regenerates_report(self, tmp_path):
        records = thirty_compound_records()
        report = run_screen(records, {"PDE4": constant_model(6.0)},
                            clusters=4, picks=2, seed=31, linkage="complete")
        first = tmp_path / "a.csv"
        emit_report(report, str(first))
        header = read_report_header(str(first))
        replay = run_screen(
            records,
            {"PDE4": constant_model(6.0)},
            clusters=int(header["clusters_requested"]),
            picks=int(header["picks_requested"]),
            threshold=float(header["threshold"]),
            linkage=header["linkage"],
            seed=int(header["seed"]),
        )
        second = tmp_path / "b.csv"
        emit_report(replay, str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("name, first", [("r.MD", ">"), ("r.txt", "#"), ("r.md.csv", "#")])
    def test_format_follows_suffix(self, tmp_path, name, first):
        report = run_screen(
            thirty_compound_records()[:2], {"PDE4": constant_model(6.0)}, clusters=1, picks=1
        )
        emit_report(report, str(tmp_path / name))
        assert (tmp_path / name).read_text().startswith(first + " toolchain=")

import hashlib
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

from screenforge import cli, descriptors, fingerprints
from screenforge.chem_graph import canonical_smiles, parse_smiles
from screenforge.cli import main
from screenforge.pdenet import (
    DatasetRecord,
    FeatureSpec,
    featurize_records,
    predict_and_gate,
    save_model,
)
from screenforge.screenctl import IngestStats, compare_routes
from test_screenctl import constant_model, heavy_atom_model, run_screen, thirty_compound_records

TRAIN_CSV = """id,name,smiles,ic50_nm
1,a,Oc1ccccc1,0.59
2,b,Oc1ccc(O)cc1,0.94
3,c,Oc1ccc(Cl)cc1,3.01
4,d,Nc1ccccc1,3.11
5,e,Oc1ccccc1C(=O)O,10.01
6,f,CCOc1ccccc1,6.41
7,g,Cc1ccc(O)cc1,4.00
8,h,OCc1ccccc1,5.91
9,i,CC(=O)Nc1ccccc1,12.5
10,j,Oc1cccc2ccccc12,1.8
11,k,Nc1ccc(O)cc1,2.4
12,l,COc1ccc(O)cc1,7.7
"""

# the keys of the bundled ADME threshold table, in file order
BUNDLED_KEYS = [line.split()[0] for line in resources.files("screenforge").joinpath(
    "data/admet_thresholds.txt").read_text("utf-8").splitlines()
    if line.strip() and not line.startswith("#")]


@pytest.fixture()
def library(tmp_path):
    path = tmp_path / "lib.smi"
    lines = [f"{r.smiles} mol-{r.id}" for r in thirty_compound_records()]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text(TRAIN_CSV)
    return path


class TestBasicCommands:
    def test_parse(self, library, capsys):
        assert main(["parse", str(library)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[0] == "id,name,canonical_smiles,formula"
        assert "read=30" in out.err

    def test_parse_missing_file(self, capsys):
        assert main(["parse", "/nonexistent/x.smi"]) == 3

    def test_descriptors(self, library, capsys):
        assert main(["descriptors", str(library)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("id,name,canonical_smiles,formula,mw,tpsa,wlogp")
        assert len(lines) == 31

    def test_fingerprint(self, library, capsys):
        assert main(["fingerprint", str(library), "--radius", "1", "--nbits", "128"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        item_id, payload = first.split("\t")
        assert payload.startswith("r1b128s0:")

    # sha256 of the stdout of `fingerprint` on the bundled corpus (53 lines),
    # read before fingerprint environments were memoized; blake2b and the
    # output format do not depend on the platform.
    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "036ea204726848525e6f54edf9cca6260c97a74119a324d9509efc79fb8e3973"),
            (
                ["--radius", "3", "--nbits", "1024", "--seed", "7"],
                "18497907572e19729e6827a4c32f9c19fe0078b610266516ad8b3aa9832f8f9b",
            ),
        ],
    )
    def test_fingerprint_corpus_golden(self, capsys, flags, digest):
        with resources.as_file(resources.files("screenforge") / "data/corpus.smi") as path:
            assert main(["fingerprint", str(path), *flags]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 53
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["fingerprint", "{lib}"], 0),
            (["fingerprint", "/nonexistent/x.smi"], 3),
            (["fingerprint", "{lib}", "--nbits", "100"], 4),
            (["cluster", "{lib}"], None),
        ],
    )
    def test_environment_memo_empty_after_main(self, library, capsys, argv, code):
        fingerprints._ENV_IDS[(0, "sentinel")] = 0
        argv = [a.format(lib=library) for a in argv]
        if code is None:  # a usage error exits through argparse
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert fingerprints._ENV_IDS == {}

    def test_similarity(self, library, capsys):
        assert main(["similarity", str(library), str(library)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[0] == "id,max_tanimoto,mean_tanimoto"
        assert "overlap" in out.err

    def test_similarity_string_metric(self, library, capsys):
        assert main(["similarity", str(library), str(library), "--metric", "string"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "id,max_string,mean_string"

    def test_cluster(self, library, capsys):
        assert main(["cluster", str(library), "--clusters", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,cluster,representative"
        assert sum(1 for ln in lines[1:] if ln.endswith(",true")) == 5

    def test_cluster_bad_k(self, library, capsys):
        assert main(["cluster", str(library), "--clusters", "99"]) == 4


class TestOversizedCsvCell:
    def test_row_error_and_the_next_row_is_read(self, tmp_path, capsys):
        path = tmp_path / "lib.csv"
        path.write_text(f"id,smiles,name\nx1,CCO,a\nx2,C,{'n' * 140_000}\nx3,CCN,c\n")
        assert main(["parse", str(path)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[1:] == ["x1,a,CCO,C2H6O", "x3,c,CCN,C2H7N"]
        assert out.err == ("warning: row 3: field larger than field limit (131072): "
                           "missing smiles\n"
                           "read=3 parsed=2 parse_errors=1 duplicates_removed=0\n")

    # The file is named once, by the command.
    @pytest.mark.parametrize("text, message", [
        (f"id,smiles,{'n' * 140_000}\nx1,CCO,a\n", "row 1: field larger than field limit (131072)"),
        ("", "empty csv"),
    ], ids=["oversized-header-cell", "empty"])
    def test_unreadable_header_is_one_input_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "lib.csv"
        path.write_text(text)
        assert main(["parse", str(path)]) == 3
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


class TestRepeatedRoleColumn:
    def test_one_input_error_before_any_row(self, tmp_path, capsys):
        # Read silently, the last smiles column (all CCO) would leave one record.
        path = tmp_path / "act.csv"
        path.write_text("id,smiles,pic50,smiles\n" + "".join(
            f"r{n},{'C' * (n + 1)}O,{5 + n / 10},CCO\n" for n in range(20)))
        model = tmp_path / "m.json"
        assert main(["train", str(path), "--target", "PDE4", "--out", str(model)]) == 3
        assert capsys.readouterr() == ("", f"error: {path}: row 1: column 'smiles' repeated\n")
        assert not model.exists()


class TestByteOrderMark:
    def test_bom_csv_keeps_its_ids(self, tmp_path, capsys):
        path = tmp_path / "lib.csv"
        path.write_bytes(b"\xef\xbb\xbfid,name,smiles,pic50\nx1,a,CCO,5\nx2,b,CCN,6\n")
        assert main(["parse", str(path)]) == 0
        out = capsys.readouterr()
        assert [line.split(",")[0] for line in out.out.splitlines()[1:]] == ["x1", "x2"]
        assert out.err == "read=2 parsed=2 parse_errors=0 duplicates_removed=0\n"

    def test_bom_smi_keeps_its_first_row(self, tmp_path, capsys):
        path = tmp_path / "lib.smi"
        path.write_bytes(b"\xef\xbb\xbfCCO ethanol\nCCN ethylamine\n")
        assert main(["parse", str(path)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[1:] == ["1,ethanol,CCO,C2H6O", "2,ethylamine,CCN,C2H7N"]
        assert out.err == "read=2 parsed=2 parse_errors=0 duplicates_removed=0\n"

    def test_bom_constants_file(self, library, tmp_path, capsys):
        bundled = resources.files("screenforge").joinpath("data/admet_thresholds.txt")
        constants = tmp_path / "th.txt"
        constants.write_bytes(b"\xef\xbb\xbf" + bundled.read_bytes())
        assert main(["descriptors", str(library)]) == 0
        expected = capsys.readouterr()
        assert main(["descriptors", str(library), "--admet-constants", str(constants)]) == 0
        assert capsys.readouterr() == expected

    def test_bom_model(self, library, tmp_path, capsys):
        model = tmp_path / "model.json"
        save_model(constant_model(6.0), str(model))
        bom_model = tmp_path / "bom_model.json"
        bom_model.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
        assert main(["predict", str(library), "--model", str(model)]) == 0
        expected = capsys.readouterr()
        assert main(["predict", str(library), "--model", str(bom_model)]) == 0
        assert capsys.readouterr() == expected

    def test_bom_hypothesis(self, train_csv, library, tmp_path, capsys):
        hypo = tmp_path / "h.json"
        assert main(["pharm", "train", str(train_csv), "--out", str(hypo)]) == 0
        bom_hypo = tmp_path / "bom_h.json"
        bom_hypo.write_bytes(b"\xef\xbb\xbf" + hypo.read_bytes())
        capsys.readouterr()
        assert main(["pharm", "screen", str(library), "--hypothesis", str(hypo)]) == 0
        expected = capsys.readouterr()
        assert main(["pharm", "screen", str(library), "--hypothesis", str(bom_hypo)]) == 0
        assert capsys.readouterr() == expected


class TestAdmetConstantsFile:
    def test_bioavailability_scores_come_from_the_table(self, tmp_path, capsys):
        bundled = resources.files("screenforge").joinpath("data/admet_thresholds.txt")
        lines = bundled.read_text("utf-8").splitlines()
        constants = tmp_path / "th.txt"
        constants.write_text("\n".join(
            "bioavail_pass 0.5" if ln.startswith("bioavail_pass") else ln for ln in lines
        ))
        lib = tmp_path / "lib.smi"
        lib.write_text("CCO x\n")
        assert main(["descriptors", str(lib), "--admet-constants", str(constants)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.splitlines()[1].rsplit(",", 1)[1] == "0.50"

    @pytest.mark.parametrize("smiles", ["c1ccccc1", "CCO"])
    def test_missing_key_rejected_before_output(self, tmp_path, capsys, smiles):
        bundled = resources.files("screenforge").joinpath("data/admet_thresholds.txt")
        lines = bundled.read_text("utf-8").splitlines()
        constants = tmp_path / "th.txt"
        constants.write_text("\n".join(ln for ln in lines if not ln.startswith("bbb_wlogp_max")))
        lib = tmp_path / "lib.smi"
        lib.write_text(f"{smiles} x\n")
        assert main(["descriptors", str(lib), "--admet-constants", str(constants)]) == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {constants}: missing thresholds bbb_wlogp_max\n"

    def test_second_run_rereads_an_edited_file(self, tmp_path, capsys):
        bundled = resources.files("screenforge").joinpath("data/admet_thresholds.txt")
        lines = bundled.read_text("utf-8").splitlines()
        constants = tmp_path / "th.txt"
        constants.write_text("\n".join(lines))
        lib = tmp_path / "lib.smi"
        lib.write_text("CCO x\n")
        argv = ["descriptors", str(lib), "--admet-constants", str(constants)]
        assert main(argv) == 0
        constants.write_text("\n".join(ln for ln in lines if not ln.startswith("bbb_wlogp_max")))
        capsys.readouterr()
        assert main(argv) == 4  # as in a new process, not the first run's table
        assert capsys.readouterr().err == f"error: {constants}: missing thresholds bbb_wlogp_max\n"

    def test_missing_file_writes_no_header(self, library, tmp_path, capsys):
        missing = tmp_path / "none.txt"
        assert main(["descriptors", str(library), "--admet-constants", str(missing)]) == 3
        assert capsys.readouterr().out == ""

    @staticmethod
    def _screen(library, tmp_path, pic50, constants):
        model_path = tmp_path / "const.json"
        save_model(constant_model(pic50), str(model_path))
        return main(
            ["screen", str(library), "--model", str(model_path), "--clusters", "5",
             "--picks", "3", "--admet-constants", str(constants),
             "--out", str(tmp_path / "report.csv")]
        )

    # 6.0 passes every compound through the gate; 5.0 leaves no active.
    @pytest.mark.parametrize("pic50", [6.0, 5.0], ids=["actives", "no-actives"])
    def test_screen_missing_file_writes_no_report(self, library, tmp_path, capsys, pic50):
        missing = tmp_path / "none.txt"
        assert self._screen(library, tmp_path, pic50, missing) == 3
        assert not (tmp_path / "report.csv").exists()
        out = capsys.readouterr()
        assert out.out == ""
        assert str(missing) in out.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "1_000", "\u0663"])
    def test_value_not_a_finite_ascii_decimal(self, library, tmp_path, capsys, value):
        bundled = resources.files("screenforge").joinpath("data/admet_thresholds.txt")
        lines = bundled.read_text("utf-8").splitlines()
        constants = tmp_path / "th.txt"
        constants.write_text("\n".join(
            f"bbb_wlogp_max {value}" if ln.startswith("bbb_wlogp_max") else ln for ln in lines
        ), encoding="utf-8")
        error = f"error: constant bbb_wlogp_max = {value!r} is not a finite decimal number\n"
        assert main(["descriptors", str(library), "--admet-constants", str(constants)]) == 4
        assert capsys.readouterr() == ("", error)
        assert self._screen(library, tmp_path, 6.0, constants) == 4
        assert capsys.readouterr() == ("", error)
        assert not (tmp_path / "report.csv").exists()

    # The row goes on line 2, before the bundled rows gi_tpsa_max,
    # gi_wlogp_max, bbb_tpsa_max, ... on lines 3, 4, 5, ...
    @pytest.mark.parametrize("row, lineno, message", [
        ("gi_tpsa_max", 2, "1 fields, not 'key value'"),
        ("gi_tpsa_max 142 7", 2, "3 fields, not 'key value'"),
        ("bbb_tpsa_max 80", 5, "key bbb_tpsa_max repeated"),
    ], ids=["one-field", "three-fields", "repeated-key"])
    def test_malformed_row_named_by_line(self, library, tmp_path, capsys, row, lineno, message):
        constants = tmp_path / "th.txt"
        constants.write_text("\n".join(["# edited", row, *(f"{key} 1" for key in BUNDLED_KEYS)]))
        assert main(["descriptors", str(library), "--admet-constants", str(constants)]) == 4
        assert capsys.readouterr() == ("", f"error: {constants}: line {lineno}: {message}\n")

    @pytest.mark.parametrize("with_constants", [True, False], ids=["constants", "bundled"])
    def test_screen_reads_the_threshold_table_once(
        self, library, tmp_path, capsys, monkeypatch, with_constants
    ):
        # The command checks the table before any work and hands it to the
        # funnel; a file table is read with the bundled one, for its keys.
        constants = tmp_path / "th.txt"
        constants.write_bytes(
            resources.files("screenforge").joinpath("data/admet_thresholds.txt").read_bytes()
        )
        model_path = tmp_path / "const.json"
        save_model(constant_model(6.0), str(model_path))
        descriptors.load_logp_table()  # cached, so only threshold tables are read below
        reads = []
        keyvalue = descriptors._keyvalue
        monkeypatch.setattr(descriptors, "_keyvalue",
                            lambda text, source: reads.append(source) or keyvalue(text, source))
        argv = ["screen", str(library), "--model", str(model_path), "--clusters", "5",
                "--picks", "3", "--out", str(tmp_path / "report.csv")]
        if with_constants:
            argv += ["--admet-constants", str(constants)]
        assert main(argv) == 0
        assert reads == [str(constants)] * with_constants + ["admet_thresholds.txt"]
        header = (tmp_path / "report.csv").read_text().splitlines()
        assert f"# admet_constants={constants if with_constants else 'bundled'}" in header

    def test_screen_missing_key_rejected_before_scoring(
        self, library, tmp_path, capsys, monkeypatch
    ):
        bundled = resources.files("screenforge").joinpath("data/admet_thresholds.txt")
        lines = bundled.read_text("utf-8").splitlines()
        constants = tmp_path / "th.txt"
        constants.write_text("\n".join(ln for ln in lines if not ln.startswith("bbb_wlogp_max")))
        scored = []
        monkeypatch.setattr(cli, "run_screen", lambda *a, **k: scored.append(a))
        assert self._screen(library, tmp_path, 6.0, constants) == 4
        assert scored == []
        assert not (tmp_path / "report.csv").exists()
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {constants}: missing thresholds bbb_wlogp_max\n"


class TestTrainPredict:
    def test_train_then_predict(self, train_csv, library, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train", str(train_csv), "--target", "XO", "--epochs", "30",
                "--hidden", "16,8", "--seed", "3", "--out", str(model_path),
            ]
        )
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["format_version"] == 1
        assert doc["target"] == "XO"
        assert doc["train_meta"]["epochs"] == 30
        capsys.readouterr()
        assert main(["predict", str(library), "--model", str(model_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,name,pic50_XO,active"
        assert len(lines) == 31

    def test_train_deterministic_for_seed(self, train_csv, tmp_path, capsys):
        blobs = []
        for i in range(2):
            path = tmp_path / f"m{i}.json"
            main(["train", str(train_csv), "--target", "XO", "--epochs", "10",
                  "--hidden", "8", "--seed", "17", "--out", str(path)])
            blobs.append(path.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_train_rejects_fewer_than_one_epoch(self, train_csv, tmp_path, capsys, epochs):
        out = tmp_path / "m.json"
        code = main(["train", str(train_csv), "--target", "XO", "--epochs", epochs,
                     "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err == f"error: --epochs {epochs} must be at least 1\n"
        assert not out.exists()


    @pytest.mark.parametrize("lr, message", [
        ("nan", "error: learning_rate nan must be finite and positive\n"),
        ("inf", "error: learning_rate inf must be finite and positive\n"),
        ("1e300", "error: training diverged at epoch 1\n"),
    ])
    def test_train_refuses_non_finite_learning_rate_or_weights(
        self, train_csv, tmp_path, capsys, lr, message
    ):
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = main(["train", str(train_csv), "--target", "XO", "--epochs", "10",
                         "--hidden", "8", "--seed", "1", "--lr", lr, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == message
        assert not out.exists()

    @staticmethod
    def _train_child(tmp_path, *options):
        """``train`` on the bundled XO table in a child process, as a user
        runs it: numpy warnings would reach its stderr."""
        data = resources.files("screenforge") / "data/xoi_ic50.csv"
        with resources.as_file(data) as csv_path:
            return subprocess.run(
                [sys.executable, "-m", "screenforge.cli", "train", str(csv_path),
                 "--target", "XO", "--epochs", "10", *options, "--out", "xo.json"],
                cwd=tmp_path, capture_output=True, text=True, check=False,
                env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            )

    def test_diverging_train_prints_one_error_line(self, tmp_path):
        proc = self._train_child(tmp_path, "--lr", "1e300")
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == "error: training diverged at epoch 1\n"
        assert not (tmp_path / "xo.json").exists()

    def test_diverging_shared_adam_steps_print_one_error_line(self, tmp_path):
        # The 139 x 1024 first layer holds four full Adam chunks, so the
        # worker thread takes a share of each step. At this learning rate the
        # first layer's gradients in the second step are finite, up to about
        # 1e305, and squaring them overflows; at 1e300 they are already NaN,
        # which raises no floating-point flag.
        proc = self._train_child(tmp_path, "--hidden", "1024,8", "--lr", "1e60", "--batch", "4")
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == "error: training diverged at epoch 1\n"
        assert not (tmp_path / "xo.json").exists()


class TestPharm:
    def test_train_and_screen(self, train_csv, library, tmp_path, capsys):
        hypo = tmp_path / "h.json"
        assert main(["pharm", "train", str(train_csv), "--out", str(hypo)]) == 0
        assert "delta=" in capsys.readouterr().out
        assert main(["pharm", "screen", str(library), "--hypothesis", str(hypo)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,name,fit,predicted_pic50"
        fits = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert fits == sorted(fits, reverse=True)

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_train_rejects_cap_below_one(self, train_csv, tmp_path, capsys, cap):
        hypo = tmp_path / "h.json"
        code = main(["pharm", "train", str(train_csv), "--max-candidates", cap,
                     "--out", str(hypo)])
        assert code == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: max_candidates {cap} must be at least 1\n"
        assert not hypo.exists()

    def test_screen_with_class_column(self, train_csv, tmp_path, capsys):
        hypo = tmp_path / "h.json"
        main(["pharm", "train", str(train_csv), "--out", str(hypo)])
        capsys.readouterr()
        lib = tmp_path / "classes.csv"
        lib.write_text(
            "id,smiles,class\n"
            "t1,Oc1ccccc1,Flavonoids\n"
            "t2,CCO,Terpenes\n"
            "t3,CCC,Other\n"
        )
        assert main(["pharm", "screen", str(lib), "--hypothesis", str(hypo)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[0] == "id,name,fit,predicted_pic50,class"
        assert "classify,type,representative,quantity,degree_of_fit" in out.err


class TestScreen:
    def test_byte_identical_reports(self, library, tmp_path, capsys):
        model_path = tmp_path / "const.json"
        save_model(constant_model(6.0), str(model_path))
        blobs = []
        for i in range(2):
            out = tmp_path / f"report{i}.csv"
            code = main(
                [
                    "screen", str(library), "--model", str(model_path),
                    "--clusters", "5", "--picks", "3", "--seed", "21",
                    "--out", str(out),
                ]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_empty_active_set_exit_code(self, library, tmp_path, capsys):
        model_path = tmp_path / "low.json"
        save_model(constant_model(5.0), str(model_path))
        out = tmp_path / "report.csv"
        code = main(
            ["screen", str(library), "--model", str(model_path),
             "--clusters", "5", "--picks", "3", "--out", str(out)]
        )
        assert code == 2
        assert out.exists()

    def test_config_errors(self, library, tmp_path, capsys):
        model_path = tmp_path / "const.json"
        save_model(constant_model(6.0), str(model_path))
        code = main(
            ["screen", str(library), "--model", str(model_path),
             "--clusters", "2", "--picks", "5", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 4
        code = main(
            ["screen", str(library), "--clusters", "2", "--picks", "1",
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 4

    @pytest.mark.parametrize("clusters, picks, message", [
        ("5", "-1", "error: need clusters >= 1 and picks >= 0, got 5 and -1\n"),
        ("0", "0", "error: need clusters >= 1 and picks >= 0, got 0 and 0\n"),
    ], ids=["negative-picks", "zero-clusters"])
    def test_cluster_and_pick_counts_rejected(self, library, tmp_path, capsys,
                                              clusters, picks, message):
        model_path = tmp_path / "const.json"
        save_model(constant_model(6.0), str(model_path))
        out = tmp_path / "r.csv"
        code = main(["screen", str(library), "--model", str(model_path), "--clusters", clusters,
                     "--picks", picks, "--threshold", "0", "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_markdown_output(self, library, tmp_path, capsys):
        model_path = tmp_path / "const.json"
        save_model(constant_model(6.0), str(model_path))
        out = tmp_path / "report.md"
        assert main(
            ["screen", str(library), "--model", str(model_path),
             "--clusters", "3", "--picks", "2", "--out", str(out)]
        ) == 0
        assert out.read_text().startswith("> toolchain=")

    def test_seed_env_override(self, library, tmp_path, capsys, monkeypatch):
        model_path = tmp_path / "const.json"
        save_model(constant_model(6.0), str(model_path))
        monkeypatch.setenv("SCREENFORGE_SEED", "555")
        out = tmp_path / "report.csv"
        main(["screen", str(library), "--model", str(model_path),
              "--clusters", "3", "--picks", "2", "--out", str(out)])
        assert "# seed=555" in out.read_text()


# Small inputs for the error table below, by file name.
ERROR_INPUTS = {
    "empty.smi": "# no compounds\n",
    "one.smi": "CCO ethanol\n",
    "no_activity.csv": "id,smiles\n1,CCO\n2,CCCO\n",
    "three_rows.csv": "id,smiles,pic50\n1,CCO,5\n2,CCCO,6\n3,CCCCO,7\n",
    "methane_top.csv": "id,smiles,pic50\n1,C,9\n2,CCCO,6\n3,CCCCO,7\n4,OCCO,5\n",
    "array.json": "[]",
    "negative_tolerance.json": json.dumps({
        "format_version": 1,
        "features": [{"kind": k, "weight": 1.0} for k in ("HBD", "HBA", "HBD")],
        "pair_constraints": [{"i": 0, "j": 1, "distance": 1, "tolerance": -1}]}),
    "no_fit.json": json.dumps({
        "format_version": 1,
        "features": [{"kind": k, "weight": 1.0} for k in ("HBD", "HBA", "HBD")],
        "pair_constraints": [{"i": 0, "j": 1, "distance": 1, "tolerance": 1}],
        "fit_regression": None}),
    "empty_bond_branch.smi": "C(=)C x\n",
    "bond_after_dot.smi": "C.=C x\n",
    "aromatic_iodine.smi": "c1cc[i]cc1 x\n",
}


class TestCommandErrors:
    """Each error a command can reach: its exit code and one stderr line."""

    @pytest.mark.parametrize("argv, code, line", [
        (["similarity", "empty.smi", "one.smi"], 3,
         "error: both inputs must contain at least one parseable compound"),
        (["cluster", "one.smi", "--clusters", "1"], 3,
         "error: need at least two parseable compounds to cluster"),
        (["train", "no_activity.csv", "--target", "XO", "--out", "m.json"], 3,
         "error: training csv has no rows with ic50_nm or pic50"),
        (["pharm", "train", "three_rows.csv", "--out", "h.json"], 3,
         "error: need at least 4 rows with activity data"),
        (["predict", "one.smi", "--model", "array.json"], 4,
         "error: model file is not a JSON object"),
        (["pharm", "screen", "one.smi", "--hypothesis", "negative_tolerance.json"], 4,
         "error: tolerances must be non-negative"),
        (["pharm", "train", "methane_top.csv", "--out", "h.json"], 4,
         "error: most active molecule exposes only 0 features"),
        (["screen", "one.smi", "--hypothesis", "no_fit.json", "--clusters", "1", "--picks", "1",
          "--out", "r.csv"], 4, "error: hypothesis lacks a fit regression"),
        (["predict", "one.smi", "--model", "narrow.json"], 4,
         "error: normalization width != model input width"),
        (["fingerprint", "empty_bond_branch.smi"], 0,
         "warning: line 1: dangling bond symbol before ')'"),
        (["fingerprint", "bond_after_dot.smi"], 0,
         "warning: line 1: bond symbol before any atom at column 2"),
        (["fingerprint", "aromatic_iodine.smi"], 0,
         "warning: line 1: unsupported aromatic element 'i'"),
    ], ids=["similarity-none-parsed", "cluster-one-compound", "train-no-activity",
            "pharm-train-three-rows", "model-json-array", "negative-tolerance",
            "seed-under-three-features", "screen-hypothesis-without-fit", "norm-width",
            "empty-bond-branch", "bond-after-dot", "aromatic-iodine"])
    def test_exit_code_and_one_line(self, tmp_path, monkeypatch, capsys, argv, code, line):
        monkeypatch.chdir(tmp_path)
        for name, text in ERROR_INPUTS.items():
            (tmp_path / name).write_text(text)
        save_model(constant_model(6.0), "narrow.json")
        doc = json.loads((tmp_path / "narrow.json").read_text())
        doc["layer_sizes"], doc["weights"] = [2, 1], [[[0.0, 0.0]]]  # one kept feature
        (tmp_path / "narrow.json").write_text(json.dumps(doc))
        assert main(argv) == code
        assert capsys.readouterr().err == line + "\n"


def through_main(*argv, written=None):
    """A consumer that runs ``argv``, which must exit 0, with the library
    ``ingest`` returns replaced by ``records``: stdout, stderr and the bytes
    of the file ``written``."""
    def run(records, monkeypatch, capsys):
        monkeypatch.setattr(cli, "ingest", lambda path: (records, IngestStats()))
        assert main(list(argv)) == 0
        out, err = capsys.readouterr()
        return out, err, written and Path(written).read_bytes()
    return run


# Every consumer of pdenet.molecules, each given a list of records.
CONSUMERS = {
    "parse": through_main("parse", "lib.csv"),
    "descriptors": through_main("descriptors", "lib.csv"),
    "fingerprint": through_main("fingerprint", "lib.csv"),
    "cluster": through_main("cluster", "lib.csv", "--clusters", "3"),
    "pharm-train": through_main("pharm", "train", "lib.csv", "--out", "h.json",
                                written="h.json"),
    "pharm-screen": through_main("pharm", "screen", "lib.csv", "--hypothesis", "three.json"),
    "run_screen": lambda records, *_: run_screen(
        records, {"PDE4": heavy_atom_model()}, clusters=3, picks=2, threshold=3.5, seed=1),
    "compare_routes": lambda records, *_: compare_routes(records, records[-5:]),
    "featurize_records": lambda records, *_: tuple(
        a.tolist() for a in featurize_records(records, FeatureSpec())),
    "predict_and_gate": lambda records, *_: predict_and_gate(
        heavy_atom_model(), records, threshold=3.5),
}


class TestUnparseableRecord:
    """A record whose canonical SMILES no longer parses is skipped with one
    warning by every command and library function that reads molecules."""

    @pytest.mark.parametrize("consumer", CONSUMERS.values(), ids=CONSUMERS.keys())
    def test_skipped_with_one_warning(self, tmp_path, monkeypatch, capsys, caplog, consumer):
        monkeypatch.chdir(tmp_path)
        Path("three.json").write_text(json.dumps(three_feature_hypothesis()))
        good = [
            DatasetRecord(id=row[0], name=row[1], smiles=row[2], ic50_nm=float(row[3]),
                          canonical_smiles=canonical_smiles(parse_smiles(row[2])))
            for row in (line.split(",") for line in TRAIN_CSV.splitlines()[1:])
        ]
        bad = DatasetRecord(id="bad", smiles="C1CC", canonical_smiles="C1CC", pic50=6.0)
        expected = consumer(good, monkeypatch, capsys)
        with caplog.at_level("WARNING"):
            got = consumer(good[:1] + [bad] + good[1:], monkeypatch, capsys)
        assert got == expected
        assert [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()] == [
            "skipping bad: unmatched ring closure digit(s): [1]"]


class TestUsageErrors:
    def test_bad_flag_exits_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "x.smi"])  # missing required --clusters
        assert exc.value.code == 4

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "screenforge" in capsys.readouterr().out


# (file, path of a numeric field, what its error line names)
NUMERIC_FIELDS = [
    ("model", ("format_version",), "format_version"),
    ("model", ("layer_sizes", 0), "layer_sizes[0]"),
    ("model", ("layer_sizes", 1), "layer_sizes[1]"),
    ("model", ("weights", 0, 0, 0), "weights[0]"),
    ("model", ("biases", 0, 0), "biases[0]"),
    ("model", ("feature_config", "radius"), "radius"),
    ("model", ("feature_config", "nbits"), "nbits"),
    ("model", ("feature_config", "hash_seed"), "feature_config.hash_seed"),
    ("model", ("norm_stats", "mean", 0), "norm_stats.mean"),
    ("model", ("norm_stats", "std", 0), "norm_stats.std"),
    ("model", ("norm_stats", "kept", 0), "norm_stats.kept"),
    ("hypothesis", ("format_version",), "format_version"),
    ("hypothesis", ("features", 2, "weight"), "features[2].weight"),
    ("hypothesis", ("pair_constraints", 1, "i"), "pair_constraints[1].i"),
    ("hypothesis", ("pair_constraints", 1, "j"), "pair_constraints[1].j"),
    ("hypothesis", ("pair_constraints", 1, "distance"), "pair_constraints[1].distance"),
    ("hypothesis", ("pair_constraints", 1, "tolerance"), "pair_constraints[1].tolerance"),
    ("hypothesis", ("fit_regression", "slope"), "fit_regression.slope"),
    ("hypothesis", ("fit_regression", "intercept"), "fit_regression.intercept"),
    ("hypothesis", ("costs", "null_cost"), "costs.null_cost"),
    ("hypothesis", ("costs", "total_cost"), "costs.total_cost"),
    ("hypothesis", ("enumeration_index",), "enumeration_index"),
    *(("constants", (key,), f"constant {key}") for key in BUNDLED_KEYS),
]


def set_path(doc, path, value) -> None:
    """Set the field of ``doc`` at the keys and indices ``path``."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def three_feature_hypothesis() -> dict:
    return {
        "format_version": 1,
        "features": [
            {"kind": "HBD", "weight": 1.0},
            {"kind": "HBA", "weight": 1.0},
            {"kind": "AromaticRing", "weight": 1.0},
        ],
        "pair_constraints": [
            {"i": 0, "j": 1, "distance": 3.0, "tolerance": 1.0},
            {"i": 1, "j": 2, "distance": 4.0, "tolerance": 1.0},
        ],
    }


class TestMalformedInputFiles:
    """A malformed hypothesis or model file is a config error (exit 4),
    never a traceback."""

    def pharm_screen(self, library, tmp_path, doc) -> int:
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        return main(["pharm", "screen", str(library), "--hypothesis", str(path)])

    def predict(self, library, tmp_path, doc) -> int:
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        return main(["predict", str(library), "--model", str(path)])

    def screen(self, library, tmp_path, doc) -> int:
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        return main(["screen", str(library), "--model", str(path), "--clusters", "2",
                     "--picks", "1", "--out", str(tmp_path / "r.csv")])

    def screen_hypothesis(self, library, tmp_path, doc) -> int:
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        return main(["screen", str(library), "--hypothesis", str(path), "--clusters", "2",
                     "--picks", "1", "--out", str(tmp_path / "r.csv")])

    def model_doc(self, tmp_path) -> dict:
        path = tmp_path / "const.json"
        save_model(constant_model(6.0), str(path))
        return json.loads(path.read_text())

    def test_well_formed_files_pass(self, library, tmp_path, capsys):
        assert self.pharm_screen(library, tmp_path, three_feature_hypothesis()) == 0
        assert self.predict(library, tmp_path, self.model_doc(tmp_path)) == 0

    @pytest.mark.parametrize("i, j, message", [
        (0, 7, "pair constraint (0, 7) outside the 3 features"),
        (0, 1, "bad field pair_constraints[2]: pair (0, 1) repeated"),
        (1, 0, "bad field pair_constraints[2]: pair (1, 0) is not i < j"),
        (1, 1, "bad field pair_constraints[2]: pair (1, 1) is not i < j"),
    ], ids=["outside", "repeated", "reversed", "same-feature"])
    def test_pair_constraint_outside_or_out_of_order(self, library, tmp_path, capsys, i, j,
                                                     message):
        doc = three_feature_hypothesis()
        doc["pair_constraints"].append({"i": i, "j": j, "distance": 9.0, "tolerance": 1.0})
        for run in (self.pharm_screen, self.screen_hypothesis):
            self.rejected_without_output(run, library, tmp_path, capsys, doc, message)

    def test_feature_without_kind(self, library, tmp_path, capsys):
        doc = three_feature_hypothesis()
        del doc["features"][1]["kind"]
        assert self.pharm_screen(library, tmp_path, doc) == 4
        assert "'kind'" in capsys.readouterr().err

    def test_model_without_activation(self, library, tmp_path, capsys):
        doc = self.model_doc(tmp_path)
        del doc["activation"]
        assert self.predict(library, tmp_path, doc) == 4
        assert "'activation'" in capsys.readouterr().err

    def test_kept_index_outside_feature_width(self, library, tmp_path, capsys):
        doc = self.model_doc(tmp_path)
        doc["norm_stats"]["kept"] = [99999]
        assert self.predict(library, tmp_path, doc) == 4
        assert "kept index outside" in capsys.readouterr().err

    def rejected_without_output(self, run, library, tmp_path, capsys, doc, message):
        """``run`` exits 4 with the one error line, writing no stdout and no report."""
        assert run(library, tmp_path, doc) == 4
        out, err = capsys.readouterr()
        assert (out, err.count("\n"), err.startswith("error: ")) == ("", 1, True)
        assert message in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("kept, message", [
        ([1e308], "kept"), ([2.5], "kept"), ([True], "kept"), (["0"], "kept"),
        ([10**40], "too large"), (3, "bad field"),
    ], ids=["1e308", "2.5", "true", "string", "10**40", "not-a-list"])
    def test_kept_entries_not_integers(self, library, tmp_path, capsys, kept, message):
        doc = self.model_doc(tmp_path)
        doc["norm_stats"]["kept"] = kept
        for run in (self.predict, self.screen):
            self.rejected_without_output(run, library, tmp_path, capsys, doc, message)

    def two_input_model_doc(self, tmp_path, kept) -> dict:
        doc = self.model_doc(tmp_path)
        doc["layer_sizes"], doc["weights"] = [2, 1], [[[0.0, 0.0]]]
        doc["norm_stats"].update(mean=[0.0, 0.0], std=[1.0, 1.0], kept=kept)
        return doc

    @pytest.mark.parametrize("kept", [[5, 3], [3, 3]], ids=["decreasing", "repeated"])
    def test_kept_not_strictly_increasing(self, library, tmp_path, capsys, kept):
        assert self.predict(library, tmp_path, self.two_input_model_doc(tmp_path, [3, 5])) == 0
        capsys.readouterr()
        doc = self.two_input_model_doc(tmp_path, kept)
        for run in (self.predict, self.screen):
            self.rejected_without_output(run, library, tmp_path, capsys, doc,
                                         "kept must be strictly increasing integers")

    @pytest.mark.parametrize("kind", [["HBD"], {"HBD": 1}, "Nope", "hbd"],
                             ids=["list", "object", "unknown", "lowercase"])
    def test_feature_kind_outside_feature_kinds(self, library, tmp_path, capsys, kind):
        doc = three_feature_hypothesis()
        doc["features"][1]["kind"] = kind
        doc["fit_regression"] = {"slope": 0.5, "intercept": 4.0}
        for run in (self.pharm_screen, self.screen_hypothesis):
            self.rejected_without_output(run, library, tmp_path, capsys, doc,
                                         f"feature kind {kind!r} is not one of HBD, HBA")

    @pytest.mark.parametrize("weights, message", [
        ([float("inf"), 1.0, 1.0], "feature weights must be positive and finite"),
        ([1e308, 1e308, 1.0], "feature weights must have a finite sum"),
    ], ids=["infinity", "overflowing-sum"])
    def test_non_finite_or_overflowing_weights(self, library, tmp_path, capsys, weights,
                                               message):
        doc = three_feature_hypothesis()
        for feature, weight in zip(doc["features"], weights):
            feature["weight"] = weight
        doc["fit_regression"] = {"slope": 0.5, "intercept": 4.0}
        for run in (self.pharm_screen, self.screen_hypothesis):
            self.rejected_without_output(run, library, tmp_path, capsys, doc, message)

    @pytest.mark.parametrize("distance", [None, "3.0"])
    def test_pair_distance_not_a_number(self, library, tmp_path, capsys, distance):
        doc = three_feature_hypothesis()
        doc["pair_constraints"][1]["distance"] = distance
        assert self.pharm_screen(library, tmp_path, doc) == 4
        assert "distance" in capsys.readouterr().err

    def test_fit_slope_not_a_number(self, library, tmp_path, capsys):
        doc = three_feature_hypothesis()
        doc["fit_regression"] = {"slope": "0.5", "intercept": 4.0}
        assert self.pharm_screen(library, tmp_path, doc) == 4
        assert "fit_regression" in capsys.readouterr().err

    @pytest.mark.parametrize("descriptors", [["mw", "logp"], ["mw", 7], "mw"])
    def test_descriptor_outside_descriptor_set(self, library, tmp_path, capsys, descriptors):
        doc = self.model_doc(tmp_path)
        doc["feature_config"]["descriptors"] = descriptors
        assert self.predict(library, tmp_path, doc) == 4
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("radius", 1.5), ("hash_seed", "0")])
    def test_fingerprint_setting_not_an_integer(self, library, tmp_path, capsys, field, value):
        doc = self.model_doc(tmp_path)
        doc["feature_config"][field] = value
        assert self.predict(library, tmp_path, doc) == 4
        assert "must be integers" in capsys.readouterr().err

    def test_target_not_a_string(self, library, tmp_path, capsys):
        doc = self.model_doc(tmp_path)
        doc["target"] = 4
        assert self.screen(library, tmp_path, doc) == 4
        assert "target" in capsys.readouterr().err

    @pytest.mark.parametrize("field, index, value", [
        ("features", "weight", float("nan")),
        ("pair_constraints", "tolerance", float("nan")),
        ("pair_constraints", "distance", float("nan")),
    ])
    def test_nan_in_hypothesis(self, library, tmp_path, capsys, field, index, value):
        doc = three_feature_hypothesis()
        doc[field][0][index] = value
        assert self.pharm_screen(library, tmp_path, doc) == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("slope", [float("nan"), float("inf"), True])
    def test_non_finite_fit_slope(self, library, tmp_path, capsys, slope):
        doc = three_feature_hypothesis()
        doc["fit_regression"] = {"slope": slope, "intercept": 4.0}
        assert self.pharm_screen(library, tmp_path, doc) == 4
        assert "fit_regression" in capsys.readouterr().err

    @pytest.mark.parametrize("slope, intercept", [(1e308, 1e308), (-1e308, -1e308)])
    def test_fit_regression_overflowing_over_the_fit_range(self, library, tmp_path, capsys,
                                                           slope, intercept):
        # Both numbers are finite, but a fit of 1 already predicts +-inf.
        doc = three_feature_hypothesis()
        doc["fit_regression"] = {"slope": slope, "intercept": intercept}
        for run in (self.pharm_screen, self.screen_hypothesis):
            self.rejected_without_output(run, library, tmp_path, capsys, doc,
                                         "fit_regression (%r, %r) overflows" % (slope, intercept))

    @pytest.mark.parametrize("path", [
        ("fit_regression", "slope"), ("fit_regression", "intercept"),
        ("features", 0, "weight"), ("pair_constraints", 0, "distance"),
        ("pair_constraints", 0, "tolerance"), ("costs", "null_cost"),
    ], ids=["slope", "intercept", "weight", "distance", "tolerance", "null_cost"])
    def test_integer_beyond_float_range(self, library, tmp_path, capsys, path):
        # A 401-digit JSON integer parses to an int that math.isfinite and
        # math.isnan cannot convert.
        doc = three_feature_hypothesis()
        doc["fit_regression"] = {"slope": 0.5, "intercept": 4.0}
        doc["costs"] = {"null_cost": 3.0, "total_cost": 1.0}
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 10**400
        for run in (self.pharm_screen, self.screen_hypothesis):
            self.rejected_without_output(run, library, tmp_path, capsys, doc,
                                         "int too large to convert to float")

    @pytest.mark.parametrize("path, value", [
        (("norm_stats", "std"), [0.0]),
        (("norm_stats", "std"), [float("nan")]),
        (("norm_stats", "mean"), [float("inf")]),
        (("biases",), [[float("nan")]]),
    ])
    def test_non_finite_or_zero_model_numbers(self, library, tmp_path, capsys, path, value):
        doc = self.model_doc(tmp_path)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        assert self.predict(library, tmp_path, doc) == 4
        assert "error:" in capsys.readouterr().err

    # A bool is not an integer or a number, a float is not a layer size and
    # a string is not a cost; each file is accepted until the one edit.
    @pytest.mark.parametrize("kind, path, value, message", [
        ("hypothesis", ("pair_constraints", 0, "i"), True,
         "bad field pair_constraints[0].i: True is not an integer"),
        ("hypothesis", ("costs", "null_cost"), "x",
         "bad field costs.null_cost: 'x' is not a number"),
        ("model", ("layer_sizes", 0), 1.0, "bad field layer_sizes[0]: 1.0 is not an integer"),
    ], ids=["pair-index-true", "null-cost-string", "layer-size-float"])
    def test_value_of_another_type(self, library, tmp_path, capsys, kind, path, value, message):
        if kind == "model":
            doc, runs = self.model_doc(tmp_path), (self.predict, self.screen)
        else:
            doc, runs = three_feature_hypothesis(), (self.pharm_screen, self.screen_hypothesis)
            doc["fit_regression"] = {"slope": 0.5, "intercept": 4.0}
            doc["costs"] = {"null_cost": 3.0, "total_cost": 1.0}
        for run in runs:  # accepted: 2 is a screen with no actives
            assert run(library, tmp_path, doc) in (0, 2)
        capsys.readouterr()
        (tmp_path / "r.csv").unlink()
        set_path(doc, path, value)
        for run in runs:
            self.rejected_without_output(run, library, tmp_path, capsys, doc, message)

    @pytest.mark.parametrize("file, path, field", NUMERIC_FIELDS,
                             ids=[f"{file}:{'.'.join(map(str, path))}"
                                  for file, path, _ in NUMERIC_FIELDS])
    def test_401_digit_integer_in_every_numeric_field(self, library, tmp_path, capsys,
                                                      file, path, field):
        """The field is named on one short error line: the value is cut
        short, not echoed in full."""
        model = self.model_doc(tmp_path)
        hypothesis = three_feature_hypothesis()
        hypothesis.update(fit_regression={"slope": 0.5, "intercept": 4.0}, enumeration_index=0,
                          costs={"null_cost": 3.0, "total_cost": 1.0}, seed_smiles="CCO")
        constants = {key: "1" for key in BUNDLED_KEYS}
        doc = {"model": model, "hypothesis": hypothesis, "constants": constants}[file]
        set_path(doc, path, 10**400)
        (tmp_path / "m.json").write_text(json.dumps(model))
        (tmp_path / "h.json").write_text(json.dumps(hypothesis))
        (tmp_path / "th.txt").write_text("".join(f"{k} {v}\n" for k, v in constants.items()))
        inputs = (["--hypothesis", str(tmp_path / "h.json")] if file == "hypothesis"
                  else ["--model", str(tmp_path / "m.json")])
        argv = ["screen", str(library), *inputs, "--clusters", "2", "--picks", "1",
                "--admet-constants", str(tmp_path / "th.txt"), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert (out, err.count("\n"), err.startswith("error: ")) == ("", 1, True)
        assert field in err and len(err) < 200, err
        assert not (tmp_path / "r.csv").exists()

    # float() and numpy read "0.5" as 0.5 and true as 1.0; a model file may not.
    @pytest.mark.parametrize("path, value, field", [
        (("weights", 0, 0, 0), "0.5", "weights[0]"),
        (("biases", 0, 0), "1e3", "biases[0]"),
        (("norm_stats", "mean", 0), "0", "norm_stats.mean"),
        (("norm_stats", "std", 0), True, "norm_stats.std"),
    ], ids=["string-weight", "string-bias", "string-mean", "true-std"])
    def test_string_or_bool_in_a_float_array(self, library, tmp_path, capsys, path, value,
                                             field):
        doc = self.model_doc(tmp_path)
        set_path(doc, path, value)
        for run in (self.predict, self.screen):
            self.rejected_without_output(run, library, tmp_path, capsys, doc,
                                         f"bad field {field}: not a ")

    @pytest.mark.parametrize("run", ["predict", "pharm_screen"])
    def test_deeply_nested_json(self, library, tmp_path, capsys, run):
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000)
        flag = "--model" if run == "predict" else "--hypothesis"
        argv = ["predict"] if run == "predict" else ["pharm", "screen"]
        assert main([*argv, str(library), flag, str(path)]) == 4
        kind = "model" if run == "predict" else "hypothesis"
        assert capsys.readouterr() == (
            "", f"error: {kind} file nests deeper than the JSON reader allows\n")

    # A featurized model with a layer's fan-in, or its layer count, edited.
    @pytest.mark.parametrize("path, value, message", [
        (("weights", 0), [[0.0, 0.0]], "bad shape for layer 0: (1, 2)/(1,)"),
        (("biases", 0), [0.0, 0.0], "bad shape for layer 0: (1, 1)/(2,)"),
        (("weights",), [], "layer count mismatch in model file"),
        (("layer_sizes",), [1, 1, 1], "layer count mismatch in model file"),
    ], ids=["weight-fan-in", "bias-width", "no-weights", "extra-layer"])
    def test_layer_shapes_and_count(self, library, tmp_path, capsys, path, value, message):
        doc = self.model_doc(tmp_path)
        set_path(doc, path, value)
        for run in (self.predict, self.screen):
            self.rejected_without_output(run, library, tmp_path, capsys, doc, message)

    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_norm_stats_length_differs_from_kept(self, library, tmp_path, capsys, field):
        doc = self.model_doc(tmp_path)
        doc["norm_stats"][field] = [0.0, 1.0]
        assert self.predict(library, tmp_path, doc) == 4
        assert "differ in length" in capsys.readouterr().err
        assert self.screen(library, tmp_path, doc) == 4

    @pytest.mark.parametrize("field", ["feature_config", "norm_stats"])
    def test_model_without_featurization(self, library, tmp_path, capsys, field):
        doc = self.model_doc(tmp_path)
        doc[field] = None
        assert self.screen(library, tmp_path, doc) == 4
        screen_err = capsys.readouterr().err
        assert "lacks featurization config" in screen_err
        assert self.predict(library, tmp_path, doc) == 4
        captured = capsys.readouterr()
        assert captured.err == screen_err
        assert captured.out == ""

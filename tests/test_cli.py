import dataclasses
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cvopo import ModeBasis, OpoParams, below_threshold_covariance, to_basis
from cvopo.cli import build_parser, main
from cvopo.condprep import CondPrepConfig
from cvopo.fixtures import CONDPREP_REFERENCE
from cvopo.formats import (
    condprep_config_to_document,
    dumps_canonical,
    loads_document,
    save_matrix,
)

pytestmark = pytest.mark.usefixtures("fixture_dir")


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--write", str(path)]) == 0
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCriteria:
    def test_reference_fixture_json(self, fixture_dir, capsys):
        code, out, err = run_cli(
            capsys, "criteria", str(fixture_dir / "fig_matrix_a1a2.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["criteria"]["log_negativity"] == pytest.approx(4.06, abs=0.01)
        assert doc["flags"]["inseparable"]
        assert len(doc["input_sha256"]) == 64

    def test_vacuum_boundary_values(self, fixture_dir, capsys):
        code, out, _ = run_cli(capsys, "criteria", str(fixture_dir / "vacuum.json"))
        assert code == 0
        doc = json.loads(out)
        assert not any(doc["flags"].values())
        assert doc["criteria"]["log_negativity"] == 0.0
        for key in ("gemellity_x", "separability", "epr_product", "xi"):
            assert doc["criteria"][key] == pytest.approx(1.0, abs=1e-12)

    def test_csv_format(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            capsys, "criteria", str(fixture_dir / "fig_matrix_apm.json"), "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("basis,standard_form")

    def test_truncated_file_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "cvopo.matrix.v1", "entries": [[1,')
        code, out, err = run_cli(capsys, "criteria", str(bad))
        assert code == 2
        assert "line" in err and "column" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "criteria", "/no/such/file.json")
        assert code == 2

    def test_unphysical_matrix_exits_3(self, tmp_path, capsys):
        doc = {
            "schema_version": "cvopo.matrix.v1",
            "basis": "signal_idler",
            "ordering": "X_A,P_A,X_B,P_B",
            "entries": [
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
            "metadata": {},
        }
        path = tmp_path / "unphysical.json"
        path.write_text(dumps_canonical(doc))
        code, _, err = run_cli(capsys, "criteria", str(path))
        assert code == 3
        assert "symplectic eigenvalue" in err

        code, out, _ = run_cli(capsys, "criteria", str(path), "--allow-unphysical")
        assert code == 0
        assert json.loads(out)["criteria"]["gemellity_x"] == pytest.approx(0.75)

    @pytest.mark.parametrize("command", ["criteria", "optimize"])
    def test_near_threshold_signal_idler_file(self, tmp_path, capsys, command):
        # the signal/idler entries of the pure sigma = 0.999 state are ~1e6
        # and hold V_sq = 2.5e-7 only to a few digits, but the stored matrix
        # passes the physicality gate (nu_min = 0.99962 by mpmath, tolerance 1e-3)
        state = below_threshold_covariance(OpoParams(sigma=0.999))
        path = tmp_path / "si.json"
        save_matrix(path, to_basis(state, ModeBasis.SIGNAL_IDLER))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        e_n = doc["criteria"]["log_negativity"] if command == "criteria" else doc["e_n_after"]
        assert e_n == pytest.approx(-math.log2(state.entries[1, 1]), rel=1e-3)

    def test_basis_independent_scalars(self, fixture_dir, capsys):
        docs = []
        for name in ("fig_matrix_a1a2.json", "fig_matrix_apm.json"):
            code, out, _ = run_cli(capsys, "criteria", str(fixture_dir / name))
            assert code == 0
            docs.append(json.loads(out))
        for key in ("log_negativity", "separability", "eof_ebits", "epr_product"):
            assert docs[0]["criteria"][key] == pytest.approx(
                docs[1]["criteria"][key], abs=1e-9
            )


class TestOpoSweep:
    def test_single_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "opo-sweep", "--sigma", "0.9", "--omega", "0")
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["v_anti"]) == pytest.approx(361.0, rel=1e-3)
        assert float(cells["v_sq"]) == pytest.approx(0.00277, rel=1e-3)
        assert float(cells["separability"]) == pytest.approx(0.00277, rel=1e-3)

    def test_zero_pump_row_is_vacuum(self, capsys):
        code, out, _ = run_cli(capsys, "opo-sweep", "--sigma", "0")
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        for name in ("v_sq", "v_anti", "gemellity_x", "separability"):
            assert float(cells[name]) == pytest.approx(1.0, abs=1e-12)
        assert float(cells["eof_ebits"]) == pytest.approx(0.0, abs=1e-12)
        assert float(cells["log_negativity"]) == pytest.approx(0.0, abs=1e-9)

    def test_loss_calibrated_point(self, capsys):
        # efficiency chosen so the squeezed variance lands on 0.331
        eta = (1.0 - 0.331) / (1.0 - 0.01 / 3.61)
        code, out, _ = run_cli(
            capsys, "opo-sweep", "--sigma", "0.9", "--omega", "0", "--eta", repr(eta)
        )
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["v_sq"]) == pytest.approx(0.331, abs=1e-9)
        assert float(cells["eof_ebits"]) == pytest.approx(1.09, abs=5e-3)

    def test_eof_near_threshold(self, capsys):
        # separability 2.5e-17: c+ log2 c+ - c- log2 c- would cancel to 0.0
        code, out, _ = run_cli(capsys, "opo-sweep", "--sigma", "0.99999999")
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["eof_ebits"]) == pytest.approx(54.5935, abs=1e-3)

    def test_sigma_major_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "opo-sweep", "--sigma", "0.1:0.3:3", "--omega", "0:1:2"
        )
        rows = out.strip().split("\n")[1:]
        got = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
        assert got == sorted(got)
        assert len(got) == 6

    def test_coupled_family(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "opo-sweep",
            "--sigma",
            "0.9",
            "--coupled",
            "1.2228661116636982,0.677,1.476",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["log_negativity"]) == pytest.approx(4.06, abs=0.01)

    @pytest.mark.parametrize("sigma", ["0.99", "0.999"])
    def test_near_threshold_point(self, capsys, sigma):
        code, out, _ = run_cli(capsys, "opo-sweep", "--sigma", sigma)
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["log_negativity"]) == pytest.approx(
            -math.log2(float(cells["v_sq"])), rel=1e-12
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["opo-sweep", "--sigma", "0.2:0.4"],
            ["opo-sweep", "--sigma", "abc"],
            ["opo-sweep", "--sigma", "0.5", "--coupled", "1.0,2.0"],
            ["opo-sweep", "--sigma", "1.5"],
        ],
    )
    def test_bad_inputs_exit_2_or_3(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code in (2, 3)
        assert err


class TestCondprep:
    def test_reference_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "condprep")
        assert code == 0
        doc = json.loads(out)
        assert doc["fano_conditioned"] == pytest.approx(0.36, abs=0.05)
        assert doc["success_rate"] == pytest.approx(0.0085, abs=0.0025)

    def test_config_file_with_overrides(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "condprep",
            "--config",
            str(fixture_dir / "condprep_reference.json"),
            "--seed",
            "7",
            "--samples",
            "50000",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["seed"] == 7
        assert doc["config"]["n_samples"] == 50000
        assert doc["config"]["gemellity"] == 0.18

    def test_uncorrelated_beams(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "condprep",
            "--fano",
            "50",
            "--gemellity",
            "50",
            "--band-halfwidth",
            "1.0",
            "--samples",
            "100000",
        )
        doc = json.loads(out)
        assert doc["fano_conditioned"] == pytest.approx(50.0, rel=0.05)

    def test_multi_band_coverage(self, capsys):
        code, out, _ = run_cli(
            capsys, "condprep", "--bands", "20", "--band-halfwidth", "0.5",
            "--samples", "100000",
        )
        doc = json.loads(out)
        assert len(doc["per_band"]) == 20
        p = math.erf((20 * 0.5 / math.sqrt(110.0)) / math.sqrt(2.0))
        assert doc["success_rate"] == pytest.approx(p, abs=0.01)

    def test_dump_selected(self, tmp_path, capsys):
        dump = tmp_path / "selected.csv"
        code, out, _ = run_cli(
            capsys, "condprep", "--samples", "20000", "--dump-selected", str(dump)
        )
        assert code == 0
        doc = json.loads(out)
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "band,selected_signal"
        assert len(lines) - 1 == doc["n_selected"]
        rows_per_band = Counter(int(line.split(",")[0]) for line in lines[1:])
        assert [rows_per_band[i] for i in range(len(doc["per_band"]))] == [
            band["count"] for band in doc["per_band"]
        ]

    def test_no_estimated_band_prints_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "condprep", "--samples", "20000", "--band-halfwidth", "1e-4", "--seed", "14"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_selected"] == 1
        assert doc["fano_conditioned"] is None
        assert doc["fano_stderr"] is None

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"schema_version": "cvopo.condprep.v1"}')
        code, _, err = run_cli(capsys, "condprep", "--config", str(bad))
        assert code == 2
        assert "missing" in err

    def test_every_config_field_is_a_document_key_and_a_flag(self):
        names = {f.name for f in dataclasses.fields(CondPrepConfig)}
        doc = condprep_config_to_document(CONDPREP_REFERENCE)
        assert set(doc) == {"schema_version"} | names
        assert names <= set(vars(build_parser().parse_args(["condprep"])))


@pytest.mark.parametrize(
    "argv",
    [
        ["condprep", "--band-halfwidth", "inf"],
        ["condprep", "--fano", "nan"],
        ["condprep", "--band-center", "nan"],
        ["condprep", "--config", "{config}"],
        ["criteria", "{matrix}"],
        ["criteria", "--allow-unphysical", "{matrix}"],
        ["criteria", "{overflow}"],
        ["criteria", "{big_integer}"],
        ["optimize", "{matrix}"],
        ["opo-sweep", "--sigma", "0.5", "--omega", "inf"],
        ["opo-sweep", "--sigma", "0:nan:3"],
        ["opo-sweep", "--sigma", "0.5", "--eta", "nan"],
        ["opo-sweep", "--sigma", "0.5", "--coupled", "0.1,1.0,inf"],
        ["condprep", "--config", "{string_config}"],
    ],
)
def test_non_finite_numbers_exit_2(fixture_dir, tmp_path, capsys, argv):
    config = (fixture_dir / "condprep_reference.json").read_text()
    vacuum = (fixture_dir / "vacuum.json").read_text()
    texts = {
        "config": config.replace('"band_halfwidth": 0.1', '"band_halfwidth": Infinity'),
        "string_config": config.replace('"band_halfwidth": 0.1', '"band_halfwidth": "inf"'),
        "matrix": vacuum.replace("1.0", "NaN", 1),
        "overflow": vacuum.replace("1.0", "1e999", 1),
        "big_integer": vacuum.replace("1.0", "1" + "0" * 400, 1),
    }
    paths = {}
    for name, text in texts.items():
        assert text not in (config, vacuum)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ["criteria", "{directory}"],
        ["criteria", "{latin1}"],
        ["optimize", "{vacuum}", "--out", "{directory}"],
        ["condprep", "--config", "{directory}"],
        ["condprep", "--samples", "20000", "--dump-selected", "{directory}"],
    ],
)
def test_unreadable_or_unwritable_files_exit_2(fixture_dir, tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes((fixture_dir / "vacuum.json").read_bytes().replace(b"{", b"{\xe9", 1))
    paths = {"directory": tmp_path, "latin1": latin1, "vacuum": fixture_dir / "vacuum.json"}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("cvopo: ") and "Traceback" not in err


class TestOptimize:
    def test_reference_fixture(self, fixture_dir, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", str(fixture_dir / "fig_matrix_a1a2.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["e_n_before"] == pytest.approx(4.06, abs=0.01)
        assert doc["e_n_after"] == pytest.approx(4.53, abs=0.01)
        assert doc["e_n_max"] == pytest.approx(4.53, abs=0.01)

    def test_standard_form_input(self, tmp_path, capsys):
        from cvopo import OpoParams, below_threshold_covariance
        from cvopo.formats import save_matrix

        path = tmp_path / "std.json"
        save_matrix(path, below_threshold_covariance(OpoParams(sigma=0.6)))
        code, out, _ = run_cli(capsys, "optimize", str(path))
        doc = json.loads(out)
        assert doc["best_phase_rad"] == 0.0
        assert doc["e_n_after"] == pytest.approx(doc["e_n_before"], abs=1e-9)

    def test_out_round_trips_through_criteria(self, fixture_dir, tmp_path, capsys):
        out_path = tmp_path / "optimized.json"
        code, out, _ = run_cli(
            capsys,
            "optimize",
            str(fixture_dir / "fig_matrix_a1a2.json"),
            "--out",
            str(out_path),
        )
        after = json.loads(out)["e_n_after"]
        code, out, _ = run_cli(capsys, "criteria", str(out_path))
        assert code == 0
        assert json.loads(out)["criteria"]["log_negativity"] == pytest.approx(
            after, abs=1e-9
        )


class TestFixturesCommand:
    def test_list_names_at_least_six(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures", "--list")
        assert code == 0
        names = out.strip().split("\n")
        assert len(names) >= 6
        assert "fig_matrix_a1a2.json" in names
        assert "vacuum.json" in names

    def test_written_fixtures_parse(self, fixture_dir):
        for name in ("fig_matrix_apm.json", "vacuum.json"):
            loads_document((fixture_dir / name).read_text())

    def test_unwritable_directory_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file")
        code, _, err = run_cli(capsys, "fixtures", "--write", str(blocker / "sub"))
        assert code == 4
        assert "cannot write" in err


class TestProcessLevel:
    def test_module_invocation(self, fixture_dir):
        result = subprocess.run(
            [sys.executable, "-m", "cvopo", "criteria", str(fixture_dir / "vacuum.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["criteria"]["log_negativity"] == 0.0
        assert result.stderr == ""

    def test_stdout_carries_data_only(self, fixture_dir):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "cvopo",
                "criteria",
                str(fixture_dir / "fig_matrix_apm.json"),
            ],
            capture_output=True,
            text=True,
        )
        json.loads(result.stdout)  # nothing but the document

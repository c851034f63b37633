import dataclasses
import json

import numpy as np
import pytest

from cvopo import ModeBasis, classify, is_physical, make_covariance, vacuum_state
from cvopo.condprep import BandResult, CondPrepConfig, CondPrepResult, run_conditional_prep
from cvopo.errors import FormatError
from cvopo.fixtures import fixture_document, fixture_names, write_fixtures
from cvopo.formats import (
    REPORT_CSV_COLUMNS,
    condprep_config_to_document,
    condprep_result_to_document,
    document_to_condprep_config,
    document_to_matrix,
    dumps_canonical,
    load_matrix,
    loads_document,
    matrix_to_document,
    report_document,
    report_to_csv,
    save_matrix,
)


class TestMatrixDocuments:
    def test_round_trip_value_exact(self):
        doc = fixture_document("fig_matrix_apm.json")
        gamma, metadata = document_to_matrix(doc)
        again = matrix_to_document(gamma, metadata)
        assert again == doc

    def test_round_trip_byte_exact_all_fixtures(self):
        for name in fixture_names():
            text = dumps_canonical(fixture_document(name))
            assert dumps_canonical(loads_document(text)) == text

    def test_unknown_metadata_preserved(self, tmp_path):
        path = tmp_path / "m.json"
        metadata = {"sigma": 0.9, "lab_notebook_page": 17, "nested": {"a": [1, 2]}}
        save_matrix(path, vacuum_state(), metadata)
        _, loaded = load_matrix(path)
        assert loaded == metadata

    def test_decimals_survive_a_file_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        entries = np.array(fixture_document("fig_matrix_apm.json")["entries"])
        save_matrix(path, make_covariance(entries, ModeBasis.PLUS_MINUS))
        text = path.read_text()
        assert "0.00277" in text and "361.0" in text
        gamma, _ = load_matrix(path)
        assert np.array_equal(gamma.entries, entries)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"schema_version": "other.v9"},
            {"ordering": "P_A,X_A,P_B,X_B"},
            {"basis": "diagonal"},
            {"entries": [[1, 0], [0, 1]]},
            {"entries": "not a matrix"},
            {"metadata": 7},
        ],
    )
    def test_schema_violations(self, mutation):
        doc = dict(fixture_document("vacuum.json"))
        doc.update(mutation)
        with pytest.raises(FormatError):
            document_to_matrix(doc)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    def test_non_finite_numbers_rejected(self, literal):
        with pytest.raises(FormatError, match="non-finite"):
            loads_document(f'{{"entries": [[1.0, {literal}]]}}')

    def test_json_error_carries_position(self):
        with pytest.raises(FormatError) as err:
            loads_document('{"schema_version": ')
        assert err.value.line == 1
        assert err.value.column is not None


class TestFixtures:
    def test_at_least_six_fixtures(self):
        assert len(fixture_names()) >= 6

    def test_published_plus_minus_entries(self):
        entries = np.array(fixture_document("fig_matrix_apm.json")["entries"])
        flat = set(np.round(entries.flatten(), 6))
        for value in (361.0, 0.00277, 1.383, -0.256, 0.770):
            assert value in flat

    def test_matrix_fixtures_are_physical(self):
        for name in fixture_names():
            doc = fixture_document(name)
            if "entries" not in doc:
                continue
            gamma, _ = document_to_matrix(doc)
            assert is_physical(gamma)[0], name

    def test_written_files_reload(self, tmp_path):
        paths = write_fixtures(tmp_path)
        assert sorted(p.name for p in paths) == sorted(fixture_names())
        for path in paths:
            doc = loads_document(path.read_text())
            assert dumps_canonical(doc) == path.read_text()

    def test_byte_stable_across_writes(self, tmp_path):
        first = {p.name: p.read_text() for p in write_fixtures(tmp_path / "a")}
        second = {p.name: p.read_text() for p in write_fixtures(tmp_path / "b")}
        assert first == second

    def test_unknown_fixture_name(self):
        with pytest.raises(KeyError):
            fixture_document("missing.json")


class TestReports:
    def test_report_document_fields(self, a1a2_state):
        doc = report_document(classify(a1a2_state), a1a2_state.basis, "ab" * 32)
        assert doc["schema_version"] == "cvopo.report.v1"
        assert doc["basis"] == "signal_idler"
        assert set(doc["flags"]) == {
            "nonclassical_correlation",
            "qnd_correlated",
            "inseparable",
            "epr_correlated",
        }
        json.dumps(doc)  # JSON-serializable throughout

    def test_sections_cover_the_csv_columns_once(self, a1a2_state):
        doc = report_document(classify(a1a2_state), a1a2_state.basis)
        names = ["basis", "standard_form", "balanced"]
        for section in ("criteria", "db", "flags"):
            names.extend(doc[section])
        assert sorted(names) == sorted(REPORT_CSV_COLUMNS)
        assert all(isinstance(v, float) for v in doc["criteria"].values())

    def test_csv_rendering(self, a1a2_state):
        doc = report_document(classify(a1a2_state), a1a2_state.basis)
        text = report_to_csv(doc)
        header, row = text.strip().split("\n")
        assert header == ",".join(REPORT_CSV_COLUMNS)
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["log_negativity"]) == pytest.approx(4.06, abs=0.01)
        assert cells["inseparable"] == "true"
        assert cells["basis"] == "signal_idler"


class TestCondprepDocuments:
    def test_round_trip(self):
        cfg = CondPrepConfig(
            fano_signal=110.0,
            fano_idler=100.0,
            gemellity=0.18,
            band_halfwidth=0.1,
            n_samples=200_000,
            seed=42,
            n_bands=3,
            band_convention="full_width",
        )
        assert document_to_condprep_config(condprep_config_to_document(cfg)) == cfg

    def test_missing_fields(self):
        doc = condprep_config_to_document(
            CondPrepConfig(
                fano_signal=10.0,
                fano_idler=10.0,
                gemellity=0.2,
                band_halfwidth=0.1,
                n_samples=20_000,
                seed=1,
            )
        )
        del doc["gemellity"]
        del doc["seed"]
        del doc["n_bands"]
        with pytest.raises(FormatError, match="^missing condprep fields: gemellity, seed$"):
            document_to_condprep_config(doc)

    def test_optional_fields_take_their_defaults(self):
        doc = condprep_config_to_document(CondPrepConfig(1.0, 1.0, 0.5, 0.1, 20_000, 1))
        for name in ("band_center", "n_bands", "band_convention"):
            del doc[name]
        assert document_to_condprep_config(doc) == CondPrepConfig(1.0, 1.0, 0.5, 0.1, 20_000, 1)

    def test_values_coerced_to_field_types(self):
        doc = condprep_config_to_document(CondPrepConfig(1.0, 1.0, 0.5, 0.1, 20_000, 1))
        doc.update(fano_signal=2, n_samples=30_000.0, n_bands="3")
        cfg = document_to_condprep_config(doc)
        assert (cfg.fano_signal, cfg.n_samples, cfg.n_bands) == (2.0, 30_000, 3)
        for name, kind in (("fano_signal", float), ("n_samples", int), ("n_bands", int)):
            assert type(getattr(cfg, name)) is kind

    @pytest.mark.parametrize(
        "field, value",
        [("fano_signal", "abc"), ("n_samples", "2e4"), ("n_bands", None), ("seed", [1])],
    )
    def test_bad_field_values(self, field, value):
        doc = condprep_config_to_document(CondPrepConfig(1.0, 1.0, 0.5, 0.1, 20_000, 1))
        doc[field] = value
        with pytest.raises(FormatError, match="^bad condprep field: "):
            document_to_condprep_config(doc)

    def test_bad_schema(self):
        with pytest.raises(FormatError):
            document_to_condprep_config({"schema_version": "bogus"})

    @pytest.mark.parametrize("band_center, n_bands", [(0.0, 3), (40.0, 1)])
    def test_result_document_is_the_result_fields(self, band_center, n_bands):
        cfg = CondPrepConfig(110.0, 110.0, 0.18, 0.5, 20_000, 1, band_center, n_bands)
        result = run_conditional_prep(cfg)
        doc = condprep_result_to_document(result, cfg)
        names = [f.name for f in dataclasses.fields(CondPrepResult)]
        band_names = {f.name for f in dataclasses.fields(BandResult)}
        assert set(doc) == {"schema_version", "tool_version", "config"} | set(names)
        assert doc["config"] == condprep_config_to_document(cfg)
        assert len(doc["per_band"]) == n_bands
        for band, source in zip(doc["per_band"], result.per_band):
            assert set(band) == band_names
            for name in band_names:
                value = getattr(source, name)
                assert band[name] == (None if value != value else value)
        for name in set(names) - {"per_band"}:
            value = getattr(result, name)
            assert doc[name] == (None if value != value else value)
        json.loads(dumps_canonical(doc))

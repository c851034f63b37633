"""File formats: matrix documents, report documents, condprep configs.

Matrix files are JSON with explicit ``basis`` and ``ordering`` fields, since
the same state can legitimately be written in two mode bases and silent
basis confusion is the main user hazard.  Serialization is canonical
(sorted keys, two-space indent, trailing newline) so that parse-serialize
round trips are byte-exact, and numbers are written with Python's shortest
round-trip representation so they are value-exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import csv
import math
import typing

import numpy as np

from . import __version__
from .condprep import CondPrepConfig, CondPrepResult
from .criteria import CriteriaReport
from .errors import FormatError
from .gaussian import CovarianceMatrix, ModeBasis, make_covariance

MATRIX_SCHEMA = "cvopo.matrix.v1"
REPORT_SCHEMA = "cvopo.report.v1"
CONDPREP_SCHEMA = "cvopo.condprep.v1"
ORDERING = "X_A,P_A,X_B,P_B"

#: Column order of the criteria CSV rendering (frozen; see README).
REPORT_CSV_COLUMNS = (
    "basis",
    "standard_form",
    "balanced",
    "gemellity_x",
    "antigemellity_p",
    "conditional_variance_x",
    "conditional_variance_p",
    "separability",
    "eof_ebits",
    "epr_product",
    "xi",
    "log_negativity",
    "max_log_negativity",
    "gemellity_x_db",
    "antigemellity_p_db",
    "conditional_variance_x_db",
    "conditional_variance_p_db",
    "separability_db",
    "nonclassical_correlation",
    "qnd_correlated",
    "inseparable",
    "epr_correlated",
)


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise FormatError(f"non-finite number {text} is not allowed")
    return value


def loads_document(text: str) -> dict:
    """Parse a JSON document; NaN, Infinity and overflowing numbers raise ``FormatError``."""
    try:
        doc = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise FormatError("document root must be a JSON object")
    return doc


def matrix_to_document(gamma: CovarianceMatrix, metadata: dict | None = None) -> dict:
    return {
        "schema_version": MATRIX_SCHEMA,
        "basis": gamma.basis.value,
        "ordering": ORDERING,
        "entries": [[float(v) for v in row] for row in gamma.entries],
        "metadata": dict(metadata or {}),
    }


def document_to_matrix(doc: dict) -> tuple[CovarianceMatrix, dict]:
    """Parse a matrix document; returns the matrix and its metadata."""
    if doc.get("schema_version") != MATRIX_SCHEMA:
        raise FormatError(
            f"unsupported schema_version {doc.get('schema_version')!r}, "
            f"expected {MATRIX_SCHEMA!r}"
        )
    if doc.get("ordering") != ORDERING:
        raise FormatError(f"ordering must be {ORDERING!r}, got {doc.get('ordering')!r}")
    try:
        basis = ModeBasis(doc.get("basis"))
    except ValueError:
        raise FormatError(
            f"basis must be 'signal_idler' or 'plus_minus', got {doc.get('basis')!r}"
        ) from None
    entries = doc.get("entries")
    try:
        array = np.asarray(entries, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise FormatError("entries must be a 4x4 array of numbers") from None
    if array.shape != (4, 4):
        raise FormatError(f"entries must be 4x4, got shape {array.shape}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError("metadata must be an object")
    return make_covariance(array, basis), metadata


def read_document(path) -> tuple[dict, str]:
    """Read a JSON document file once: the parsed document and the SHA-256
    of the bytes it was parsed from.  Text that is not UTF-8 raises
    ``FormatError``; line endings are read as in text mode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    text = io.StringIO(text, newline=None).read()
    return loads_document(text), hashlib.sha256(data).hexdigest()


def load_document(path) -> dict:
    """Read and parse a JSON document file (see ``read_document``)."""
    return read_document(path)[0]


def read_matrix(path) -> tuple[CovarianceMatrix, dict, str]:
    """The matrix and metadata of a file, and the SHA-256 of the bytes parsed."""
    doc, digest = read_document(path)
    return (*document_to_matrix(doc), digest)


def load_matrix(path) -> tuple[CovarianceMatrix, dict]:
    return document_to_matrix(load_document(path))


def save_matrix(path, gamma: CovarianceMatrix, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(matrix_to_document(gamma, metadata)))


def report_document(
    report: CriteriaReport, basis: ModeBasis, input_digest: str | None = None
) -> dict:
    return {
        "schema_version": REPORT_SCHEMA,
        "tool_version": __version__,
        "input_sha256": input_digest,
        "basis": basis.value,
        "standard_form": report.standard_form,
        "balanced": report.balanced,
        "criteria": report.scalars(),
        "db": report.db_renderings(),
        "flags": report.flags,
    }


def report_to_csv(doc: dict) -> str:
    """Single header row plus one data row, '.' decimal separator."""
    flat = {key: doc[key] for key in ("basis", "standard_form", "balanced")}
    for section in ("criteria", "db", "flags"):
        flat.update(doc[section])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_CSV_COLUMNS)
    writer.writerow([_csv_cell(flat[c]) for c in REPORT_CSV_COLUMNS])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def condprep_config_to_document(cfg: CondPrepConfig) -> dict:
    """``schema_version`` plus every ``CondPrepConfig`` field."""
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    return {"schema_version": CONDPREP_SCHEMA, **fields}


def document_to_condprep_config(doc: dict) -> CondPrepConfig:
    """Fields without a default are required; each value is coerced with its field's type."""
    if doc.get("schema_version") != CONDPREP_SCHEMA:
        raise FormatError(
            f"unsupported schema_version {doc.get('schema_version')!r}, "
            f"expected {CONDPREP_SCHEMA!r}"
        )
    fields = dataclasses.fields(CondPrepConfig)
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in doc]
    if missing:
        raise FormatError(f"missing condprep fields: {', '.join(missing)}")
    types = typing.get_type_hints(CondPrepConfig)
    # float fields coerce through the finite check, so "inf" and "nan" strings fail too
    coerce = {name: _finite_float if kind is float else kind for name, kind in types.items()}
    try:
        return CondPrepConfig(
            **{f.name: coerce[f.name](doc[f.name]) for f in fields if f.name in doc}
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad condprep field: {exc}") from exc


def condprep_result_to_document(result: CondPrepResult, cfg: CondPrepConfig) -> dict:
    """``schema_version``, ``tool_version``, ``config`` and every result field; NaN is null."""
    return {
        "schema_version": "cvopo.condprep_result.v1",
        "tool_version": __version__,
        "config": condprep_config_to_document(cfg),
        **dataclasses.asdict(result, dict_factory=_nan_to_null),
    }


def _nan_to_null(items) -> dict:
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in items}

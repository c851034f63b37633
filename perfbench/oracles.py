"""Independent oracles for every output the benchmark checks.

Nothing here imports the package under test.  Matrix quantities are
evaluated in mpmath at ``mp.dps = 40`` from the request parameters or from
the document entries; condprep results are compared with the exact Gaussian
band probability and the truncated-normal conditional variance.

The tolerances below are the benchmark's contract with the program.  They
are set from double-precision round-off of a *stable* evaluation, not from
what the current code achieves: the seed code loses xi to cancellation near
threshold (ROADMAP item 2) and fails these checks there, which the ``sweep``
workload's probe requests are meant to show.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf

from workloads import grid

mp.dps = 40

#: xi (smallest symplectic eigenvalue of the partial transpose), relative.
XI_RTOL = 1e-6
#: log negativity, absolute; the same error as XI_RTOL, since E_N = -log2 xi.
EN_ATOL = XI_RTOL / math.log(2.0)
#: quantities read straight off the entries (variances, gemellities,
#: separability, EoF, EPR product), relative; E_N^max uses EN_ATOL.
DIRECT_RTOL = 1e-9
#: echoed inputs (grid values, band centres, config fields), relative.
ECHO_RTOL = 1e-12
#: optimizer: e_n_after <= E_N^max + tol everywhere, >= E_N^max - tol on
#: the coupled family, where the A- phase shift attains the passive bound.
EN_OPT_ATOL = 1e-6
#: optimize --out entries against the oracle's rotation of the input,
#: relative to the largest entry.
OUT_RTOL = 1e-9
#: published values for the bundled fig_matrix_a1a2.json: E_N 4.06 -> 4.53.
FIXTURE_A1A2 = {"e_n_before": 4.06, "e_n_after": 4.53, "atol": 0.005}
#: condprep: Fano and band counts within this many standard errors.
FANO_K = 6.0
COUNT_K = 6.0

TOLERANCES = {
    "xi_rtol": XI_RTOL,
    "e_n_atol": EN_ATOL,
    "direct_rtol": DIRECT_RTOL,
    "echo_rtol": ECHO_RTOL,
    "e_n_opt_atol": EN_OPT_ATOL,
    "out_rtol": OUT_RTOL,
    "fixture_a1a2": FIXTURE_A1A2,
    "fano_k_stderr": FANO_K,
    "count_k_sigma": COUNT_K,
}

SWEEP_COLUMNS = [
    "sigma", "omega", "v_sq", "v_anti", "gemellity_x", "separability", "eof_ebits", "log_negativity",
]  # fmt: skip
REPORT_CSV_COLUMNS = [
    "basis", "standard_form", "balanced", "gemellity_x", "antigemellity_p",
    "conditional_variance_x", "conditional_variance_p", "separability", "eof_ebits",
    "epr_product", "xi", "log_negativity", "max_log_negativity", "gemellity_x_db",
    "antigemellity_p_db", "conditional_variance_x_db", "conditional_variance_p_db",
    "separability_db", "nonclassical_correlation", "qnd_correlated", "inseparable",
    "epr_correlated",
]  # fmt: skip


@dataclass
class Verdict:
    ok: bool
    work: float = 0.0  # oracle-passing work units (points, documents, samples)
    reason: str = ""
    failed_sigmas: list = field(default_factory=list)
    sigmas: list = field(default_factory=list)


def close(value, expected, rtol, atol=0.0) -> bool:
    try:
        value = float(value)
    except (TypeError, ValueError):
        return False
    expected = float(expected)
    return math.isfinite(value) and abs(value - expected) <= max(atol, rtol * abs(expected))


# -- Gaussian-state oracles -------------------------------------------------


def eof_mp(sep):
    sep = mpf(sep)
    if sep >= 1:
        return mpf(0)
    root = mpmath.sqrt(sep)
    cp = (1 / root + root) ** 2 / 4
    cm = (1 / root - root) ** 2 / 4
    return cp * mpmath.log(cp, 2) - cm * mpmath.log(cm, 2)


def pt_xi(delta, det):
    """Smallest PT symplectic eigenvalue from the seralian and det, at 40 digits."""
    return mpmath.sqrt((delta - mpmath.sqrt(delta * delta - 4 * det)) / 2)


def e_n_of(xi):
    return max(mpf(0), -mpmath.log(xi, 2))


def sweep_point(sigma, omega, eta, coupled=None) -> dict:
    """Every sweep CSV column for one model point, from the closed forms.

    In the +-45 degree basis the state is P (+) M with P = diag(A, S) for
    A+ and M for A-; in the signal/idler split a = b = (P + M)/2 and
    c = (P - M)/2, so the PT seralian is A m22 + S m11 and det = det P det M.
    """
    s, w, e = mpf(sigma), mpf(omega), mpf(eta)
    lo, hi = (1 - s) ** 2 + w**2, (1 + s) ** 2 + w**2
    anti = e * hi / lo + 1 - e
    sq = e * lo / hi + 1 - e
    if coupled is None:
        m11, m22, m12 = sq, anti, mpf(0)
    else:
        theta, v1, v2 = (mpf(v) for v in coupled)
        c, sn = mpmath.cos(theta), mpmath.sin(theta)
        m11 = e * (c * c * v1 + sn * sn * v2) + 1 - e
        m22 = e * (sn * sn * v1 + c * c * v2) + 1 - e
        m12 = e * c * sn * (v1 - v2)
    delta = anti * m22 + sq * m11
    det = anti * sq * (m11 * m22 - m12 * m12)
    sep = (m11 + sq) / 2
    return {
        "sigma": s,
        "omega": w,
        "v_sq": sq,
        "v_anti": anti,
        "gemellity_x": m11,
        "separability": sep,
        "eof_ebits": eof_mp(sep),
        "log_negativity": e_n_of(pt_xi(delta, det)),
    }


_SQ2 = 1 / mpmath.sqrt(2)
_S_PM = mpmath.matrix(
    [[_SQ2, 0, _SQ2, 0], [0, _SQ2, 0, _SQ2], [_SQ2, 0, -_SQ2, 0], [0, _SQ2, 0, -_SQ2]]
)


def matrix_report(entries, basis: str) -> dict:
    """Criteria of a 4x4 document state, in the signal/idler split."""
    g = mpmath.matrix([[mpf(float(v)) for v in row] for row in entries])
    pm = g if basis == "plus_minus" else _S_PM * g * _S_PM
    si = g if basis == "signal_idler" else _S_PM * g * _S_PM
    det_a = si[0, 0] * si[1, 1] - si[0, 1] * si[1, 0]
    det_b = si[2, 2] * si[3, 3] - si[2, 3] * si[3, 2]
    det_c = si[0, 2] * si[1, 3] - si[0, 3] * si[1, 2]
    xi = pt_xi(det_a + det_b - 2 * det_c, mp.det(si))
    lam = sorted(mp.eigsy(si, eigvals_only=True))
    g_x = (si[0, 0] + si[2, 2] - 2 * si[0, 2]) / 2
    g_p = (si[1, 1] + si[3, 3] + 2 * si[1, 3]) / 2
    v_x = si[0, 0] - si[0, 2] ** 2 / si[2, 2]
    v_p = si[1, 1] - si[1, 3] ** 2 / si[3, 3]
    sep = (g_x + g_p) / 2
    scale = max(abs(v) for v in g)
    # the coupled family: uncorrelated +-45 modes with a diagonal A+ block
    coupled = all(abs(pm[i, j]) <= 1e-12 * scale for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
    return {
        "criteria": {
            "gemellity_x": g_x,
            "antigemellity_p": g_p,
            "conditional_variance_x": v_x,
            "conditional_variance_p": v_p,
            "separability": sep,
            "eof_ebits": eof_mp(sep),
            "epr_product": v_x * v_p,
            "xi": xi,
            "log_negativity": e_n_of(xi),
            "max_log_negativity": max(mpf(0), -mpmath.log(lam[0] * lam[1], 2) / 2),
        },
        "pm": pm,
        "coupled_family": coupled,
        "scale": scale,
    }


# -- sweep ----------------------------------------------------------------------


class SweepOracle:
    def __init__(self, requests):
        self.requests = requests
        self._expected = {}

    def expected(self, index):
        if index not in self._expected:
            req = self.requests[index]
            rows = []
            for sigma in grid(req["sigma"]):
                for omega in grid(req["omega"]):
                    point = sweep_point(sigma, omega, req["eta"], req["coupled"])
                    rows.append({k: float(v) for k, v in point.items()})
            self._expected[index] = rows
        return self._expected[index]

    def check(self, index, record) -> Verdict:
        expected = self.expected(index)
        sigmas = [row["sigma"] for row in expected]
        rc, out, err = record["calls"][0]
        if rc != 0:
            reason = f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"
            return Verdict(False, 0.0, reason, sigmas, sigmas)
        lines = out.splitlines()
        if not lines or lines[0].split(",") != SWEEP_COLUMNS or len(lines) != len(expected) + 1:
            return Verdict(False, 0.0, "bad CSV header or row count", sigmas, sigmas)
        failed, first = [], ""
        for line, exp in zip(lines[1:], expected):
            bad = _sweep_row_errors(line.split(","), exp)
            if bad:
                failed.append(exp["sigma"])
                first = first or f"sigma={exp['sigma']:.6g}: {bad}"
        return Verdict(not failed, len(expected) - len(failed), first, failed, sigmas)


def _sweep_row_errors(cells, exp) -> str:
    if len(cells) != len(SWEEP_COLUMNS):
        return "wrong cell count"
    got = dict(zip(SWEEP_COLUMNS, cells))
    for col in ("sigma", "omega"):
        if not close(got[col], exp[col], ECHO_RTOL, ECHO_RTOL):
            return f"{col} echo {got[col]} != {exp[col]!r}"
    for col in ("v_sq", "v_anti", "gemellity_x", "separability", "eof_ebits"):
        if not close(got[col], exp[col], DIRECT_RTOL, 1e-12):
            return f"{col} {got[col]} != {exp[col]!r}"
    if not close(got["log_negativity"], exp["log_negativity"], 0.0, EN_ATOL):
        return f"log_negativity {got['log_negativity']} != {exp['log_negativity']!r}"
    return ""


# -- analyze --------------------------------------------------------------------


class AnalyzeOracle:
    def __init__(self, requests, workdir):
        self.requests = requests
        self.workdir = workdir
        self._docs = {}
        self._outs = {}

    def document(self, index):
        if index not in self._docs:
            path = self.workdir / self.requests[index]["doc"]
            doc = json.loads(path.read_text(encoding="utf-8"))
            report = matrix_report(doc["entries"], doc["basis"])
            report["basis"] = doc["basis"]
            self._docs[index] = report
        return self._docs[index]

    def check(self, index, record) -> Verdict:
        req = self.requests[index]
        calls = record["calls"]
        if req["family"] == "bad":
            for rc, out, _ in calls:
                if rc not in req["expect"] or out:
                    return Verdict(False, 0.0, f"invalid input got exit {rc}, want {req['expect']}")
            if record.get("out") is not None:
                return Verdict(False, 0.0, "optimize --out written for an invalid input")
            return Verdict(True, 1.0)
        for rc, _, err in calls:
            if rc != 0:
                return Verdict(False, 0.0, f"exit {rc}: {err.strip()[-200:]}")
        oracle = self.document(index)
        reason = (
            _check_report(calls[0][1], oracle)
            or _check_report_csv(calls[1][1], calls[0][1])
            or self._check_optimize(index, req, calls[2][1], record.get("out"), oracle)
        )
        return Verdict(not reason, 0.0 if reason else 1.0, reason)

    def _check_optimize(self, index, req, text, out_text, oracle) -> str:
        try:
            doc = json.loads(text)
            before, after, top = doc["e_n_before"], doc["e_n_after"], doc["e_n_max"]
            phase = float(doc["best_phase_rad"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"optimize output unreadable: {exc!r}"
        crit = oracle["criteria"]
        e_n, e_max = float(crit["log_negativity"]), float(crit["max_log_negativity"])
        if doc.get("schema_version") != "cvopo.optimize.v1":
            return "optimize schema_version"
        if not close(before, e_n, 0.0, EN_ATOL):
            return f"e_n_before {before} != {e_n!r}"
        if not close(top, e_max, 0.0, EN_ATOL):
            return f"e_n_max {top} != {e_max!r}"
        if not after <= e_max + EN_OPT_ATOL:
            return f"e_n_after {after} exceeds E_N^max {e_max!r}"
        if not after >= before - EN_ATOL:
            return f"e_n_after {after} below e_n_before {before}"
        if oracle["coupled_family"] and not after >= e_max - EN_OPT_ATOL:
            return f"e_n_after {after} misses the passive bound {e_max!r}"
        if not 0.0 <= phase < math.pi:
            return f"best_phase_rad {phase} outside [0, pi)"
        if req["doc"].endswith("fixtures/fig_matrix_a1a2.json"):
            for key in ("e_n_before", "e_n_after"):
                if not close(doc[key], FIXTURE_A1A2[key], 0.0, FIXTURE_A1A2["atol"]):
                    return f"fixture {key} {doc[key]} != published {FIXTURE_A1A2[key]}"
        if out_text is None:
            return "optimize --out wrote nothing"
        key = (index, phase, out_text)
        if key not in self._outs:
            self._outs[key] = _check_out(out_text, oracle, phase, after)
        return self._outs[key]


def _check_report(text, oracle) -> str:
    try:
        doc = json.loads(text)
        crit, flags = doc["criteria"], doc["flags"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"criteria report unreadable: {exc!r}"
    if doc.get("schema_version") != "cvopo.report.v1" or doc.get("basis") != oracle["basis"]:
        return "criteria schema_version or basis"
    for key, exp in oracle["criteria"].items():
        if key == "xi":
            ok = close(crit.get(key), exp, XI_RTOL)
        elif key in ("log_negativity", "max_log_negativity"):
            ok = close(crit.get(key), exp, 0.0, EN_ATOL)
        else:
            ok = close(crit.get(key), exp, DIRECT_RTOL, 1e-12 * float(oracle["scale"]))
        if not ok:
            return f"criteria {key} {crit.get(key)} != {float(exp)!r}"
    o = {k: float(v) for k, v in oracle["criteria"].items()}
    expected_flags = {
        "inseparable": (o["xi"], 1.0, XI_RTOL),
        "nonclassical_correlation": (min(o["gemellity_x"], o["antigemellity_p"]), 1.0, DIRECT_RTOL),
        "qnd_correlated": (min(o["conditional_variance_x"], o["conditional_variance_p"]), 1.0, DIRECT_RTOL),
        "epr_correlated": (o["epr_product"], 1.0, DIRECT_RTOL),
    }
    for name, (value, limit, rtol) in expected_flags.items():
        if abs(value - limit) > rtol and flags.get(name) != (value < limit):
            return f"flag {name} = {flags.get(name)}"
    return ""


def _check_report_csv(text, json_text) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or rows[0] != REPORT_CSV_COLUMNS:
        return "criteria CSV header or row count"
    doc = json.loads(json_text)
    flat = {"basis": doc["basis"], "standard_form": doc["standard_form"], "balanced": doc["balanced"]}
    flat.update(doc["criteria"], **doc["db"], **doc["flags"])
    for col, cell in zip(rows[0], rows[1]):
        value = flat.get(col)
        if isinstance(value, bool):
            same = cell == ("true" if value else "false")
        elif isinstance(value, float):
            same = float(cell) == value
        else:
            same = cell == str(value)
        if not same:
            return f"CSV {col} {cell} disagrees with the JSON report"
    return ""


def _check_out(text, oracle, phase, e_n_after) -> str:
    try:
        doc = json.loads(text)
        entries = doc["entries"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"--out document unreadable: {exc!r}"
    if doc.get("schema_version") != "cvopo.matrix.v1" or doc.get("basis") != oracle["basis"]:
        return "--out schema_version or basis"
    c, s = mpmath.cos(phase), mpmath.sin(phase)
    rot = mpmath.eye(4)
    rot[2, 2], rot[2, 3], rot[3, 2], rot[3, 3] = c, s, -s, c
    want = rot * oracle["pm"] * rot.T
    if oracle["basis"] == "signal_idler":
        want = _S_PM * want * _S_PM
    worst = max(abs(mpf(float(entries[i][j])) - want[i, j]) for i in range(4) for j in range(4))
    if worst > OUT_RTOL * oracle["scale"]:
        return f"--out entries differ from the phase-shifted input by {float(worst):.3g}"
    out_e_n = matrix_report(entries, doc["basis"])["criteria"]["log_negativity"]
    if not close(e_n_after, out_e_n, 0.0, EN_ATOL):
        return f"E_N of the --out state {float(out_e_n)!r} != e_n_after {e_n_after}"
    return ""


# -- condprep -------------------------------------------------------------------


def band_oracle(cfg, center):
    """(probability, conditioned Fano) of one idler band |I_i - c| <= h.

    Var(I_s | band) = F_s (1 - rho^2) + F_s rho^2 Var(z | z in [a, b]) with the
    exact truncated-normal variance, a, b = (c -+ h)/sqrt(F_i).
    """
    f_s, f_i = mpf(cfg["fano_signal"]), mpf(cfg["fano_idler"])
    rho = 1 - mpf(cfg["gemellity"]) / mpmath.sqrt(f_s * f_i)
    h = mpf(cfg["band_halfwidth"])
    if cfg["band_convention"] == "full_width":
        h /= 2
    a = (mpf(center) - h) / mpmath.sqrt(f_i)
    b = (mpf(center) + h) / mpmath.sqrt(f_i)
    z = mpmath.ncdf(b) - mpmath.ncdf(a)
    pa, pb = mpmath.npdf(a), mpmath.npdf(b)
    mean = (pa - pb) / z
    var_t = 1 + (a * pa - b * pb) / z - mean * mean
    return z, f_s * (1 - rho * rho) + f_s * rho * rho * var_t


def band_centers(cfg) -> list[float]:
    h = cfg["band_halfwidth"] / (2.0 if cfg["band_convention"] == "full_width" else 1.0)
    n = cfg["n_bands"]
    if n == 1:
        return [cfg["band_center"]]
    return [-n * h + (2 * k + 1) * h for k in range(n)]


class CondprepOracle:
    def __init__(self, requests):
        self.requests = requests
        self._bands = {}

    def bands(self, index):
        if index not in self._bands:
            cfg = self.requests[index]["cfg"]
            self._bands[index] = [
                (c, *(float(v) for v in band_oracle(cfg, c))) for c in band_centers(cfg)
            ]
        return self._bands[index]

    def check(self, index, record) -> Verdict:
        cfg = self.requests[index]["cfg"]
        rc, out, err = record["calls"][0]
        if rc != 0:
            return Verdict(False, 0.0, f"exit {rc}: {err.strip()[-200:]}")
        try:
            doc = json.loads(out)
            reason = self._check(cfg, doc, self.bands(index))
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"condprep output unreadable: {exc!r}"
        return Verdict(not reason, 0.0 if reason else cfg["n_samples"] / 1e6, reason)

    @staticmethod
    def _check(cfg, doc, bands) -> str:
        if doc["schema_version"] != "cvopo.condprep_result.v1":
            return "condprep schema_version"
        for key, value in cfg.items():
            if not (doc["config"][key] == value or close(doc["config"][key], value, ECHO_RTOL)):
                return f"config echo {key} {doc['config'][key]!r} != {value!r}"
        n = cfg["n_samples"]
        if doc["n_samples"] != n or doc["empty_selection"] or len(doc["per_band"]) != len(bands):
            return "n_samples, empty_selection or band count"
        h = cfg["band_halfwidth"] / (2.0 if cfg["band_convention"] == "full_width" else 1.0)
        total, weighted, var = 0, 0.0, 0.0
        for band, (center, prob, fano) in zip(doc["per_band"], bands):
            count = band["count"]
            if not close(band["center"], center, ECHO_RTOL, ECHO_RTOL) or not close(
                band["halfwidth"], h, ECHO_RTOL
            ):
                return f"band centre/halfwidth {band['center']}, {band['halfwidth']}"
            if count < 2 or abs(count - n * prob) > COUNT_K * math.sqrt(n * prob * (1 - prob)) + 1:
                return f"band {center:.3g}: count {count} vs expected {n * prob:.1f}"
            if not close(band["success_rate"], count / n, ECHO_RTOL):
                return f"band {center:.3g}: success_rate {band['success_rate']} != count/n"
            stderr = fano * math.sqrt(2.0 / (count - 1))
            if abs(band["fano"] - fano) > FANO_K * stderr:
                return f"band {center:.3g}: Fano {band['fano']} vs oracle {fano:.6g} +- {stderr:.2g}"
            if not close(band["fano_stderr"], band["fano"] * math.sqrt(2.0 / (count - 1)), 1e-9):
                return f"band {center:.3g}: fano_stderr {band['fano_stderr']}"
            total += count
            weighted += count * fano
            var += (count * stderr) ** 2
        if doc["n_selected"] != total:
            return f"n_selected {doc['n_selected']} != sum of band counts {total}"
        if not close(doc["success_rate"], total / n, 1e-9):
            return f"success_rate {doc['success_rate']} != n_selected / n_samples"
        fano, stderr = weighted / total, math.sqrt(var) / total
        if abs(doc["fano_conditioned"] - fano) > FANO_K * stderr:
            return f"fano_conditioned {doc['fano_conditioned']} vs oracle {fano:.6g} +- {stderr:.2g}"
        return ""


def make_oracle(workload, requests, workdir):
    if workload == "sweep":
        return SweepOracle(requests)
    if workload == "analyze":
        return AnalyzeOracle(requests, workdir)
    return CondprepOracle(requests)

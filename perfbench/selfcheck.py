"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Generated inputs are a pure function of (workload, seed): two generations
   are byte-identical, and another seed gives other inputs.
2. The oracles are sound: the closed-form sweep oracle and the document
   oracle agree with a direct mpmath eigen-decomposition of i J Gamma^PT;
   the benchmark's waveplate scramble equals
   ``cvopo.optimize.apply_waveplate_sequence``.
3. Each oracle accepts the program's real output and flags a deliberately
   perturbed copy of it (xi x (1 + 1e-3), a Fano estimate off by 10 standard
   errors, an exit code, a band count, an optimizer result above E_N^max).
4. A smoke size runs all four workloads end to end, untraced and traced.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def check(cond, message):
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok   {message}")


def _tree(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def check_inputs_pure():
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b, \
                tempfile.TemporaryDirectory() as c:  # fmt: skip
            spec_a = json.dumps(workloads.generate(workload, 7, Path(a)))
            spec_b = json.dumps(workloads.generate(workload, 7, Path(b)))
            spec_c = json.dumps(workloads.generate(workload, 8, Path(c)))
            check(spec_a == spec_b and _tree(Path(a)) == _tree(Path(b)), f"{workload}: same seed, same inputs")
            check(spec_a != spec_c, f"{workload}: another seed, other inputs")


def pt_xi_by_eig(entries_si):
    """Smallest symplectic eigenvalue of the partial transpose, by mpmath.eig."""
    g = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in entries_si])
    t = mpmath.diag([1, 1, 1, -1])
    j = mpmath.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    ev, _ = mpmath.eig(j * (t * g * t))
    return min(abs(e) for e in ev)


def check_oracles_sound():
    import cvopo
    from cvopo.optimize import apply_waveplate_sequence

    for sigma, omega, eta, coupled in (
        (0.6, 0.4, 0.8, None),
        (0.9, 0.0, 1.0, None),
        (0.75, 1.3, 0.9, (1.1, 0.4, 4.2)),
        (0.99, 0.05, 0.97, (0.3, 0.9, 1.5)),
    ):
        theta, v1, v2 = coupled or (0.0, 1.0, 1.0)
        pm = workloads.coupled_entries_pm(sigma, omega, eta, theta, v1, v2)
        if coupled is None:  # the ideal state: A- = diag(V_sq, V_anti)
            pm = workloads.coupled_entries_pm(sigma, omega, 1.0, 0.0, 1.0, 1.0)
            lo, hi = (1 - sigma) ** 2 + omega**2, (1 + sigma) ** 2 + omega**2
            pm[2:, 2:] = np.diag([lo / hi, hi / lo])
            pm = eta * pm + (1 - eta) * np.eye(4)
        si = workloads.to_other_basis(pm)
        by_eig = pt_xi_by_eig(si)
        closed = oracles.sweep_point(sigma, omega, eta, coupled)["log_negativity"]
        doc = oracles.matrix_report(si, "signal_idler")["criteria"]["xi"]
        check(
            abs(float(closed) - float(oracles.e_n_of(by_eig))) < 1e-10 and abs(doc / by_eig - 1) < 1e-10,
            f"xi oracles agree with mpmath.eig at sigma={sigma}, coupled={coupled is not None}",
        )
    pm = workloads.coupled_entries_pm(0.8, 0.2, 0.9, 0.7, 0.5, 3.0)
    si = workloads.to_other_basis(pm)
    ours = workloads.waveplate_scramble(si, 0.3, 1.1)
    theirs = apply_waveplate_sequence(cvopo.make_covariance(si, cvopo.ModeBasis.SIGNAL_IDLER), 0.3, 1.1)
    check(np.allclose(ours, theirs.entries, rtol=0, atol=1e-12), "waveplate scramble = apply_waveplate_sequence")


def _call(argv):
    import cvopo.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cvopo.cli.main(argv)
    return [rc, out.getvalue(), err.getvalue()]


def _replace_cell(record, row, col, fn):
    rec = copy.deepcopy(record)
    lines = rec["calls"][0][1].splitlines()
    cells = lines[row].split(",")
    k = oracles.SWEEP_COLUMNS.index(col)
    cells[k] = repr(fn(float(cells[k])))
    lines[row] = ",".join(cells)
    rec["calls"][0][1] = "\n".join(lines) + "\n"
    return rec


def check_sweep_oracle():
    spec = workloads.generate("sweep", 3, Path("."), smoke=True)
    oracle = oracles.SweepOracle(spec["requests"])
    index = next(i for i, r in enumerate(spec["requests"]) if not r["probe"])
    record = {"calls": [_call(spec["requests"][index]["argv"])]}
    check(oracle.check(index, record).ok, "sweep oracle accepts the real output")
    xi_bump = _replace_cell(record, 5, "log_negativity", lambda e: e - math.log2(1 + 1e-3))
    check(not oracle.check(index, xi_bump).ok, "sweep oracle flags xi x (1 + 1e-3)")
    v_bump = _replace_cell(record, 5, "v_sq", lambda v: v * (1 + 1e-6))
    check(not oracle.check(index, v_bump).ok, "sweep oracle flags v_sq x (1 + 1e-6)")
    failed = copy.deepcopy(record)
    failed["calls"][0][0] = 3
    check(not oracle.check(index, failed).ok, "sweep oracle flags exit code 3")


def check_analyze_oracle():
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        spec = workloads.generate("analyze", 3, workdir, smoke=True)
        _call(["fixtures", "--write", str(workdir / "fixtures")])
        (workdir / "out").mkdir()
        oracle = oracles.AnalyzeOracle(spec["requests"], workdir)

        def run(index):
            req = spec["requests"][index]
            doc = str(workdir / req["doc"])
            out = workdir / "out" / f"{index}.json"
            calls = [_call(["criteria", doc]), _call(["criteria", doc, "--format", "csv"]),
                     _call(["optimize", doc, "--out", str(out)])]  # fmt: skip
            return {"calls": calls, "out": out.read_text() if out.exists() else None}

        for family in ("fixture", "coupled", "scrambled", "bad"):
            for index, req in enumerate(spec["requests"]):
                if req["family"] == family:
                    check(oracle.check(index, run(index)).ok, f"analyze oracle accepts {req['doc']}")
        a1a2 = next(i for i, r in enumerate(spec["requests"]) if r["doc"].endswith("a1a2.json"))
        record = run(a1a2)
        report = json.loads(record["calls"][0][1])
        report["criteria"]["xi"] *= 1 + 1e-3
        bumped = copy.deepcopy(record)
        bumped["calls"][0][1] = json.dumps(report)
        check(not oracle.check(a1a2, bumped).ok, "analyze oracle flags xi x (1 + 1e-3)")
        opt = json.loads(record["calls"][2][1])
        opt["e_n_after"] = opt["e_n_max"] + 1e-4
        bumped = copy.deepcopy(record)
        bumped["calls"][2][1] = json.dumps(opt)
        check(not oracle.check(a1a2, bumped).ok, "analyze oracle flags e_n_after above E_N^max")
        opt["e_n_after"] = opt["e_n_max"] - 1e-4
        bumped["calls"][2][1] = json.dumps(opt)
        check(not oracle.check(a1a2, bumped).ok, "analyze oracle flags a missed passive bound")
        bad = next(i for i, r in enumerate(spec["requests"]) if r["family"] == "bad")
        record = run(bad)
        record["calls"][1][0] = 0
        check(not oracle.check(bad, record).ok, "analyze oracle flags exit 0 on an invalid input")


def check_condprep_oracle():
    spec = workloads.generate("condprep_bands", 3, Path("."), smoke=True)
    oracle = oracles.CondprepOracle(spec["requests"])
    record = {"calls": [_call(spec["requests"][0]["argv"])]}
    check(oracle.check(0, record).ok, "condprep oracle accepts the real output")
    doc = json.loads(record["calls"][0][1])
    band = doc["per_band"][4]
    band["fano"] += 10 * band["fano_stderr"]
    band["fano_stderr"] = band["fano"] * math.sqrt(2.0 / (band["count"] - 1))
    bumped = copy.deepcopy(record)
    bumped["calls"][0][1] = json.dumps(doc)
    check(not oracle.check(0, bumped).ok, "condprep oracle flags a Fano estimate off by 10 stderr")
    doc = json.loads(record["calls"][0][1])
    doc["n_selected"] += 1
    bumped["calls"][0][1] = json.dumps(doc)
    check(not oracle.check(0, bumped).ok, "condprep oracle flags band counts not summing to n_selected")
    doc = json.loads(record["calls"][0][1])
    for b in doc["per_band"]:
        b["count"] = int(b["count"] * 1.2)
        b["success_rate"] = b["count"] / doc["n_samples"]
    doc["n_selected"] = sum(b["count"] for b in doc["per_band"])
    doc["success_rate"] = doc["n_selected"] / doc["n_samples"]
    bumped["calls"][0][1] = json.dumps(doc)
    check(not oracle.check(0, bumped).ok, "condprep oracle flags success rates 20% off the band probability")


def check_smoke_runs():
    for trace in ("0", "1"):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
             "--seconds", "0.5", "--trace", trace, "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )  # fmt: skip
        elapsed = time.monotonic() - start
        check(proc.returncode == 0, f"smoke run, trace {trace}: exit 0 ({proc.stderr.strip()[-300:]})")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        names = {k.split(".", 1)[0] for k in result["metrics"]}
        check(names == set(workloads.WORKLOADS) and result["correct"], f"smoke run, trace {trace}: all four workloads correct")
        print(f"     trace {trace}: {elapsed:.1f} s for four workloads")


def main() -> int:
    check_inputs_pure()
    check_oracles_sound()
    check_sweep_oracle()
    check_analyze_oracle()
    check_condprep_oracle()
    check_smoke_runs()
    print("all self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

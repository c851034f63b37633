"""cvopo benchmark: one workload run, measured end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout (it imports ``cvopo`` from
``src/``).  For each run it generates the workload's inputs from the seed,
spawns fresh child processes (``child.py``) with BLAS threads pinned to 1 to
measure set-up time, runs the closed-loop client in one of them, checks
every output against the oracles in ``oracles.py`` and prints one line per
metric, a provenance line, and as the last line the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  ``--workload all`` runs every
workload, each in its own ``run.py`` process; ``--smoke`` shrinks the inputs
so that runs take a few seconds.  See README.md for the rationale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: set-up is measured by this many probe children before the workload child
#: and as many after it, plus the workload child itself; the median is
#: reported, so a slow episode of the machine must span the run to move it
SETUP_PROBES_EACH_SIDE = 4
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150.0
#: latency_p90_ms is reported (in the text lines) only with this many requests
P90_MIN_REQUESTS = 100

#: the throughput metric under its workload-specific name, and its work units
WORK_NAMES = {
    "sweep": ("points_per_s", "grid points"),
    "analyze": ("states_per_s", "matrix documents"),
    "condprep_bands": ("msamples_per_s", "1e6 samples"),
    "condprep_stream": ("msamples_per_s", "1e6 samples"),
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
SIGMA_BINS = (0.0, 0.9, 0.95, 0.97, 0.98, 0.985, 0.99, 0.995, 1.0)

#: The timing metrics are best-of-k: every distinct request of the pool is
#: sent k times in a run (k ~ 50-130 in 40 s), and each contributes its fastest
#: latency.  The machine is shared, and other tenants slow it by up to ~70%,
#: with the median request ~1.7x the fastest; the fastest of k repetitions
#: spread over the run is the stable estimate of a request's own cost (the
#: all-request median and p90 are printed alongside).


def sigma_bin_names():
    return [
        f"sweep.sigma_bin_{lo:.3f}-{hi:.3f}.failed_frac"
        for lo, hi in zip(SIGMA_BINS, SIGMA_BINS[1:])
    ]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    from spans import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "1/req"
        units[f"{name}.self_ms"] = "ms/req"
    units.update(
        {
            "criteria.numerical_failures": "1/req",
            "optimize.evaluations_per_call": "count",
            "condprep.blocks_sampled": "1/req",
            "condprep.bytes_scanned_computed": "B/req",
            "condprep.selected_ratio": "ratio",
            "setup.import_ms": "ms",
            "trace.overhead_ratio": "ratio",
            "trace.requests": "count",
            "sweep.probe_failed_frac": "ratio",
        }
    )
    units.update({name: "ratio" for name in sigma_bin_names()})
    return units


def _spawn_child(args: list[str], timeout: float) -> tuple[int, str, str]:
    env = dict(os.environ, **CHILD_ENV)
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--spawn", repr(spawn)]
    try:
        proc = subprocess.run(
            cmd + args, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return -1, "", f"child timed out after {timeout:.0f} s"
    return proc.returncode, proc.stdout, proc.stderr


def _child_summary(rc, out, err) -> dict:
    if rc != 0:
        raise RuntimeError(f"child exited {rc}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _probe_setup(count: int) -> list[float]:
    return [
        _child_summary(*_spawn_child(["--mode", "probe"], 60.0))["setup_s"] for _ in range(count)
    ]


def provenance(workload: str, seed: int, child: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": child.get("python"),
        "numpy": child.get("numpy"),
        "cvopo": child.get("cvopo"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "oracle_tolerances": oracles.TOLERANCES,
    }


def percentile(values, q):
    """Nearest-rank percentile; failed requests enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workdir = WORK / f"run-{os.getpid()}-{workload}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        spec = workloads.generate(workload, seed, workdir, smoke)
        (workdir / "requests.json").write_text(json.dumps(spec), encoding="utf-8")

        probes = 0 if smoke else SETUP_PROBES_EACH_SIDE
        setup = _probe_setup(probes)
        child_args = ["--mode", "run", "--workdir", str(workdir), "--seconds", repr(seconds)]
        child = _child_summary(
            *_spawn_child(child_args + ["--trace", str(int(trace))], CHILD_TIMEOUT_S)
        )
        setup += [child["setup_s"]] + _probe_setup(probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

        requests = spec["requests"]
        oracle = oracles.make_oracle(workload, requests, workdir)
        records = []
        with open(workdir / "outputs.jsonl", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                verdict = oracle.check(rec["pool"], rec)
                records.append(
                    {
                        "pool": rec["pool"],
                        "lat": rec["lat"],
                        "phase": rec["phase"],
                        "verdict": verdict,
                    }
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return summarise(workload, seed, trace, setup, child, records, requests, peak_rss_mb)


def _best_ratio(records) -> float:
    """Traced over untraced time of the same requests, each at its fastest."""
    fastest = ({}, {})
    for r in records:
        if r["phase"] == 2:
            continue
        phase = fastest[r["phase"]]
        phase[r["pool"]] = min(phase.get(r["pool"], math.inf), r["lat"])
    both = fastest[0].keys() & fastest[1].keys()
    untraced = sum(fastest[0][k] for k in both)
    return sum(fastest[1][k] for k in both) / untraced if untraced else 0.0


def summarise(workload, seed, trace, setup, child, records, requests, peak_rss_mb) -> dict:
    # phase 2 holds the sweep's defect probes, sent once each outside the
    # timed loop: a probe failure is the known defect (ROADMAP item 2) and is
    # reported by sigma bin and as sweep.probe_failed_frac, not as a failed
    # operation; every other request must pass its oracle
    probes = [r for r in records if r["phase"] == 2]
    records = [r for r in records if r["phase"] != 2]
    attempted = len(records)
    failures = [r for r in records if not r["verdict"].ok]
    probe_failures = [r for r in probes if not r["verdict"].ok]
    correct = attempted > 0 and not failures
    timed = [r for r in records if r["phase"] == 0]
    busy = sum(r["lat"] for r in timed)
    work = sum(r["verdict"].work for r in timed)
    best: dict[int, list] = {}  # pool index -> [fastest latency, its work, fastest passing latency]
    for r in timed:
        entry = best.setdefault(r["pool"], [math.inf, 0.0, math.inf])
        if r["lat"] < entry[0]:
            entry[0], entry[1] = r["lat"], r["verdict"].work
        if r["verdict"].ok:
            entry[2] = min(entry[2], r["lat"])
    best_rate = sum(e[1] for e in best.values()) / sum(e[0] for e in best.values()) if best else 0.0
    best_ms = [e[2] * 1e3 for e in best.values()]
    reps = len(timed) / max(len(best), 1)
    lat_ms = [r["lat"] * 1e3 if r["verdict"].ok else math.inf for r in timed]
    failed_frac = len(failures) / attempted if attempted else 1.0

    points, failed_points = [0] * (len(SIGMA_BINS) - 1), [0] * (len(SIGMA_BINS) - 1)
    for r in records + probes:
        for sigmas, counts in ((r["verdict"].sigmas, points), (r["verdict"].failed_sigmas, failed_points)):
            for s in sigmas:
                counts[min(sum(s >= edge for edge in SIGMA_BINS[1:]), len(counts) - 1)] += 1
    histogram = {
        name: (failed_points[k] / points[k] if points[k] else 0.0)
        for k, name in enumerate(sigma_bin_names())
    }

    lines = []
    work_name, work_unit = WORK_NAMES[workload]
    n = len(timed)
    if not trace:
        units = END_TO_END_UNITS
        metrics = {
            "setup_s": statistics.median(setup),
            "work_per_s": best_rate,
            "latency_p50_ms": percentile(best_ms, 0.5) if best_ms else math.inf,
            "peak_rss_mb": peak_rss_mb,
        }
        lines += [
            f"setup_s          {metrics['setup_s']:.4f} s      median of {len(setup)} spawns, "
            f"spawn -> cvopo and cvopo.cli imported",
            f"{work_name:<16} {metrics['work_per_s']:.4f} 1/s    work_per_s: oracle-passing "
            f"{work_unit} per second over the {len(best)} distinct requests, best of ~{reps:.1f}",
            f"latency_p50_ms   {metrics['latency_p50_ms']:.4f} ms     median over {len(best)} "
            f"distinct requests of the best of ~{reps:.1f}; failed = +inf",
            f"all requests     n={n}: {work / busy if busy else 0.0:.4f} {work_unit}/s, "
            f"latency p50 {percentile(lat_ms, 0.5):.4f} ms"
            + (f", p90 {percentile(lat_ms, 0.9):.4f} ms" if n >= P90_MIN_REQUESTS else ""),
            f"failed_frac      {failed_frac:.6f}        {len(failures)}/{attempted} requests",
            f"peak_rss_mb      {peak_rss_mb:.2f} MB     max RSS of the workload child",
        ]
    else:
        layers = dict(child["layers"])
        layers.update(histogram)
        layers["setup.import_ms"] = child["import_s"] * 1e3
        layers["trace.overhead_ratio"] = _best_ratio(records)
        layers["trace.requests"] = float(child["traced_requests"])
        layers["sweep.probe_failed_frac"] = len(probe_failures) / len(probes) if probes else 0.0
        units = per_layer_units()
        metrics = {name: layers.get(name, 0.0) for name in units}
        lines.append(
            f"traced {child['traced_requests']} requests in {child['traced_busy_s']:.3f} s; the "
            f"same requests untraced took {child['untraced_busy_s']:.3f} s; overhead ratio, "
            f"best of k per request: {layers['trace.overhead_ratio']:.3f}"
        )
        if workload.startswith("condprep"):
            n_samples = requests[0]["cfg"]["n_samples"]
            scanned = layers["condprep.bytes_scanned_computed"]
            lines.append(
                f"bytes_scanned_computed {scanned:.6g} B/req = {scanned / (8 * n_samples):.6g} x "
                f"one scan of the {n_samples}-sample idler record (a single-band run)"
            )
        if child["missing_spans"]:
            lines.append(f"functions not found (reported as 0): {', '.join(child['missing_spans'])}")
        for name, value in metrics.items():
            if value:
                lines.append(f"{name:<48} {value:.6g} {units[name]}")

    if workload == "sweep":
        lines.append(
            f"defect probes: {len(probe_failures)}/{len(probes)} failed (near-threshold, "
            f"near-lossless; sent once each, untimed, not counted in failed)"
        )
        lines.append(
            "failed points by sigma bin: "
            + ", ".join(
                f"[{lo:.3f},{hi:.3f}) {failed_points[k]}/{points[k]}"
                for k, (lo, hi) in enumerate(zip(SIGMA_BINS, SIGMA_BINS[1:]))
            )
        )
    for r in failures[:3]:
        lines.append(f"failed request: {r['verdict'].reason}")
    for r in probe_failures[:3]:
        lines.append(f"failed defect probe: {r['verdict'].reason}")

    return {
        "lines": [f"{workload} {line}" for line in lines],
        "provenance": provenance(workload, seed, child),
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": len(failures),
            # +inf (a median over failed requests) is not valid JSON: write 1e300
            "metrics": {
                k: {"value": v if math.isfinite(v) else 1e300, "unit": units[k]}
                for k, v in metrics.items()
            },
        },
    }


def _run_all(args) -> int:
    """Every workload, each in its own run.py process (clean RUSAGE_CHILDREN)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for self-checks")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cvopo" / "__init__.py").is_file():
        print(f"perfbench: no cvopo sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print("\n".join(out["lines"]))
    print(json.dumps({"provenance": out["provenance"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

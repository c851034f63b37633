"""One workload run in a fresh process: a single closed-loop client.

Started by ``run.py``.  It imports ``cvopo`` from the checkout's ``src``,
reports the time from its own spawn until the first request could be
issued, then calls ``cvopo.cli.main([...])`` in-process, one request after
the other, capturing stdout and stderr.  Each request's outputs go to a
JSON-lines file for the parent to check against its oracles; a summary
(set-up time, versions, per-layer numbers of a traced run) goes to stdout.

Modes:
  --mode probe   import only, print the set-up time and exit.
  --mode run     set up, one warm-up request, each defect probe of the pool
                 once (untimed; see workloads.SWEEP_PROBES), then the
                 timed loop over the other requests.  With --trace 1 the loop
                 runs the same requests twice, first untraced and then traced,
                 so the tracing overhead is measured on identical work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def _capture(main, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:
        return [None, out.getvalue(), traceback.format_exc(limit=3)[-800:]]
    return [rc, out.getvalue(), err.getvalue()[-800:]]


class Client:
    def __init__(self, cli, workload: str, workdir: Path, requests: list[dict]):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.requests = requests
        self.probes = [i for i, r in enumerate(requests) if r.get("probe")]
        self.timed = [i for i, r in enumerate(requests) if not r.get("probe")]
        (workdir / "out").mkdir(exist_ok=True)

    def issue(self, index: int) -> dict:
        """Send pool request ``index``; returns the record with its latency."""
        req = self.requests[index]
        if self.workload != "analyze":
            t0 = time.perf_counter()
            call = _capture(self.cli.main, req["argv"])
            latency = time.perf_counter() - t0
            return {"pool": index, "lat": latency, "calls": [call]}
        doc = str(self.workdir / req["doc"])
        out_path = self.workdir / "out" / Path(req["doc"]).name
        if out_path.exists():
            out_path.unlink()
        t0 = time.perf_counter()
        calls = [
            _capture(self.cli.main, ["criteria", doc]),
            _capture(self.cli.main, ["criteria", doc, "--format", "csv"]),
            _capture(self.cli.main, ["optimize", doc, "--out", str(out_path)]),
        ]
        latency = time.perf_counter() - t0
        out_text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
        return {"pool": index, "lat": latency, "calls": calls, "out": out_text}


def _timed_loop(client, sink, phase, seconds=None, count=None, recorder=None, seq0=0):
    """Closed loop over the non-probe requests, in pool order; stops after
    ``seconds`` of loop wall time or after ``count`` requests.  Returns
    (requests, summed latency)."""
    n, busy = 0, 0.0
    start = time.perf_counter()
    order = client.timed
    while True:
        if count is not None and n >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        if recorder is not None:
            recorder.request = seq0 + n
        record = client.issue(order[n % len(order)])
        record["seq"] = seq0 + n
        record["phase"] = phase
        busy += record["lat"]
        sink.write(json.dumps(record) + "\n")
        n += 1
    return n, busy


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--spawn", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--workdir")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    root = Path(args.root)
    src = root / "src"
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import cvopo
    import cvopo.cli

    import_s = time.perf_counter() - t0
    setup_s = time.monotonic() - args.spawn
    if not Path(cvopo.__file__).resolve().is_relative_to(src.resolve()):
        print(f"cvopo imported from {cvopo.__file__}, not from {src}", file=sys.stderr)
        return 3
    summary = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "probe":
        print(json.dumps(summary))
        return 0

    import numpy

    workdir = Path(args.workdir)
    spec = json.loads((workdir / "requests.json").read_text(encoding="utf-8"))
    workload = spec["workload"]
    if workload == "analyze":
        rc, _, err = _capture(cvopo.cli.main, ["fixtures", "--write", str(workdir / "fixtures")])
        if rc != 0:
            print(f"cannot write the bundled fixtures: {err}", file=sys.stderr)
            return 3
    client = Client(cvopo.cli, workload, workdir, spec["requests"])
    client.issue(client.timed[0])  # warm-up, not timed or checked

    summary.update(
        {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "cvopo": getattr(cvopo, "__version__", None),
        }
    )
    with open(workdir / "outputs.jsonl", "w", encoding="utf-8") as sink:
        for index in client.probes:  # checked and reported, not timed or counted
            sink.write(json.dumps(dict(client.issue(index), seq=-1, phase=2)) + "\n")
        if not args.trace:
            n, busy = _timed_loop(client, sink, 0, seconds=args.seconds)
            summary.update({"requests": n, "busy_s": busy})
        else:
            from spans import SpanRecorder

            n0, busy0 = _timed_loop(client, sink, 0, seconds=args.seconds / 2.0)
            recorder = SpanRecorder()
            recorder.install()
            n1, busy1 = _timed_loop(client, sink, 1, count=n0, recorder=recorder, seq0=n0)
            recorder.save(workdir.parent / f"spans-{workload}.npz")
            summary.update(
                {
                    "requests": n0 + n1,
                    "busy_s": busy0 + busy1,
                    "untraced_busy_s": busy0,
                    "traced_busy_s": busy1,
                    "traced_requests": n1,
                    "layers": recorder.layer_metrics(n1),
                    "missing_spans": recorder.missing,
                }
            )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

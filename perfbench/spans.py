"""Span recorder for the traced run.

Wraps the public functions of each ``cvopo`` module in *every* ``cvopo``
namespace that binds them (``cli`` imports ``classify`` directly, ``optimize``
imports ``log_negativity``), so nested calls are recorded wherever they are
looked up.  Each span keeps its name, start, end, parent span and request
id in flat arrays; self time is the span's duration minus the part covered
by its direct children, accumulated as the spans close.
"""

from __future__ import annotations

import sys
import time
from array import array

#: module -> public functions recorded in the traced run.
TRACED = {
    "gaussian": ("make_covariance", "change_basis_pm", "is_physical", "apply_passive", "add_losses"),
    "criteria": ("classify", "log_negativity", "max_log_negativity"),
    "opo": ("below_threshold_covariance", "coupled_covariance"),
    "optimize": ("optimize_nonlocal_phase", "apply_waveplate_sequence"),
    "condprep": ("run_conditional_prep", "conditional_select", "sample_photocurrents", "sample_block"),
    "formats": ("load_matrix", "save_matrix", "dumps_canonical", "report_to_csv"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

#: Counters recorded at layer boundaries (see ``_on_return``).
COUNTERS = (
    "numerical_failures",
    "optimize_calls",
    "optimize_evaluations",
    "select_bytes",
    "selected",
    "drawn",
)


class SpanRecorder:
    def __init__(self):
        self.name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.s_name = array("H")
        self.s_parent = array("l")
        self.s_req = array("l")
        self.s_start = array("d")
        self.s_end = array("d")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def install(self) -> None:
        """Replace every traced function in every loaded cvopo namespace."""
        modules = [m for n, m in sys.modules.items() if n == "cvopo" or n.startswith("cvopo.")]
        for name in SPAN_NAMES:
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"cvopo.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    setattr(mod, fn_name, wrapper)

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.s_start)
            self.s_name.append(nid)
            self.s_parent.append(stack[-1][0] if stack else -1)
            self.s_req.append(self.request)
            self.s_start.append(0.0)
            self.s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "NumericalFailureError" and not getattr(
                    exc, "_perfbench_counted", False
                ):
                    exc._perfbench_counted = True
                    self.counts["numerical_failures"] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self.s_start[idx] = start
                self.s_end[idx] = end
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            self._on_return(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _on_return(self, name, args, kwargs, result) -> None:
        counts = self.counts
        if name == "optimize.optimize_nonlocal_phase":
            counts["optimize_calls"] += 1
            counts["optimize_evaluations"] += len(getattr(result, "trace", ()))
        elif name == "condprep.conditional_select":
            idler = args[1] if len(args) > 1 else kwargs.get("i_i")
            counts["select_bytes"] += int(getattr(idler, "nbytes", 0))
            counts["selected"] += int(getattr(result, "size", 0))
        elif name == "condprep.sample_block":
            counts["drawn"] += len(result[0])

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-request calls and self time for every span, plus the counts."""
        per = 1.0 / max(requests, 1)
        out: dict[str, float] = {}
        for name, nid in self.name_id.items():
            out[f"{name}.calls"] = self.calls[nid] * per
            out[f"{name}.self_ms"] = self.self_s[nid] * 1e3 * per
        c = self.counts
        out["criteria.numerical_failures"] = c["numerical_failures"] * per
        out["optimize.evaluations_per_call"] = (
            c["optimize_evaluations"] / c["optimize_calls"] if c["optimize_calls"] else 0.0
        )
        out["condprep.blocks_sampled"] = self.calls[self.name_id["condprep.sample_block"]] * per
        out["condprep.bytes_scanned_computed"] = c["select_bytes"] * per
        out["condprep.selected_ratio"] = c["selected"] / c["drawn"] if c["drawn"] else 0.0
        return out

    def save(self, path) -> None:
        """Write every span (name id, parent, request id, start, end) as .npz."""
        import numpy as np

        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.s_name, dtype=np.uint16),
            parent=np.frombuffer(self.s_parent, dtype=np.int64),
            request=np.frombuffer(self.s_req, dtype=np.int64),
            start=np.frombuffer(self.s_start, dtype=np.float64),
            end=np.frombuffer(self.s_end, dtype=np.float64),
        )

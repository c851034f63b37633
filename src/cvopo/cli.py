"""Command-line surface: criteria, opo-sweep, condprep, optimize, fixtures.

stdout carries data only; diagnostics go to stderr.  Exit codes: 0 success,
2 parse/config error, 3 unphysical input or numerical failure, 4 unwritable
fixture directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .condprep import CondPrepConfig, run_conditional_prep
from .criteria import classify, eof, gemellity_from_covariance, log_negativity, separability
from .errors import CvopoError, FormatError
from .fixtures import CONDPREP_REFERENCE, fixture_names, write_fixtures
from .formats import (
    condprep_result_to_document,
    document_to_condprep_config,
    dumps_canonical,
    load_matrix,
    loads_document,
    report_document,
    report_to_csv,
    save_matrix,
    sha256_of_file,
)
from .gaussian import ModeBasis, is_physical, to_basis
from .opo import CoupledStateParams, OpoParams, below_threshold_covariance, coupled_covariance
from .optimize import optimize_nonlocal_phase

SWEEP_COLUMNS = (
    "sigma",
    "omega",
    "v_sq",
    "v_anti",
    "gemellity_x",
    "separability",
    "eof_ebits",
    "log_negativity",
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNPHYSICAL = 3
EXIT_UNWRITABLE = 4


def _err(message: str) -> None:
    print(f"cvopo: {message}", file=sys.stderr)


def _parse_range(text: str, name: str) -> list[float]:
    """Either a single value or an inclusive linspace 'start:stop:count'."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("count must be >= 1")
            return [float(v) for v in np.linspace(start, stop, count)]
    except ValueError as exc:
        raise FormatError(f"bad --{name} range {text!r}: {exc}") from exc
    raise FormatError(f"bad --{name} range {text!r}: use VALUE or START:STOP:COUNT")


def _load_physical_matrix(path, allow_unphysical: bool = False):
    gamma, metadata = load_matrix(path)
    ok, nu_min = is_physical(gamma)
    if not ok and not allow_unphysical:
        raise _Unphysical(
            f"{path}: smallest symplectic eigenvalue {nu_min:.6g} violates the "
            f"uncertainty bound nu >= 1"
        )
    return gamma, metadata


class _Unphysical(CvopoError):
    pass


def _cmd_criteria(args) -> int:
    gamma, _ = _load_physical_matrix(args.matrix, args.allow_unphysical)
    report = classify(gamma)
    doc = report_document(report, gamma.basis, sha256_of_file(args.matrix))
    if args.format == "csv":
        sys.stdout.write(report_to_csv(doc))
    else:
        sys.stdout.write(dumps_canonical(doc))
    return EXIT_OK


def _cmd_opo_sweep(args) -> int:
    sigmas = _parse_range(args.sigma, "sigma")
    omegas = _parse_range(args.omega, "omega")
    coupled = None
    if args.coupled:
        fields = args.coupled.split(",")
        if len(fields) != 3:
            raise FormatError(f"--coupled expects THETA,V1,V2, got {args.coupled!r}")
        try:
            coupled = tuple(float(v) for v in fields)
        except ValueError as exc:
            raise FormatError(f"bad --coupled value: {exc}") from exc

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for sigma in sigmas:
        for omega in omegas:
            base = OpoParams(sigma=sigma, omega=omega, eta=args.eta)
            if coupled is None:
                state = below_threshold_covariance(base)
            else:
                theta, v1, v2 = coupled
                state = coupled_covariance(
                    CoupledStateParams(base=base, tilt_theta=theta, v_minus=(v1, v2))
                )
            pm = to_basis(state, ModeBasis.PLUS_MINUS)
            sep = separability(state)
            writer.writerow(
                [
                    repr(float(sigma)),
                    repr(float(omega)),
                    repr(float(pm.entries[1, 1])),
                    repr(float(pm.entries[0, 0])),
                    repr(gemellity_from_covariance(state, "x_difference")),
                    repr(sep),
                    repr(eof(sep)),
                    repr(log_negativity(state)[0]),
                ]
            )
    sys.stdout.write(buf.getvalue())
    return EXIT_OK


def _condprep_config(args) -> CondPrepConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = document_to_condprep_config(loads_document(fh.read()))
    else:
        base = CONDPREP_REFERENCE
    overrides = {}
    for attr, flag in (
        ("fano_signal", args.fano_signal),
        ("fano_idler", args.fano_idler),
        ("gemellity", args.gemellity),
        ("band_center", args.band_center),
        ("band_halfwidth", args.band_halfwidth),
        ("band_convention", args.band_convention),
        ("n_samples", args.samples),
        ("seed", args.seed),
        ("n_bands", args.bands),
    ):
        if flag is not None:
            overrides[attr] = flag
    if args.fano is not None:
        overrides.setdefault("fano_signal", args.fano)
        overrides.setdefault("fano_idler", args.fano)
    if not overrides:
        return base
    fields = {k: getattr(base, k) for k in CondPrepConfig.__dataclass_fields__}
    fields.update(overrides)
    return CondPrepConfig(**fields)


class _SelectedDump:
    """``run_conditional_prep`` sink writing (band, value) CSV rows.

    The file is opened on the first block, so a run rejected before
    sampling leaves no file behind.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None

    def __call__(self, bands, values) -> None:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8", newline="")
            self._writer = csv.writer(self._fh, lineterminator="\n")
            self._writer.writerow(["band", "selected_signal"])
        self._writer.writerows(zip(bands.tolist(), map(repr, values.tolist())))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _cmd_condprep(args) -> int:
    cfg = _condprep_config(args)
    dump = _SelectedDump(args.dump_selected) if args.dump_selected else None
    try:
        result = run_conditional_prep(cfg, dump)
    finally:
        if dump is not None:
            dump.close()
    if result.empty_selection:
        _err("empty selection: no idler samples fell inside the band(s)")
    sys.stdout.write(dumps_canonical(condprep_result_to_document(result, cfg)))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    gamma, _ = _load_physical_matrix(args.matrix)
    outcome = optimize_nonlocal_phase(gamma)
    doc = {
        "schema_version": "cvopo.optimize.v1",
        "tool_version": __version__,
        "input_sha256": sha256_of_file(args.matrix),
        "best_phase_rad": outcome.best_phase,
        "e_n_before": outcome.e_n_before,
        "e_n_after": outcome.e_n_after,
        "e_n_max": outcome.e_n_max,
        "evaluations": len(outcome.trace),
    }
    if args.out:
        state = (
            outcome.state_signal_idler
            if gamma.basis is ModeBasis.SIGNAL_IDLER
            else outcome.state_plus_minus
        )
        save_matrix(
            args.out,
            state,
            {
                "description": "state after the optimal A- phase shift",
                "best_phase_rad": outcome.best_phase,
                "source_sha256": doc["input_sha256"],
            },
        )
    sys.stdout.write(dumps_canonical(doc))
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    if args.list:
        for name in fixture_names():
            print(name)
        return EXIT_OK
    try:
        paths = write_fixtures(args.write)
    except OSError as exc:
        _err(f"cannot write fixtures to {args.write}: {exc}")
        return EXIT_UNWRITABLE
    for path in paths:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvopo",
        description="Two-mode Gaussian states of a type-II OPO: criteria, "
        "conditional preparation, entanglement extraction.",
    )
    parser.add_argument("--version", action="version", version=f"cvopo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("criteria", help="evaluate every correlation criterion on a matrix file")
    p.add_argument("matrix", help="matrix document (JSON)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--allow-unphysical",
        action="store_true",
        help="report on matrices that violate the uncertainty bound",
    )
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("opo-sweep", help="sweep the OPO model and emit plot-ready CSV")
    p.add_argument("--sigma", required=True, help="pump ratio: VALUE or START:STOP:COUNT")
    p.add_argument("--omega", default="0", help="noise frequency: VALUE or START:STOP:COUNT")
    p.add_argument("--eta", type=float, default=1.0, help="detection efficiency")
    p.add_argument("--coupled", help="THETA,V1,V2 for the coupled (tilted A-) family")
    p.set_defaults(func=_cmd_opo_sweep)

    p = sub.add_parser("condprep", help="Monte Carlo conditional preparation")
    p.add_argument("--config", help="condprep config document (JSON)")
    p.add_argument("--fano", type=float, help="set both Fano factors at once")
    p.add_argument("--fano-signal", type=float, dest="fano_signal")
    p.add_argument("--fano-idler", type=float, dest="fano_idler")
    p.add_argument("--gemellity", type=float)
    p.add_argument("--band-center", type=float, dest="band_center")
    p.add_argument("--band-halfwidth", type=float, dest="band_halfwidth")
    p.add_argument(
        "--band-convention", choices=("half_width", "full_width"), dest="band_convention"
    )
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--bands", type=int, help="number of non-overlapping selection bands")
    p.add_argument("--dump-selected", dest="dump_selected", help="write selected samples as CSV")
    p.set_defaults(func=_cmd_condprep)

    p = sub.add_parser("optimize", help="maximize E_N over the non-local A- phase shift")
    p.add_argument("matrix", help="matrix document (JSON)")
    p.add_argument("--out", help="write the transformed matrix document here")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("fixtures", help="list or write the bundled reference files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--write", metavar="DIR")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Unphysical as exc:
        _err(str(exc))
        return EXIT_UNPHYSICAL
    except FormatError as exc:
        _err(str(exc))
        return EXIT_PARSE
    except FileNotFoundError as exc:
        _err(str(exc))
        return EXIT_PARSE
    except CvopoError as exc:
        _err(f"{type(exc).__name__}: {exc}")
        return EXIT_UNPHYSICAL


if __name__ == "__main__":
    sys.exit(main())

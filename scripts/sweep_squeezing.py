#!/usr/bin/env python3
"""Write plot-ready sweep CSVs: pump-ratio sweep, frequency sweep, and the
twin-beam toy spectrum.

Usage: python scripts/sweep_squeezing.py [out_dir]
"""

import csv
import sys
from pathlib import Path

import numpy as np

from cvopo import sweep, twin_difference_spectrum, variance_to_db

SWEEP_HEADER = ["sigma", "omega", "v_sq", "v_anti", "v_sq_db", "separability",
                "eof_ebits", "log_negativity"]


def sweep_rows(sigmas, omegas, eta):
    """``cvopo.sweep`` (the same rows as ``cvopo opo-sweep``) with v_sq in dB."""
    columns = {name: values.tolist() for name, values in sweep(sigmas, omegas, eta).items()}
    columns["v_sq_db"] = [variance_to_db(v) for v in columns["v_sq"]]
    return zip(*(columns[name] for name in SWEEP_HEADER))


def write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)
    print(f"wrote {path}")


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("sweeps")
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "pump_sweep.csv",
        SWEEP_HEADER,
        sweep_rows(np.linspace(0.05, 0.98, 60), [0.0], eta=0.9),
    )
    write_csv(
        out / "frequency_sweep.csv",
        SWEEP_HEADER,
        sweep_rows([0.9], np.linspace(0.0, 5.0, 80), eta=0.9),
    )
    write_csv(
        out / "twin_spectrum.csv",
        ["omega", "noise_power", "noise_power_db"],
        (
            [w, twin_difference_spectrum(w, 0.893), variance_to_db(twin_difference_spectrum(w, 0.893))]
            for w in np.linspace(0.0, 5.0, 120)
        ),
    )


if __name__ == "__main__":
    main()

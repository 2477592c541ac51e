"""The noise-sweep benchmark table (reduced seed count).

Runs the adaptive scheme against the fixed-level baseline across the
four standard noise levels with a handful of seeds each, prints the
median-aggregated table, and writes the per-run rows as CSV. The full
20-seed sweep used by the acceptance suite runs the same way via

    fredreg table --out rows.csv
"""

import os
import tempfile

from fredreg import PAPER_NOISE_LEVELS, SolverConfig, rows_from_csv, run_table
from fredreg.experiment import format_summary, rows_to_csv

rows = run_table(
    config=SolverConfig(),
    levels=PAPER_NOISE_LEVELS,
    seeds=range(5),
    schemes="both",
    fixed_m=4,
)
print(format_summary(rows))
with tempfile.TemporaryDirectory() as tmp:
    out_path = os.path.join(tmp, "fredreg_rows.csv")
    with open(out_path, "w", newline="") as handle:
        handle.write(rows_to_csv(rows))

    print(f"\nwrote {len(rows)} rows to {out_path}")
    with open(out_path) as handle:
        parsed = rows_from_csv(handle.read())
print("CSV round-trip exact:", parsed == rows)

print("\nReading the table: as the noise level drops, the adaptive scheme")
print("iterates longer, its level rule admits finer spans, and the")
print("reconstruction error falls; at high noise it stops in spans a")
print("quarter the size of the fixed baseline at comparable accuracy.")

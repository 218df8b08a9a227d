"""End-to-end BER sweep at desk scale.

Runs all five receive strategies over an MSNR grid on a 64-antenna,
8-user scenario with a 30 dB dynamic range and 3-bit converters, prints the
BER table (the run time goes to stderr), and writes the CSV plus a gnuplot
script next to this file.

The command-line interface runs the same sweep:

    hdrmimo --bs-antennas 64 --ues 8 --clusters 8 --q-bits 3 --rho-db 30 \
            --msnr-start 4 --msnr-stop 16 --msnr-step 2 \
            --realizations 40 --symbols 100 --seed 1 --out results.csv
"""

import pathlib
import sys
import time

from hdrmimo import ExperimentConfig, emit_plot_script, run_sweep, write_csv

here = pathlib.Path(__file__).parent
cfg = ExperimentConfig(
    bs_antennas=64,
    ues=8,
    clusters=8,
    q_bits=3,
    rho_db=30.0,
    msnr_start=4.0,
    msnr_stop=16.0,
    msnr_step=2.0,
    realizations=40,
    symbols=100,
    seed=1,
)

start = time.perf_counter()
records = run_sweep(cfg)
# The wall time goes to stderr, so stdout repeats byte for byte.
elapsed = time.perf_counter() - start
print(f"swept {len(records)} points in {elapsed:.1f} s", file=sys.stderr)

grid = cfg.msnr_grid()
print("msnr [dB]   " + "".join(f"{m:9.0f}" for m in grid))
by_method = {}
for rec in records:
    by_method.setdefault(rec.method, []).append(rec.ber)
for method in cfg.methods:
    cells = "".join(f"{b:9.1e}" for b in by_method[method])
    print(f"{method:10s}  {cells}")

csv_path = here / "ber_sweep.csv"
plot_path = here / "ber_sweep.gp"
write_csv(records, str(csv_path))
emit_plot_script(records, str(plot_path), csv_path=csv_path.name)
print(f"\nwrote {csv_path.name} and {plot_path.name} (render: gnuplot {plot_path.name})")

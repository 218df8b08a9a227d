"""Near-far power control walkthrough.

Draws a synthetic multipath channel for a handful of users, applies the
min-rule power control to everyone except the strongest user, then dials
that user's gain so its receive power sits exactly 30 dB above the weakest.
Prints the receive powers at each stage so the control/boost mechanics are
visible.
"""

import numpy as np

from hdrmimo import ExperimentConfig, generate_channel, realize_channel
from hdrmimo.channel import apply_power_control

cfg = ExperimentConfig(bs_antennas=32, ues=6, clusters=4, rho_db=30.0)
rng = np.random.default_rng(42)

g = generate_channel(cfg, rng)
raw_db = 10 * np.log10(np.sum(np.abs(g) ** 2, axis=0))
print("raw receive power per user [dB]:")
print("  ", np.round(raw_db, 2))
print(f"  raw spread: {raw_db.max() - raw_db.min():.2f} dB")

strong = int(np.argmax(raw_db))
rest = np.delete(np.arange(cfg.ues), strong)
d_rest = apply_power_control(g, cfg.dr_limit_db, rest)
ctrl_db = raw_db[rest] + 20 * np.log10(d_rest)
print(f"\nuser {strong} is the strongest and skips power control")
print("controlled receive powers [dB]:")
print("  ", np.round(ctrl_db, 2))
print(
    f"  controlled spread: {ctrl_db.max() - ctrl_db.min():.2f} dB"
    f" (ceiling {cfg.dr_limit_db} dB)"
)

h = realize_channel(cfg, np.random.default_rng(42))
powers = np.sum(np.abs(h) ** 2, axis=0)
eff_db = 10 * np.log10(powers)
print("\nassembled effective channel (columns sorted by power) [dB]:")
print("  ", np.round(eff_db - eff_db.min(), 2))
print(f"  strongest vs weakest: {eff_db[0] - eff_db[-1]:.4f} dB (target {cfg.rho_db})")

wsu = realize_channel(cfg, np.random.default_rng(42), power_control_all=True)
wsu_db = 10 * np.log10(np.sum(np.abs(wsu) ** 2, axis=0))
print("\nfully power-controlled variant (no boosted user) [dB]:")
print("  ", np.round(wsu_db - wsu_db.min(), 2))

"""Per-cluster Householder isolation in action.

Builds a high dynamic range scenario, estimates the channel from pilots,
and designs both reflection variants: one from the strong user's estimated
channel, one from the dominant eigenvector of each cluster's receive
covariance. Prints how much of the strong user's energy lands on the first
output of every cluster, and verifies the two optimality identities the
designs are built on (isolated energy = ||a||^2, isolated power = lambda_1).
"""

import numpy as np

from hdrmimo import (
    ExperimentConfig,
    design_hr_iso,
    design_hr_max,
    apply_transform,
    estimate_from_training,
    generate_pilots,
    noise_variance_from_msnr,
    realize_channel,
    simulate_training,
)

cfg = ExperimentConfig(bs_antennas=64, ues=8, clusters=8, rho_db=30.0)
s = cfg.antennas_per_cluster
rng = np.random.default_rng(3)

h = realize_channel(cfg, rng)
noise = noise_variance_from_msnr(h, 10.0)
pilots = generate_pilots(cfg.ues)
y_train = simulate_training(h, pilots, noise, rng)
est = estimate_from_training(y_train, pilots, cfg.clusters)
print(f"strongest user (true column 0) estimated as column {est.strong_index}")

h_strong = est.h_hat[:, est.strong_index]
iso = design_hr_iso(h_strong, cfg.clusters)
hmax = design_hr_max(est.c_y_blocks)

h1 = h[:, 0]
# apply_transform overwrites its input, so each transform gets a copy.
print("\nstrong-user energy fraction on each cluster's first output:")
for name, t in (("no transform", None), ("channel-based", iso), ("covariance-based", hmax)):
    ht = h1 if t is None else apply_transform(t, h1.copy())
    first = np.array([abs(ht[c * s]) ** 2 for c in range(cfg.clusters)])
    cluster_tot = np.array(
        [np.sum(np.abs(ht[c * s : (c + 1) * s]) ** 2) for c in range(cfg.clusters)]
    )
    frac = first / cluster_tot
    print(f"  {name:17s} min {frac.min():.4f}  mean {frac.mean():.4f}")

# The reflector built from a vector a sends all of a's energy to output 1.
a = h_strong[:s]
out = apply_transform(iso, h_strong.copy())[:s]
print("\nisolated energy check (cluster 0):")
print(f"  |first output|^2 = {abs(out[0])**2:.6f}   ||a||^2 = {np.linalg.norm(a)**2:.6f}")

# The covariance-based reflector Q = I - 2 v v^H / ||v||^2 pins the
# cluster's top eigenvalue on output 1 of the transformed covariance.
block = est.c_y_blocks[0]
top = np.linalg.eigvalsh(block)[-1]
v = hmax.vectors[0]
q = np.eye(s, dtype=complex) - (2.0 / np.vdot(v, v).real) * np.outer(v, v.conj())
isolated = float(np.real(q[:, 0].conj() @ block @ q[:, 0]))
print("isolated power check (cluster 0):")
print(f"  e1^H Q C Q e1 = {isolated:.6f}   lambda_1 = {top:.6f}")

# Energy conservation: the transform is unitary per cluster.
y = rng.standard_normal(cfg.bs_antennas) + 1j * rng.standard_normal(cfg.bs_antennas)
print("\nunitarity:")
print(f"  ||y|| = {np.linalg.norm(y):.12f}")
print(f"  ||Fy|| = {np.linalg.norm(apply_transform(iso, y)):.12f}")

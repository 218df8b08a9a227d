"""Low-resolution converter design table and a saturation demonstration.

For each bit depth the midrise step size is chosen to minimize the mean
squared error on a unit-variance Gaussian input; the linearization constants
(gain and distortion power) follow from the same Gaussian integrals. The
second half shows why gain control matters: a strong interferer either
saturates the converter or, if the gain backs off, buries a weak signal in
quantization noise.
"""

import numpy as np

from hdrmimo import design_quantizer, midrise

print("bits   step     gain     distortion   rms error")
for q in range(1, 9):
    quant = design_quantizer(q)
    # Bussgang: Q(x) - x = d - (1 - gamma) x with d uncorrelated with x.
    rmse = np.sqrt((1 - quant.gamma) ** 2 + quant.dist_power)
    print(
        f"{q:3d}   {quant.delta:.4f}   {quant.gamma:.6f}   {quant.dist_power:.2e}"
        f"     {rmse:.2e}"
    )

print("\nMonte Carlo check at 3 bits (1e6 unit-variance samples):")
quant = design_quantizer(3)
rng = np.random.default_rng(0)
x = rng.standard_normal(1_000_000)
qx = midrise(x, quant.delta, quant.q)
gain = np.mean(qx * x) / np.mean(x * x)
dist = np.mean((qx - gain * x) ** 2)
print(f"  sampled gain {gain:.6f} (table {quant.gamma:.6f})")
print(f"  sampled distortion {dist:.6f} (table {quant.dist_power:.6f})")

print("\nsaturation vs drowning at 3 bits:")
weak = 0.1 * rng.standard_normal(50_000)  # weak signal, sigma = 0.1
strong = 3.0 * rng.standard_normal(50_000)  # interferer, sigma = 3
mixed = weak + strong
for label, gain_setting in (("gain fit to mix", 1.0 / 3.0), ("gain fit to weak", 1.0)):
    out = midrise(gain_setting * mixed, quant.delta, quant.q) / gain_setting
    residual = out - strong  # what is left after the strong part is removed
    corr = np.corrcoef(residual, weak)[0, 1]
    print(f"  {label:17s} corr(recovered, weak) = {corr:.3f}")
print("  (neither setting recovers the weak signal; separating the strong")
print("   component spatially before conversion is what the transforms do)")

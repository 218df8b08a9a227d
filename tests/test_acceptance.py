"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line."""

import time

import numpy as np
import pytest

import hdrmimo.harness as harness_module
from hdrmimo.frontend import (
    apply_transform,
    design_hr_iso,
    design_hr_max,
    design_quantizer,
    midrise,
)
from hdrmimo.harness import ExperimentConfig, run_sweep, run_trial, write_csv
from oracles import optimal_step_size, random_complex, reflected_first_coordinate


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def reflected_basis_vector(w):
    """Q_w e_1 for a batch of reflector normals (columns of w)."""
    z = np.zeros_like(w)
    z[0] = 1.0
    norms = np.sum(np.abs(w) ** 2, axis=0)
    return z - 2.0 * w * (w[0].conj() / norms)


def test_criterion_1_strongest_isolation_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_ratio_err = 0.0
    ok = True
    for m in (4, 8, 16):
        for _ in range(3334):
            a = random_complex(rng, m)
            transform = design_hr_iso(a, 1)
            best = abs(apply_transform(transform, a.copy())[0]) ** 2
            ratio = best / float(np.linalg.norm(a) ** 2)
            worst_ratio_err = max(worst_ratio_err, abs(ratio - 1.0))
            if not (1.0 - 1e-9 <= ratio <= 1.0 + 1e-9):
                ok = False
            others = reflected_first_coordinate(random_complex(rng, m, 1000), a) ** 2
            if not np.all(best >= others - 1e-9 * best):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(
        1,
        "strongest-user isolation optimality (10^4 instances)",
        ok,
        f"max |ratio-1| = {worst_ratio_err:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_max_power_isolation_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_rel = 0.0
    ok = True
    for m in (4, 8, 16):
        for _ in range(334):
            c = random_complex(rng, m, m)
            c = c @ c.conj().T
            transform = design_hr_max(c[None])
            z = reflected_basis_vector(transform.vectors[0].reshape(-1, 1))[:, 0]
            isolated = float(np.real(z.conj() @ c @ z))
            top = float(np.linalg.eigvalsh(c)[-1])
            worst_rel = max(worst_rel, abs(isolated - top) / top)
            if abs(isolated - top) > 1e-8 * top:
                ok = False
            zr = reflected_basis_vector(random_complex(rng, m, 1000))
            others = np.real(np.sum(zr.conj() * (c @ zr), axis=0))
            if not np.all(isolated >= others - 1e-9 * isolated):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(
        2,
        "max-power isolation equals top eigenvalue (10^3 matrices)",
        ok,
        f"max rel err = {worst_rel:.2e}, {elapsed:.1f} s",
    )


def test_criterion_3_bussgang_constants_monte_carlo():
    rng = np.random.default_rng(1003)
    ok = True
    details = []
    for q in range(1, 6):
        quant = design_quantizer(q)
        x = rng.standard_normal(1_000_000)
        qx = midrise(x, quant.delta, quant.q)
        gamma_mc = float(np.mean(qx * x) / np.mean(x * x))
        dist_mc = float(np.mean((qx - gamma_mc * x) ** 2))
        g_err = abs(gamma_mc / quant.gamma - 1.0)
        d_err = abs(dist_mc / quant.dist_power - 1.0)
        ok = ok and g_err < 0.01 and d_err < 0.01
        # Distortion decorrelation at the analytic Bussgang gain.
        d = qx - quant.gamma * x
        ok = ok and abs(np.mean(d * x)) < 3.0 * np.sqrt(quant.dist_power) / 1e3
        details.append(f"q{q}:{max(g_err, d_err) * 100:.2f}%")
    # One-bit closed form against the integration route.
    quant1 = design_quantizer(1)
    closed = (quant1.delta / 2.0) * np.sqrt(2.0 / np.pi)
    ok = ok and abs(quant1.gamma - closed) < 1e-5
    _report(3, "quantizer Bussgang constants vs sampling", ok, " ".join(details))


def _legendre_cells():
    return np.polynomial.legendre.leggauss(32)


def _numerical_mse(q: int, delta: float) -> float:
    # Independent route: per-cell Gauss-Legendre quadrature of the squared
    # quantization error against the standard normal density.
    nodes, weights = _legendre_cells()

    def phi(x):
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

    edges = delta * np.arange(2 ** (q - 1) + 1)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * nodes[None, :]
    granular = float(
        np.sum(half[:, None] * weights[None, :] * (mid[:, None] - x) ** 2 * phi(x))
    )
    threshold = edges[-1]
    sat = (delta / 2.0) * (2**q - 1)
    tail = 0.0
    for k in range(6):
        a, b = threshold + 2.0 * k, threshold + 2.0 * (k + 1)
        tx = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        tail += float(np.sum(0.5 * (b - a) * weights * (sat - tx) ** 2 * phi(tx)))
    return 2.0 * (granular + tail)


def _brute_force_step(q: int) -> float:
    coarse = np.arange(0.05, 2.2, 1e-2)
    coarse_mse = [_numerical_mse(q, d) for d in coarse]
    center = coarse[int(np.argmin(coarse_mse))]
    fine = np.arange(center - 1.5e-2, center + 1.5e-2, 1e-4)
    fine_mse = [_numerical_mse(q, d) for d in fine]
    return float(fine[int(np.argmin(fine_mse))])


def test_criterion_4_optimal_step_size_grid_search():
    ok = True
    details = []
    steps = []
    for q in range(1, 6):
        implemented = optimal_step_size(q)
        brute = _brute_force_step(q)
        steps.append(implemented)
        gap = abs(implemented - brute)
        ok = ok and gap <= 1e-3
        details.append(f"q{q}:{implemented:.4f}({gap:.1e})")
    ok = ok and bool(np.all(np.diff(steps) < 0.0))
    _report(4, "MSE-optimal step size vs brute-force grid", ok, " ".join(details))


def test_criterion_5_fine_quantization_matches_unquantized():
    from hdrmimo.channel import (
        noise_variance_from_msnr,
        observe,
        realize_channel,
    )
    from hdrmimo.equalizer import (
        build_lmmse,
        build_unquantized_lmmse,
        count_bit_errors,
        equalize,
        hard_slice,
        modulate,
    )
    from hdrmimo.frontend import adc, compute_agc, identity_transform

    start = time.perf_counter()
    msnr_db = 8.0  # operating point with BER near 1e-2 for this geometry
    scen = ExperimentConfig(bs_antennas=32, ues=4, clusters=4, rho_db=30.0)
    quant = design_quantizer(12)
    ident = identity_transform(32, 4)
    rng = np.random.default_rng(1005)
    q_err = p_err = total = 0
    for _ in range(40):
        h = realize_channel(scen, rng, power_control_all=True)
        n0 = noise_variance_from_msnr(h, msnr_db)
        c_y = h @ h.conj().T + n0 * np.eye(32)
        blocks = c_y.reshape(4, 8, 4, 8)[np.arange(4), :, np.arange(4), :]
        gains = compute_agc(blocks, ident)
        eq_q = build_lmmse(h, ident, gains, quant, n0)
        eq_p = build_unquantized_lmmse(h, n0)
        bits = rng.integers(0, 2, size=(200, 16))
        s = modulate(bits.reshape(-1)).reshape(200, 4).T
        y = observe(h, s, n0, rng)
        r = adc(y.copy(), gains, quant)
        e, n = count_bit_errors(
            bits.reshape(-1), hard_slice(equalize(eq_q, r).T.reshape(-1))
        )
        q_err += e
        e, _ = count_bit_errors(
            bits.reshape(-1), hard_slice(equalize(eq_p, y).T.reshape(-1))
        )
        p_err += e
        total += n
    elapsed = time.perf_counter() - start
    ber_q, ber_p = q_err / total, p_err / total
    ok = total >= 1e5 and abs(ber_q - ber_p) <= 2e-3
    ok = ok and 2e-3 <= ber_p <= 5e-2  # operating point premise
    ok = ok and elapsed < 120.0
    _report(
        5,
        "12-bit chain reduces to unquantized detector",
        ok,
        f"ber {ber_q:.4f} vs {ber_p:.4f}, {total} bits, {elapsed:.1f} s",
    )


def _sweep_bers(cfg: ExperimentConfig) -> dict:
    out: dict = {}
    for rec in run_sweep(cfg):
        out.setdefault(rec.method, []).append((rec.msnr_db, rec.ber))
    return out


def test_criterion_6_desk_scale_method_ordering():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        bs_antennas=64,
        ues=8,
        clusters=8,
        q_bits=3,
        rho_db=30.0,
        msnr_start=4.0,
        msnr_stop=18.0,
        msnr_step=2.0,
        realizations=100,
        symbols=200,
        seed=101,
        methods=("wsu", "none", "hr-iso", "hr-max"),
    )
    bers = _sweep_bers(cfg)
    wsu = dict(bers["wsu"])
    none_ = dict(bers["none"])
    iso = dict(bers["hr-iso"])
    hmax = dict(bers["hr-max"])
    qualifying = [m for m, b in wsu.items() if b <= 1e-2]
    ok = len(qualifying) >= 1
    details = []
    for m in qualifying:
        gain = none_[m] / iso[m]
        ratio = iso[m] / hmax[m]
        ok = ok and gain >= 5.0 and 0.5 <= ratio <= 2.0
        details.append(f"{m:g}dB: none/iso={gain:.1f} iso/max={ratio:.2f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    bits = cfg.realizations * cfg.symbols * 4 * cfg.ues
    _report(
        6,
        "desk-scale ordering (64 antennas, 8 users)",
        ok,
        f"{'; '.join(details)}; {bits} bits/point, {elapsed:.0f} s",
    )


def _msnr_at_ber(points, target=1e-3):
    """Log-linear regression of the BER curve, inverted at the target."""
    pts = [(m, b) for m, b in points if b > 0]
    x = np.array([m for m, _ in pts])
    y = np.log10([b for _, b in pts])
    mask = (y > -3.7) & (y < -0.8)
    slope, intercept = np.polyfit(x[mask], y[mask], 1)
    return (np.log10(target) - intercept) / slope


def test_criterion_7_full_scale_trends():
    start = time.perf_counter()

    # (a) The MSNR penalty of the isolating receiver relative to the fully
    # power-controlled baseline, at 0.1% BER, grows with the dynamic range.
    gaps = []
    for rho in (10.0, 20.0, 30.0):
        cfg = ExperimentConfig(
            q_bits=3,
            rho_db=rho,
            clusters=32,
            msnr_start=12.0,
            msnr_stop=20.0,
            msnr_step=2.0,
            realizations=60,
            symbols=100,
            seed=7,
            methods=("wsu", "hr-iso"),
        )
        bers = _sweep_bers(cfg)
        gaps.append(_msnr_at_ber(bers["hr-iso"]) - _msnr_at_ber(bers["wsu"]))
    trend_a = gaps[0] < gaps[1] < gaps[2]

    # (b) The spread among the quantized methods at a fixed MSNR point
    # shrinks as the ADC resolution grows.
    spreads = []
    for q in (3, 4, 5):
        cfg = ExperimentConfig(
            q_bits=q,
            rho_db=30.0,
            clusters=32,
            msnr_start=12.0,
            msnr_stop=12.0,
            msnr_step=2.0,
            realizations=80,
            symbols=100,
            seed=7,
            methods=("wsu", "none", "hr-iso", "hr-max"),
        )
        bers = {m: pts[0][1] for m, pts in _sweep_bers(cfg).items()}
        spreads.append(np.log10(max(bers.values()) / min(bers.values())))
    trend_b = spreads[0] > spreads[1] > spreads[2]

    # (c) The advantage of the isolating receiver over the bare quantized
    # receiver grows as the clusters get larger (fewer clusters).
    advantages = {}
    for clusters in (32, 16, 8):
        cfg = ExperimentConfig(
            q_bits=3,
            rho_db=30.0,
            clusters=clusters,
            msnr_start=12.0,
            msnr_stop=14.0,
            msnr_step=2.0,
            realizations=150,
            symbols=100,
            seed=7,
            methods=("none", "hr-iso"),
        )
        totals = {"none": 0, "hr-iso": 0}
        for rec in run_sweep(cfg):
            totals[rec.method] += rec.bit_errors
        advantages[clusters] = np.log10(totals["none"] / totals["hr-iso"])
    trend_c = advantages[8] > advantages[16] > advantages[32]

    elapsed = time.perf_counter() - start
    ok = trend_a and trend_b and trend_c
    _report(
        7,
        "full-scale trends (256 antennas, 32 users)",
        ok,
        f"(a) gaps dB {['%.2f' % g for g in gaps]}; "
        f"(b) spreads {['%.3f' % s for s in spreads]}; "
        f"(c) advantages {['%.3f' % advantages[c] for c in (32, 16, 8)]}; "
        f"{elapsed:.0f} s",
    )


def test_criterion_8_determinism_and_energy_guard(tmp_path, monkeypatch):
    base = dict(
        bs_antennas=32,
        ues=4,
        clusters=4,
        q_bits=3,
        rho_db=30.0,
        msnr_start=8.0,
        msnr_stop=12.0,
        msnr_step=4.0,
        realizations=6,
        symbols=50,
        seed=13,
        methods=("wsu", "none", "hr-iso", "hr-max"),
    )
    payloads = []
    for threads in (1, 4, 16):
        cfg = ExperimentConfig(**base, threads=threads)
        path = tmp_path / f"threads_{threads}.csv"
        write_csv(run_sweep(cfg), str(path))
        payloads.append(path.read_bytes())
    identical = payloads[0] == payloads[1] == payloads[2]

    # The per-trial energy-conservation assertion must be live: a rigged
    # non-unitary transform has to abort the trial.
    real_apply = harness_module.apply_transform

    def rigged(transform, y):
        return 1.0001 * real_apply(transform, y)

    monkeypatch.setattr(harness_module, "apply_transform", rigged)
    cfg = ExperimentConfig(**base, threads=1)
    with pytest.raises(RuntimeError, match="energy"):
        run_trial(cfg, "hr-iso", 8.0, 0)
    monkeypatch.undo()

    _report(
        8,
        "thread-count invariance and energy guard",
        identical,
        f"{len(payloads[0])}-byte CSVs identical across 1/4/16 threads",
    )


@pytest.mark.parametrize("exponent", [0, -20, -40, -60])
def test_energy_guard_holds_at_any_channel_scale(monkeypatch, exponent):
    # The guard's bound is relative to ||y||. A channel scaled by 2^exponent
    # scales the noise with it (MSNR is relative), so the whole received
    # block is that small, and a transform that multiplies it by 1.5 must
    # still abort the trial.
    real_realize = harness_module.realize_channel
    real_apply = harness_module.apply_transform
    monkeypatch.setattr(
        harness_module,
        "realize_channel",
        lambda *args, **kw: 2.0**exponent * real_realize(*args, **kw),
    )
    monkeypatch.setattr(
        harness_module,
        "apply_transform",
        lambda transform, y: 1.5 * real_apply(transform, y),
    )
    cfg = ExperimentConfig(bs_antennas=32, ues=4, clusters=4, symbols=50, seed=13)
    with pytest.raises(RuntimeError, match="energy"):
        run_trial(cfg, "hr-iso", 8.0, 0)

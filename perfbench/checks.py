"""Output checks on a sweep's results CSV.

The parser here is deliberately independent of ``hdrmimo.harness.read_csv``:
the checks judge the program's output, so they do not use the program to
read it. Each check returns a list of problems; an empty list means pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from workloads import METHODS, Q_BITS, RHO_DB, Workload

CSV_HEADER = "method,rho_db,q,C,B,U,msnr_db,bit_errors,total_bits,ber,realizations,seed"

# Pooled per-method error counts at the reference seed may move by this
# much from reference.json: enough for a few slicer or quantizer decisions
# flipped by floating-point reassociation, far less than the factor of two
# a receiver loses without its spatial transform.
REFERENCE_REL_TOL = 0.02
REFERENCE_ABS_TOL = 25

# At the top MSNR point the unquantized receiver must be best, and the
# untransformed quantized receiver at least this much worse than either
# Householder receiver.
NONE_OVER_HR_MIN = 2.0


@dataclass(frozen=True)
class Row:
    method: str
    rho_db: float
    q: int
    clusters: int
    bs_antennas: int
    ues: int
    msnr_db: float
    bit_errors: int
    total_bits: int
    ber: float
    realizations: int
    seed: int


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(text: str) -> list:
    """Rows of a results CSV; raises ValueError on any malformed line."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV is not newline-terminated")
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        f = line.split(",")
        if len(f) != 12:
            raise ValueError(f"line {n}: expected 12 fields, got {len(f)}")
        rows.append(
            Row(f[0], float(f[1]), int(f[2]), int(f[3]), int(f[4]), int(f[5]),
                float(f[6]), int(f[7]), int(f[8]), float(f[9]), int(f[10]),
                int(f[11]))
        )
    return rows


def check_well_formed(rows: list, wl: Workload, seed: int) -> list:
    """One row per method and MSNR point, in order, with consistent counts."""
    grid = wl.msnr_grid()
    expected = [(m, x) for m in METHODS for x in grid]
    got = [(r.method, r.msnr_db) for r in rows]
    if got != expected:
        return [f"rows {got} do not match methods x MSNR grid {expected}"]
    problems = []
    bits = wl.realizations * wl.bits_per_trial
    for r in rows:
        where = f"{r.method}@{r.msnr_db:g}dB"
        scenario = (r.rho_db, r.q, r.clusters, r.bs_antennas, r.ues, r.realizations, r.seed)
        want = (RHO_DB, Q_BITS, wl.clusters, wl.bs_antennas, wl.ues, wl.realizations, seed)
        if scenario != want:
            problems.append(f"{where}: scenario fields {scenario} != {want}")
        if r.total_bits != bits:
            problems.append(f"{where}: total_bits {r.total_bits} != {bits}")
        if not 0 <= r.bit_errors <= r.total_bits:
            problems.append(f"{where}: bit_errors {r.bit_errors} out of range")
        elif r.total_bits and not math.isclose(r.ber, r.bit_errors / r.total_bits, rel_tol=1e-12):
            problems.append(f"{where}: ber {r.ber!r} != bit_errors / total_bits")
    return problems


def check_ordering(rows: list) -> list:
    """Physical ordering of the methods at the top MSNR point."""
    top = max(r.msnr_db for r in rows)
    errors = {r.method: r.bit_errors for r in rows if r.msnr_db == top}
    problems = []
    lowest = min(errors.values())
    if errors["perfect"] != lowest:
        problems.append(f"at {top:g} dB perfect is not lowest: {errors}")
    for hr in ("hr-iso", "hr-max"):
        if errors["none"] < NONE_OVER_HR_MIN * errors[hr]:
            problems.append(
                f"at {top:g} dB none ({errors['none']}) is not "
                f">= {NONE_OVER_HR_MIN:g} x {hr} ({errors[hr]})"
            )
    return problems


def pooled_errors(rows: list) -> dict:
    pooled = {m: 0 for m in METHODS}
    for r in rows:
        pooled[r.method] += r.bit_errors
    return pooled


def check_reference(rows: list, reference: dict) -> list:
    """Pooled per-method error counts within tolerance of the reference."""
    problems = []
    for method, got in pooled_errors(rows).items():
        want = reference[method]
        tol = max(REFERENCE_ABS_TOL, REFERENCE_REL_TOL * want)
        if abs(got - want) > tol:
            problems.append(
                f"pooled {method} errors {got} differ from reference {want} "
                f"by more than {tol:g}"
            )
    return problems


def check_sweep(text: str, wl: Workload, seed: int, reference: dict | None = None) -> list:
    """Output checks for one sweep's CSV text; [] means it passed.

    Every sweep must be well formed. A sweep at the reference seed, given
    the ``reference`` pooled errors, must also keep the physical ordering
    and stay within tolerance of the reference. The ordering is not asked
    of other seeds: each method draws its own channels, so one poor draw
    can reorder methods whose expected errors differ by a few times (with
    one realization, ``perfect`` was not lowest on long-block at 6 of 31
    seeds).
    """
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [f"malformed CSV: {exc}"]
    problems = check_well_formed(rows, wl, seed)
    if problems or reference is None:
        return problems
    return check_ordering(rows) + check_reference(rows, reference)

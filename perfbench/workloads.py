"""The benchmark's workloads: fixed sweep configurations driven through
``hdrmimo.cli.main``.

Every workload uses q = 3 bits, rho = 30 dB and all five methods. The
seed is not part of a workload; the benchmark passes it as ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

METHODS = ("perfect", "wsu", "none", "hr-iso", "hr-max")
Q_BITS = 3
RHO_DB = 30.0
# The CLI's default seed; every run also sweeps it once, untimed, and
# compares pooled error counts against reference.json.
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    bs_antennas: int
    ues: int
    clusters: int
    msnr_start: float
    msnr_stop: float
    msnr_step: float
    symbols: int
    realizations: int
    threads: int

    def msnr_grid(self) -> tuple:
        n = int(round((self.msnr_stop - self.msnr_start) / self.msnr_step))
        return tuple(self.msnr_start + i * self.msnr_step for i in range(n + 1))

    @property
    def trials_per_sweep(self) -> int:
        return len(METHODS) * len(self.msnr_grid()) * self.realizations

    @property
    def bits_per_trial(self) -> int:
        return self.symbols * 4 * self.ues

    def cli_args(self, seed: int, out: str) -> list:
        """Arguments for ``hdrmimo.cli.main`` that run one sweep."""
        return [
            "--bs-antennas", str(self.bs_antennas),
            "--ues", str(self.ues),
            "--clusters", str(self.clusters),
            "--q-bits", str(Q_BITS),
            "--rho-db", repr(RHO_DB),
            "--msnr-start", repr(self.msnr_start),
            "--msnr-stop", repr(self.msnr_stop),
            "--msnr-step", repr(self.msnr_step),
            "--methods", ",".join(METHODS),
            "--realizations", str(self.realizations),
            "--symbols", str(self.symbols),
            "--threads", str(self.threads),
            "--seed", str(seed),
            "--out", out,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Desk scale with tiny matrices: fixed per-trial cost and per-call
        # Python overhead dominate.
        Workload("desk-sweep", 64, 8, 8, 4.0, 18.0, 2.0, 200, 10, 1),
        # The paper's array: dense B x B linear algebra and 32 clusters of
        # reflector work dominate. One sweep thread: on a 2-vCPU shared host
        # two threads stall whenever either vCPU is stolen, and runs of the
        # same code spread by 30%; one thread moves to the other vCPU.
        Workload("paper-sweep", 256, 32, 32, 12.0, 16.0, 2.0, 100, 8, 1),
        # Desk array on wide symbol blocks: the data path (observe, ADC,
        # slicing) dominates and set-up stages are under 2% of the time.
        Workload("long-block", 64, 8, 8, 8.0, 14.0, 2.0, 20000, 1, 1),
    )
}

"""Command-line front end for BER sweeps."""

from __future__ import annotations

import argparse
import os
from dataclasses import fields
from typing import Optional, Sequence

from .harness import (
    ExperimentConfig,
    emit_plot_script,
    parse_config,
    run_sweep,
    write_csv,
)


def build_parser() -> argparse.ArgumentParser:
    """One flag per ExperimentConfig field: ``--rho-db`` sets ``rho_db``,
    with the help its ``config_key`` declares.

    Values stay text here; ``ExperimentConfig`` reads and checks them
    exactly as it does config-file values and Python values.
    """
    p = argparse.ArgumentParser(
        prog="hdrmimo",
        description=(
            "Monte Carlo BER sweep for a quantized massive MU-MIMO uplink "
            "with clustered Householder spatial transforms."
        ),
    )
    p.add_argument("--config", help="flat key = value configuration file")
    for f in fields(ExperimentConfig):
        p.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"])
    return p


def config_from_argv(argv: Optional[Sequence[str]] = None) -> ExperimentConfig:
    """The validated config for a command line; flags override ``--config``.

    A bad value exits with a usage error that names the key.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key != "config" and value is not None
    }
    try:
        return parse_config(args.config, overrides)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


def main(argv: Optional[Sequence[str]] = None) -> int:
    cfg = config_from_argv(argv)
    # Checked here, not in the config, which reads only the path text: a
    # file that cannot be written would otherwise fail only after the sweep.
    for key in ("out", "plot_script"):
        path = getattr(cfg, key)
        folder = os.path.dirname(path) or os.curdir
        if os.path.isdir(path):
            build_parser().error(f"{key} names a directory: {path!r}")
        if path and not os.path.isdir(folder):
            build_parser().error(f"{key} names a missing directory: {folder!r}")
    records = run_sweep(cfg)
    write_csv(records, cfg.out)
    if cfg.plot_script:
        emit_plot_script(records, cfg.plot_script, csv_path=cfg.out)
    for r in records:
        print(
            f"{r.method:8s} msnr={r.msnr_db:6.2f} dB  "
            f"ber={r.ber:.3e}  ({r.bit_errors}/{r.total_bits} bits)"
        )
    print(f"wrote {len(records)} records to {cfg.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

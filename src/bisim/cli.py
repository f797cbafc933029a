"""Command-line surface: config in, archives out.

    bisim <subcommand> --config scene.yaml [--out DIR] [--seed N]
                       [--threads N] [--format bin|csv] [-v]

Subcommands: simulate, ddmap, spectrogram, clean, localize, reflectivity,
flyover, focus, linkbudget. Logs go to stderr; results go to files only.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import load_config
from .errors import ConfigError, NumericalError
from .pipeline import SUBCOMMANDS, run

log = logging.getLogger("bisim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisim",
        description="Multistatic ISAC scene simulator and radar processing toolchain",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--seed", type=int, default=None, help="override the noise seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        p.add_argument("--format", choices=("bin", "csv"), default=None,
                       help="output format (csv additionally exports <=2-D datasets)")
        p.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
        if name in ("ddmap", "localize", "clean"):
            p.add_argument("--clean", type=int, default=None,
                           help="override number of dominant paths to subtract")
        if name == "flyover":
            p.add_argument("--gate-ns", type=float, default=None,
                           help="apply a time gate of this width around delay zero")
        if name == "spectrogram":
            p.add_argument("--fft", type=int, default=None, help="override STFT size")
            p.add_argument("--hop", type=int, default=None, help="override STFT hop")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.noise.seed = args.seed
        if getattr(args, "clean", None) is not None:
            cfg.processing.clean_paths = args.clean
        if getattr(args, "gate_ns", None) is not None:
            from .config import GateConfig

            cfg.processing.gate = GateConfig(center_ns=0.0, width_ns=args.gate_ns, edge_ns=0.0)
        if getattr(args, "fft", None) is not None:
            cfg.processing.stft.fft_size = args.fft
        if getattr(args, "hop", None) is not None:
            cfg.processing.stft.hop = args.hop
        archive, written = run(
            args.subcommand, cfg, out_dir=args.out, threads=args.threads, fmt=args.format
        )
    except ConfigError as err:
        log.error("%s: %s", args.subcommand, err)
        return EXIT_CONFIG
    except NumericalError as err:
        log.error("%s: numerical failure: %s", args.subcommand, err)
        return EXIT_NUMERICAL
    except OSError as err:
        log.error("%s: I/O error: %s", args.subcommand, err)
        return EXIT_IO
    for path in written:
        log.info("wrote %s", path)
    print("\n".join(str(p) for p in written))
    if "numerical_failure" in archive.summary:
        log.error("%s: %s", args.subcommand, archive.summary["numerical_failure"])
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

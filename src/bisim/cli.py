"""Command-line surface: config in, archives out.

    bisim <subcommand> --config scene.yaml [--threads N] [-v] [override flags]

The subcommands are pipeline.SUBCOMMANDS. Each override flag of OVERRIDES
writes its value into the config document at its key path before the one
parse_config, so the schema checks it like a value in the file and the
summary echoes the config that ran: --out DIR and --format bin|csv on
every subcommand, --seed, --clean, --gate-ns, --fft and --hop where they
apply. Logs go to stderr; results go to files only. Exit codes: 0 success,
2 config error or out of memory, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, NamedTuple

from .config import load_document, parse_config
from .errors import ConfigError, NumericalError
from .pipeline import SUBCOMMANDS, run

log = logging.getLogger("bisim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class Override(NamedTuple):
    """A flag that sets one config key: the document value at `path` is value(flag text)."""

    flag: str
    path: tuple[str, ...]
    subcommands: tuple[str, ...]
    help: str
    value: Callable = lambda text: text


OVERRIDES = (
    Override("--out", ("outputs", "directory"), SUBCOMMANDS, "output directory (default from config)"),
    Override("--format", ("outputs", "format"), SUBCOMMANDS,
             "output format, bin or csv (csv additionally exports <=2-D datasets)"),
    Override("--seed", ("noise", "seed"), SUBCOMMANDS, "override the noise seed"),
    Override("--clean", ("processing", "clean_paths"), ("ddmap", "localize", "clean"),
             "override number of dominant paths to subtract"),
    Override("--gate-ns", ("processing", "gate"), ("flyover",),
             "apply a time gate of this width around delay zero",
             lambda text: {"center_ns": 0, "width_ns": text, "edge_ns": 0}),
    Override("--fft", ("processing", "stft", "fft_size"), ("spectrogram",), "override STFT size"),
    Override("--hop", ("processing", "stft", "hop"), ("spectrogram",), "override STFT hop"),
)


def _threads(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisim",
        description="Multistatic ISAC scene simulator and radar processing toolchain",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--threads", type=_threads, default=1, help="worker threads")
        p.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
        for o in OVERRIDES:
            if name in o.subcommands:
                p.add_argument(o.flag, help=o.help)
    return parser


def _override(doc, path: tuple[str, ...], value) -> None:
    """Set doc[path] = value, making absent mappings on the way. A non-mapping on the
    way is left for parse_config to reject with its key path."""
    for key in path[:-1]:
        if not isinstance(doc, dict):
            return
        if doc.get(key) is None:
            doc[key] = {}
        doc = doc[key]
    if isinstance(doc, dict):
        doc[path[-1]] = value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        doc = load_document(args.config)
        for o in OVERRIDES:
            text = getattr(args, o.flag[2:].replace("-", "_"), None)   # argparse's dest
            if text is not None:
                _override(doc, o.path, o.value(text))
        archive, written = run(args.subcommand, parse_config(doc), threads=args.threads)
    except ConfigError as err:
        log.error("%s: %s", args.subcommand, err)
        return EXIT_CONFIG
    except MemoryError as err:   # an array within MAX_ENTRIES that this process still cannot hold
        log.error("%s: out of memory: %s", args.subcommand, err)
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

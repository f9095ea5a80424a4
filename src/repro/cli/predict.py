"""``repro-predict``: one-off FB throughput prediction (paper Eq. (3)).

Examples::

    repro-predict --rtt-ms 45 --loss 0.002
    repro-predict --rtt-ms 80 --loss 0 --availbw 6.5 --window-kb 64
    repro-predict --rtt-ms 45 --loss 0.002 --model mathis
"""

from __future__ import annotations

import argparse
import sys

from repro.core.errors import DataError
from repro.formulas.fb_predictor import MODEL_VARIANTS, answer_fb


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-predict",
        description="Predict bulk TCP throughput from a priori path measurements.",
    )
    parser.add_argument(
        "--rtt-ms", type=float, required=True, help="measured RTT, milliseconds"
    )
    parser.add_argument(
        "--loss", type=float, required=True, help="measured loss rate in [0, 1)"
    )
    parser.add_argument(
        "--availbw",
        type=float,
        default=None,
        metavar="MBPS",
        help="measured avail-bw (required when --loss is 0)",
    )
    parser.add_argument(
        "--window-kb",
        type=float,
        default=1000.0,
        help="maximum window / socket buffer, kilobytes (default 1000)",
    )
    parser.add_argument(
        "--mss", type=int, default=1460, help="segment size, bytes (default 1460)"
    )
    parser.add_argument(
        "--model",
        choices=sorted(MODEL_VARIANTS),
        default="pftk",
        help="throughput model for lossy paths (default pftk)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            answer = answer_fb(
                rtt_ms=args.rtt_ms,
                loss=args.loss,
                window_kb=args.window_kb,
                mss=args.mss,
                availbw=args.availbw,
                model=args.model,
            )
        except DataError as exc:
            # Through argparse so the usage text and exit status match
            # every other bad-flag failure.
            parser.error(str(exc))
    except SystemExit as exc:
        # parse_args/parser.error exit; keep main() returning an int so it
        # stays callable programmatically (and from tests).
        return int(exc.code or 0)

    branch = "avail-bw (lossless path)" if answer.lossless else f"{args.model} model"
    print(f"predicted throughput: {answer.predicted_mbps:.3f} Mbps  [{branch}]")
    print(f"window ceiling W/T:   {answer.window_ceiling_mbps:.3f} Mbps")
    return 0


if __name__ == "__main__":
    sys.exit(main())

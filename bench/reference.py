"""Reference outcome sets for litmus programs, from the brute-force oracle.

Reads a JSON list of [program text, mode] pairs on standard input and
prints a JSON list with the outcome digest of each program. It runs in
its own process so that the oracle's time and memory stay out of the
benchmark's measurements. Usage (from the repository root):

    python3 bench/reference.py < programs.json
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from inputs import outcome_digest  # noqa: E402
from oracles import brute_force_signatures  # noqa: E402
from stellite import lang  # noqa: E402


def main():
    out = []
    for text, mode in json.load(sys.stdin):
        sigs = brute_force_signatures(lang.parse_program(text), mode=mode)
        out.append(outcome_digest(sigs))
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()

"""Compare what two checkouts of stellite compute, row by row.

    python tests/identity.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's package (its src/) runs in a child process with
PYTHONHASHSEED=0 over the same inputs:

- check_cut_refinement on the SUITE rows of tests/test_acceptance.py at
  V=2, the GENERATE_ROWS of tests/test_verifier.py at V=3, its
  RENAMING_ROWS at their own V, its READ_WRITE_ROWS at V=2 and the
  ORBIT_ROWS and IMAGE_ROWS below at their own V: the outcome, the
  witness (context, sigma, execution, history, candidates) and every
  Verdict.stats field both checkouts report; a history is compared by
  its actions A, guarantee G and deny D;
- enumerate_program on litmus_batch(7, 2000) and litmus_batch(11, 2000)
  of bench/inputs.py: the executions, outcomes, unsafe and truncated;
- check_q_instance on every corpus .ctx file against every corpus .tr
  file at V=2: the result, and the block_local executions of both
  blocks under that context, or the error that rejects the context.

The row lists and the litmus generator are read from this script's own
checkout, the corpus from each checkout. Sets are compared as sorted
lists, so two equal relations built in different orders agree. The
script prints the rows compared and each row that differs, and exits 1
on any difference. A Verdict.stats field that only one checkout reports
makes no row differ; the script lists such fields on a line of their
own, with the number of rows that report each. It is no test module,
so pytest does not collect it.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
LITMUS_SEEDS = (7, 11)
LITMUS_PROGRAMS = 2000
# rows whose contexts repeat the most interchangeable actions, so that
# one cut survivor per orbit removes the most work
ORBIT_ROWS = [("load_dup.tr", 3),
              ("a := LL(x); s := SC(x,a); st(y,s)"
               " ~> a := LL(x); s := SC(x,a); st(y,s)", 2)]
# rows where most pairs with room are renamed images of pairs checked:
# 18,274 of 19,656 for the write-back identity at V=5
IMAGE_ROWS = [("l := ld(x); st(x,l) ~> l := ld(x); st(x,l)", 5)]


def _literal(path, name):
    """The literal value of the module-level assignment name in path."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise KeyError(f"{name} is not assigned in {path}")


def verify_rows():
    """(corpus file name or transformation text, value count) for each
    verify row compared."""
    suite = _literal(HERE / "test_acceptance.py", "SUITE")
    generate = _literal(HERE / "test_verifier.py", "GENERATE_ROWS")
    renaming = _literal(HERE / "test_verifier.py", "RENAMING_ROWS")
    read_write = _literal(HERE / "test_verifier.py", "READ_WRITE_ROWS")
    return ([(f, 2) for f, _ in suite] + [(f, 3) for f in generate]
            + [tuple(r) for r in renaming]
            + [(t, 2) for t in read_write] + ORBIT_ROWS + IMAGE_ROWS)


def _canon(x):
    """x as nested lists, with sets sorted, dataclasses by field and
    histories by A, G and D."""
    if hasattr(x, "A") and hasattr(x, "G"):
        return ["history", _canon(x.A), _canon(x.G), _canon(x.D)]
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return [type(x).__name__] + [
            [f.name, _canon(getattr(x, f.name))]
            for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return sorted(([_canon(k), _canon(v)] for k, v in x.items()),
                      key=repr)
    if isinstance(x, (set, frozenset)):
        return sorted((_canon(v) for v in x), key=repr)
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    return x


def _digest(x):
    return hashlib.sha256(repr(_canon(x)).encode()).hexdigest()[:16]


def dump(checkout):
    """Print one JSON line per row for the package of checkout."""
    import stellite
    from stellite import lang
    from stellite.axiomatic import EnumConfig, enumerate_program
    from stellite.blocklocal import block_local
    from stellite.cli import parse_context_file
    from stellite.verifier import (check_cut_refinement, check_q_instance,
                                   context_bound)

    src = (Path(checkout) / "src").resolve()
    if not Path(stellite.__file__).resolve().is_relative_to(src):
        sys.exit(f"stellite was imported from {stellite.__file__}")
    sys.path.insert(0, str(HERE.parent / "bench"))
    from inputs import litmus_batch

    corpus = Path(checkout) / "corpus"
    for fname, n in verify_rows():
        text = fname if "~>" in fname else (corpus / fname).read_text()
        B2, B1 = lang.parse_transformation(text)
        v = check_cut_refinement(
            B1, B2, context_bound(B1, B2, frozenset(range(n))))
        w = v.witness
        witness = None if w is None else (
            w.context, w.sigma, w.execution, w.hist, w.candidates)
        print(json.dumps({"row": f"verify {fname} V={n}",
                          "outcome": v.outcome,
                          "stats": v.stats,
                          "witness": _digest(witness)}))
    for seed in LITMUS_SEEDS:
        for i, (text, mode) in enumerate(litmus_batch(seed,
                                                      LITMUS_PROGRAMS)):
            res = enumerate_program(lang.parse_program(text),
                                    EnumConfig(mode=mode))
            print(json.dumps({"row": f"litmus {seed}:{i}",
                              "executions": len(res.executions),
                              "unsafe": res.unsafe,
                              "truncated": res.truncated,
                              "digest": _digest((res.executions,
                                                 res.outcomes))}))
    for cpath in sorted(corpus.glob("*.ctx")):
        ctx = parse_context_file(cpath.read_text())
        for tpath in sorted(corpus.glob("*.tr")):
            B2, B1 = lang.parse_transformation(tpath.read_text())
            row = {"row": f"instance {cpath.name} {tpath.name}"}
            try:
                row["holds"] = check_q_instance(B1, B2, ctx)
                row["executions"] = _digest(
                    [block_local(B, ctx) for B in (B1, B2)])
            except ValueError as exc:
                row["error"] = str(exc)
            print(json.dumps(row))


def rows_of(checkout):
    """The rows dump prints for checkout, by row label, run in a child
    process on that checkout's package."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(Path(checkout).resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", str(checkout)], env=env,
        check=False, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"dumping {checkout} failed:\n{proc.stderr}")
    rows = {}
    for line in proc.stdout.splitlines():
        row = json.loads(line)
        rows[row.pop("row")] = row
    return rows


def _shared(row, other):
    """row with its stats cut to the fields other's stats report too."""
    if row is None or other is None or "stats" not in row:
        return row
    return dict(row, stats={k: n for k, n in row["stats"].items()
                            if k in other.get("stats", {})})


def main(argv):
    if len(argv) == 2 and argv[0] == "--dump":
        dump(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tests/identity.py OLD_CHECKOUT NEW_CHECKOUT",
              file=sys.stderr)
        return 2
    old, new = (rows_of(c) for c in argv)
    differ = [r for r in sorted(set(old) | set(new))
              if _shared(old.get(r), new.get(r)) != _shared(new.get(r),
                                                            old.get(r))]
    for r in differ:
        print(f"differs: {r}\n  old: {old.get(r)}\n  new: {new.get(r)}")
    print(f"compared {len(old)} rows of {argv[0]} with {len(new)} rows"
          f" of {argv[1]}: {len(differ)} differ")
    only = [Counter(k for r in set(a) & set(b)
                    for k in a[r].get("stats", {}).keys()
                    - b[r].get("stats", {}).keys())
            for a, b in ((old, new), (new, old))]
    if any(only):
        print(f"stats fields only in {argv[0]}: {dict(only[0])}, only in"
              f" {argv[1]}: {dict(only[1])} (rows reporting each)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

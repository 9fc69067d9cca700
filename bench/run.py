"""Verdict-cost benchmark for stellite.

    python3 bench/run.py --workload verify-table --seed 1 --seconds 20 --trace 0

Runs one workload (see inputs.WORKLOADS) in this process on one thread,
checks every verdict or outcome set against an external reference, and
prints one JSON object as its last line of output. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics (hooks.py). A record of
every input (verdict or outcome digest, seconds, Verdict.stats) and of
the machine is written to bench/records/.

Each run: import stellite and prepare every input several times (setup_s
is the median); compute the litmus references in a child process; then
run one warm-up pass, then passes over all inputs until --seconds have
passed. wall_s is the median over the untraced passes after the warm-up;
every input's time in every pass goes to the record.

Left out of the workloads:
  - enumerate + cut of the three-access NA reorder block: about 115 s per
    pass, too long for a run;
  - instance checks and adversary.reproduce: milliseconds each;
  - timers inside the package (Verdict.stats seconds): the layers are
    timed here from outside instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hooks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RECORDS = BENCH / "records"

SETUP_REPS = 7
# inputs still running this long after the start are cut off as failed,
# so that a run ends within its time limit whatever --seconds is
DEADLINE_S = 150.0
REFERENCE_TIMEOUT_S = 120.0
MAX_NOTES = 20  # mismatch and failure lines printed; the record has all

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_share": "ratio",
    "result_agreement": "ratio",
}

PER_LAYER = {
    "axiomatic.complete.s": "s",
    "axiomatic.complete.executions": "count",
    "cut.cut.s": "s",
    "cut.cut.calls": "count",
    "cut.cut.kept": "count",
    "cut.cut.survival": "ratio",
    "history.hist_ext.self_s": "s",
    "history.deny.s": "s",
    "history.refines_ext.s": "s",
    "history.refines_ext.calls": "count",
    "history.refines_ext.per_cut_exec": "count",
    "axiomatic.closure.s": "s",
    "axiomatic.closure.calls": "count",
    "axiomatic.enumerate_program.self_s": "s",
    "axiomatic.enumerate_program.executions": "count",
    "axiomatic.enumerate_program.truncated": "count",
    "verifier.enumerate_contexts.s": "s",
    "verifier.enumerate_contexts.contexts": "count",
    "lang.thread_local_block.s": "s",
    "lang.thread_local_block.pre_executions": "count",
    "blocklocal.block_local.self_s": "s",
    "blocklocal.block_local.executions": "count",
    "verdict.contexts": "count",
    "verdict.x1": "count",
    "verdict.x1_cut": "count",
    "verdict.x2": "count",
    "trace.overhead_s": "s",
}
VERDICT_STATS = ("contexts", "x1", "x1_cut", "x2")


class InputTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise InputTimeout()


@dataclass
class Input:
    name: str
    args: tuple = ()
    expected: str | None = None  # verdict, or reference outcome digest
    known_mismatch: str | None = None  # why the verdict differs, if known
    error: str | None = None  # why the input could not be prepared


@dataclass
class Result:
    status: str  # decided | unknown | error | truncated | timeout
    result: str | None = None
    stats: dict = field(default_factory=dict)
    detail: str | None = None
    match: bool = False  # decided and equal to the reference
    seconds: float = 0.0

    @property
    def decided(self):
        return self.status == "decided"


def load_stellite():
    """Import stellite afresh from src/ next to this directory."""
    for name in [n for n in sys.modules
                 if n == "stellite" or n.startswith("stellite.")]:
        del sys.modules[name]
    pkg = importlib.import_module("stellite")
    if Path(pkg.__file__).resolve().parent != SRC / "stellite":
        raise ImportError(f"stellite was imported from {pkg.__file__}")
    return pkg


def prepare(wl, seed, pkg):
    """Parse and bound every input of the workload."""
    items = []
    if wl.kind == "verify":
        values = frozenset(range(wl.values))
        for fname in wl.files:
            item = Input(f"{fname}@V={wl.values}",
                         expected=inputs.EXPECTED[fname],
                         known_mismatch=inputs.KNOWN_MISMATCHES.get(
                             (fname, wl.values)))
            try:
                text = (ROOT / "corpus" / fname).read_text()
                B2, B1 = pkg.lang.parse_transformation(text)
                budget = pkg.verifier.context_bound(B1, B2, values=values)
                item.args = (B1, B2, budget)
            except (OSError, pkg.lang.ParseError) as exc:
                item.error = repr(exc)
            items.append(item)
        return items
    for i, (text, mode) in enumerate(inputs.litmus_batch(seed, wl.programs)):
        item = Input(f"litmus#{i}")
        try:
            item.args = (pkg.lang.parse_program(text), mode, text)
        except pkg.lang.ParseError as exc:
            item.error = repr(exc)
        items.append(item)
    return items


def setup(wl, seed):
    """Repeated import + prepare; returns the last package, its inputs
    and the seconds of every repetition."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        pkg = load_stellite()
        items = prepare(wl, seed, pkg)
        times.append(perf_counter() - t0)
    return pkg, items, times


def litmus_references(items):
    """Outcome digests from the brute-force oracle, in a child process."""
    todo = [it for it in items if it.error is None]
    payload = json.dumps([[it.args[2], it.args[1]] for it in todo])
    proc = subprocess.run(
        [sys.executable, str(BENCH / "reference.py")], input=payload,
        capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S,
        cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference oracle failed:\n{proc.stderr}")
    for it, digest in zip(todo, json.loads(proc.stdout), strict=True):
        it.expected = digest


def _call(wl, pkg, item):
    """The timed work for one input, checks included."""
    if wl.kind == "verify":
        v = pkg.verifier.check_cut_refinement(*item.args)
        stats = {k: v.stats.get(k, 0) for k in VERDICT_STATS}
        if v.outcome == "Unknown":
            return Result("unknown", v.outcome, stats, v.stats.get("error"))
        return Result("decided", v.outcome, stats)
    P, mode, _ = item.args
    ax = pkg.axiomatic
    res = ax.enumerate_program(P, ax.EnumConfig(mode=mode))
    stats = {"executions": len(res.executions)}
    if res.truncated:
        return Result("truncated", None, stats)
    digest = inputs.outcome_digest({
        (frozenset((a.aid, a.kind, a.gvar, a.vals) for a in X.actions),
         X.rf, X.mo)
        for X in res.executions
    })
    return Result("decided", digest, stats)


def run_input(wl, pkg, item, limit):
    if item.error is not None:
        return Result("error", detail=item.error)
    if limit <= 0:
        return Result("timeout", detail="run deadline passed")
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            res = _call(wl, pkg, item)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InputTimeout:
        res = Result("timeout", detail=f"over {limit:.1f} s")
    except Exception as exc:  # a crash on one input fails that input only
        res = Result("error", detail=repr(exc))
    res.match = res.decided and res.result == item.expected
    res.seconds = perf_counter() - t0
    return res


@dataclass
class Pass:
    traced: bool
    warmup: bool
    wall_s: float
    results: list
    layers: dict | None = None


def run_passes(wl, pkg, items, seconds, trace, t_start):
    tracer = hooks.Tracer()
    deadline = t_start + DEADLINE_S
    passes = []
    t0 = perf_counter()
    while True:
        warmup = not passes
        traced = bool(trace) and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            p0 = perf_counter()
            results = [
                run_input(wl, pkg, it,
                          min(wl.input_limit_s, deadline - perf_counter()))
                for it in items
            ]
            wall = perf_counter() - p0
        finally:
            if traced:
                tracer.uninstall()
        passes.append(Pass(traced, warmup, wall, results,
                           tracer.layer_metrics() if traced else None))
        n_traced = len(_walls(passes, True))
        n_timed = len(_walls(passes, False))
        enough = n_timed >= 3 - trace and n_traced >= 2 * trace
        now = perf_counter()
        if (enough and now - t0 >= seconds) or now >= deadline:
            return passes, tracer.missing


def _walls(passes, traced):
    """Seconds of the traced or untraced passes after the warm-up."""
    return [p.wall_s for p in passes if p.traced == traced and not p.warmup]


def end_to_end(passes, setup_times):
    attempted = sum(len(p.results) for p in passes)
    decided = sum(r.decided for p in passes for r in p.results)
    matched = sum(r.decided and r.match for p in passes for r in p.results)
    return {
        "wall_s": statistics.median(_walls(passes, False)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_share": decided / attempted,
        "result_agreement": matched / attempted,
    }


def per_layer(passes):
    traced = [p for p in passes if p.traced]
    last = traced[-1]
    out = {}
    for name, unit in PER_LAYER.items():
        if name in last.layers:
            vals = [p.layers[name] for p in traced]
            out[name] = (statistics.median(vals) if unit == "s"
                         else last.layers[name])
    kept, calls = out["cut.cut.kept"], out["cut.cut.calls"]
    out["cut.cut.survival"] = kept / calls if calls else 0.0
    out["history.refines_ext.per_cut_exec"] = (
        out["history.refines_ext.calls"] / kept if kept else 0.0)
    out["axiomatic.enumerate_program.truncated"] = sum(
        r.status == "truncated" for r in last.results)
    for k in VERDICT_STATS:
        out[f"verdict.{k}"] = sum(r.stats.get(k, 0) for r in last.results)
    out["trace.overhead_s"] = (statistics.median(_walls(passes, True))
                               - statistics.median(_walls(passes, False)))
    return out


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is no git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_record(args, wl, items, passes, setup_times, missing, metrics):
    rows = []
    for i, it in enumerate(items):
        rs = [p.results[i] for p in passes]
        rows.append({
            "input": it.name,
            "program": it.args[2] if wl.kind == "litmus" and it.args
            else None,
            "expected": it.expected,
            "results": sorted({r.result or r.status for r in rs}),
            "status": sorted({r.status for r in rs}),
            "known_mismatch": it.known_mismatch,
            "seconds": [r.seconds for r in rs],
            "stats": rs[-1].stats,
            "detail": sorted({r.detail for r in rs if r.detail}),
        })
    record = {
        "machine": machine(),
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setup_times,
        "passes": [{"traced": p.traced, "warmup": p.warmup,
                    "wall_s": p.wall_s, "layers": p.layers}
                   for p in passes],
        "missing_hooks": missing,
        "excluded": inputs.EXCLUDED if wl.kind == "verify" else {},
        "inputs": rows,
        "metrics": metrics,
    }
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = inputs.WORKLOADS[args.workload]
    t_start = perf_counter()

    if not (SRC / "stellite" / "__init__.py").is_file():
        print(f"error: no stellite sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    pkg, items, setup_times = setup(wl, args.seed)
    if wl.kind == "litmus":
        litmus_references(items)
    passes, missing = run_passes(wl, pkg, items, args.seconds, args.trace,
                                 t_start)

    # correct: every decided result agrees with its reference, except the
    # verify rows listed as known mismatches
    mismatched = [it for i, it in enumerate(items)
                  if any(p.results[i].decided and not p.results[i].match
                         for p in passes)]
    correct = all(it.known_mismatch is not None for it in mismatched)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(not r.decided for p in passes for r in p.results)

    e2e = end_to_end(passes, setup_times)
    layers = per_layer(passes) if args.trace else {}
    metrics, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    path = write_record(args, wl, items, passes, setup_times, missing,
                        {**e2e, **layers})

    notes = [f"mismatch: {it.name} expected {it.expected}"
             f" ({it.known_mismatch or 'UNEXPECTED'})" for it in mismatched]
    for i, it in enumerate(items):
        bad = {p.results[i].status for p in passes} - {"decided"}
        if bad:
            notes.append(f"failed: {it.name} {sorted(bad)}")
    for line in notes[:MAX_NOTES]:
        print(line)
    if len(notes) > MAX_NOTES:
        print(f"... {len(notes) - MAX_NOTES} more in the record")
    for hook in missing:
        print(f"missing hook: {hook}")
    print(f"{wl.name}: {len(items)} inputs, {len(passes)} passes,"
          f" record {path.relative_to(ROOT)}")
    print(f"result_mismatches {len(mismatched)} count")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

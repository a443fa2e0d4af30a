#!/usr/bin/env python3
"""Layered benchmark for pvilab: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client, one process, no threads: each op starts when the previous one
has returned.  Ops run in rounds of fixed composition until ``--seconds`` of
op time have passed, then every output is checked.  The last line of stdout
is one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` and ``failed`` count the run's counted block:
the first ``counted_rounds`` rounds of the seed's stream, a number fixed by
the workload and ``--seconds`` alone, which every run completes.  They are
therefore the same in every run of one seed, however fast the host is.  Ops
timed past the block are checked as well; they feed ``ok_ratio``, the
``# failures`` line and ``correct``.

--trace 0 prints the end-to-end metrics: ops_per_norm_s, op_p50_norm_ms,
op_tail_norm_ms, ok_ratio, setup_s and peak_rss_mb; op and set-up timings
are host-normalised (see REF_NOMINAL_S).  --trace 1 runs a fixed block of ops,
alternating untraced and traced passes over it, and prints the per-layer
metrics of ``tracer.py``, the failure tallies of the block and the tracing
overhead; the spans of the first traced pass go to perfbench/out/.

The library is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

import cmath
import time


def ref_loop() -> complex:
    """Fixed pure-Python complex arithmetic, ~0.3-0.4 ms on a 2-vCPU Xeon.
    Its time tracks the host's current speed; see REF_NOMINAL_S."""
    z = 0.3 + 0.2j
    acc = 0j
    for k in range(1000):
        acc += cmath.exp(z * (k * 1e-4)) * (k % 7) - z * acc * 1e-9
    return acc


REF_REPEATS = 3


def ref_seconds(repeats: int = REF_REPEATS) -> float:
    """Median time of ``repeats`` runs of the reference loop."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ref_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


SETUP_REF_REPEATS = 9
_REF_BEFORE_SETUP = ref_seconds(SETUP_REF_REPEATS)
_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("triangle_sweep", "point_eval", "pole_count")
DEFAULT_SEED = 1
# setup_s is the median of this many fresh-interpreter set-ups plus the
# run's own.
SETUP_SAMPLES = 5
# The shared host switches between speeds that differ by ~1.6x within
# seconds, so raw times of whole runs spread by 30%.  Op timings are
# host-normalised: an op's time is multiplied by REF_NOMINAL_S over the mean
# of the reference-loop times measured just before and just after it (each
# the median of REF_REPEATS loops, taken once per REF_INTERVAL_S of op
# time).  REF_NOMINAL_S is the loop's time on a 2-vCPU Intel Xeon in its
# slower state, so normalised times read as seconds on that host.  Set-up
# time is multiplied by the square root of that ratio instead, with the
# loop timed (median of SETUP_REF_REPEATS) in the same interpreter just
# before and after set-up: only part of set-up (bytecode, warm-up) speeds
# up with the host; loading numpy's shared libraries mostly does not.  Over
# 60 fresh interpreters spanning both host speeds, log set-up time against
# log loop time had slope 0.46, and the square root left the medians of the
# fast and slow states 2% apart (raw: 18%).
REF_NOMINAL_S = 400e-6
REF_INTERVAL_S = 0.02


def counted_rounds(wl, seconds: float) -> int:
    """Rounds in the counted block.  ``wl.rounds_per_s`` is a little below
    the workload's round rate on the reference host (see REF_NOMINAL_S) in
    its slower state, so the block takes at most about ``COUNTED_SHARE`` of
    the run there and ends well inside it."""
    return max(1, int(seconds * wl.rounds_per_s * COUNTED_SHARE))


COUNTED_SHARE = 0.5


def load_library() -> bool:
    """Put ``src/`` first on sys.path and make sure pvilab comes from it."""
    src = ROOT / "src"
    if not (src / "pvilab" / "__init__.py").is_file():
        print(f"error: no pvilab sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import pvilab

    if Path(pvilab.__file__).resolve().parent != (src / "pvilab").resolve():
        print(f"error: pvilab imported from {pvilab.__file__}", file=sys.stderr)
        return False
    return True


def setup(name: str, seed: int, workdir: str):
    """Import, kernel warm-up and the first round of inputs."""
    from pvilab import _kernels

    import workloads

    _kernels.warmup()
    wl = workloads.make(name, workdir)
    rng = random.Random(f"{name}:{seed}")
    return wl, rng, wl.make_round(rng)


def run_op(wl, inp, index: int, check: bool = True):
    """One op: returns (seconds, output or the exception raised, Failure or
    None).  Only the library call is timed; the check runs after the clock
    stops."""
    t0 = time.perf_counter()
    try:
        out = wl.op(inp)
    except Exception as exc:  # every failure is tallied by type, never hidden
        return time.perf_counter() - t0, exc, wl.classify(inp, exc)
    dt = time.perf_counter() - t0
    return dt, out, wl.check(inp, out, index) if check else None


def percentile(sorted_values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile; returns (value, samples beyond it)."""
    n = len(sorted_values)
    rank = min(n - 1, max(0, int(-(-q * n // 100)) - 1))
    return sorted_values[rank], n - 1 - rank


def tail(sorted_values, q) -> tuple[float, float, int]:
    """The workload's tail percentile; when it is None, or fewer than ten
    samples lie beyond it, the highest percentile that has ten beyond it."""
    n = len(sorted_values)
    value, beyond = percentile(sorted_values, q if q is not None else 100.0)
    if (q is None or beyond < 10) and n > 10:
        rank = n - 11
        q = 100.0 * (rank + 1) / n
        value, beyond = sorted_values[rank], 10
    return value, q, beyond


def sample_setups(name: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters running the same set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def meta(seed: int) -> dict:
    import numpy

    from pvilab import backend_name

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "backend": backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def tally(failures: dict) -> dict:
    counts: dict[str, int] = {}
    for f in failures.values():
        counts[f.kind] = counts.get(f.kind, 0) + 1
    return dict(sorted(counts.items()))


def failure_metrics(failures: dict, attempted: int) -> dict:
    kinds = [f.kind for f in failures.values()]

    def share(pred):
        return (sum(1 for k in kinds if pred(k)) / attempted, "ratio")

    return {
        "fail_ratio": share(lambda k: True),
        "fail.typed_ratio": share(lambda k: k.startswith("typed:")),
        "fail.untyped_ratio": share(lambda k: k.startswith("untyped:")),
        "fail.check_ratio": share(lambda k: k.startswith(("check:", "exit:"))),
        "fail.IncoherentWinding_ratio": share(lambda k: k == "typed:IncoherentWinding"),
        "fail.ZeroDivisionError_ratio": share(lambda k: k == "untyped:ZeroDivisionError"),
    }


def timed_loop(wl, rng, first_round, seconds: float):
    """Rounds of ops until ``seconds`` of raw op time and at least the
    counted block; stops at round ends.  Returns host-normalised per-op
    latencies, failures by op index, the raw op time and the number of ops
    in the counted block."""
    norm = array("d")
    failures = {}
    busy = 0.0
    batch = first_round
    rounds = 0
    want = counted_rounds(wl, seconds)
    counted = 0
    ref_before = ref_seconds()
    while True:
        pending = []  # raw times of ops since the last reference sample
        since = 0.0
        for i, inp in enumerate(batch):
            dt, _, failure = run_op(wl, inp, len(norm) + len(pending))
            if failure is not None:
                failures[len(norm) + len(pending)] = failure
            pending.append(dt)
            since += dt
            if since >= REF_INTERVAL_S or i == len(batch) - 1:
                ref_after = ref_seconds()
                scale = REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
                norm.extend(x * scale for x in pending)
                busy += since
                ref_before = ref_after
                pending = []
                since = 0.0
        rounds += 1
        if rounds == want:
            counted = len(norm)
        if busy >= seconds and rounds >= want:
            break
        batch = wl.make_round(rng)
    for index, failure in wl.finish().items():
        failures.setdefault(index, failure)
    return norm, failures, busy, counted


def run_untraced(args, wl, rng, first_round, setup_s: float) -> dict:
    import numpy as np

    samples = [setup_s] + sample_setups(args.workload, args.seed)
    norm, failures, raw_busy, counted = timed_loop(wl, rng, first_round, args.seconds)
    n = len(norm)
    ok = n - len(failures)
    counted_failed = sum(1 for index in failures if index < counted)
    # sorted in place, so the benchmark's own memory stays small next to
    # peak_rss_mb
    ordered = np.frombuffer(norm)
    ordered.sort()
    tail_s, tail_q, beyond = tail(ordered, wl.tail_percentile)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# failures " + json.dumps(tally(failures)) + f" over all {n} ops; "
          f"{counted_failed} of the {counted} counted ops failed")
    print(f"# op_tail is p{tail_q:g} over {n} ops ({beyond} beyond it); raw "
          f"{ok / raw_busy:.4g} passed ops/s, host-normalised "
          f"{ok / float(ordered.sum()):.4g}; host-normalised setup samples "
          f"{['%.4f' % s for s in samples]}")
    return {
        "correct": not any(not f.known for f in failures.values()),
        "attempted": counted,
        "failed": counted_failed,
        "metrics": {
            "ops_per_norm_s": (ok / float(ordered.sum()), "1/s"),
            "op_p50_norm_ms": (float(np.median(ordered)) * 1e3, "ms"),
            "op_tail_norm_ms": (tail_s * 1e3, "ms"),
            "ok_ratio": (ok / n, "ratio"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
    }


def run_pass(wl, block, tracer=None, check=False):
    """One pass over the block: (op seconds, output digests, failures)."""
    digests = []
    failures = {}
    busy = 0.0
    for index, inp in enumerate(block):
        if tracer is not None:
            tracer.op = index
        dt, out, failure = run_op(wl, inp, index, check)
        busy += dt
        if isinstance(out, Exception):
            digests.append("raised " + type(out).__name__)
        else:
            digests.append(wl.digest(out))
        if failure is not None:
            failures[index] = failure
    return busy, digests, failures


def run_traced(args, wl, rng, first_round) -> dict:
    import tracer as tracing

    block = list(first_round)
    for _ in range(wl.trace_rounds - 1):
        block.extend(wl.make_round(rng))
    tr = tracing.Tracer()
    plain_walls, traced_walls, summaries = [], [], []
    first_spans = None
    failures = None
    same_outputs = True
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < args.seconds:
        # outputs are checked on the first pass; later passes must match it
        wall, digests, pass_failures = run_pass(wl, block, check=failures is None)
        if failures is None:
            failures = pass_failures
            for index, failure in wl.finish().items():
                failures.setdefault(index, failure)
            reference = digests
        plain_walls.append(wall)
        same_outputs &= digests == reference
        tr.reset()
        tr.install()
        try:
            wall, digests, _ = run_pass(wl, block, tr)
        finally:
            tr.uninstall()
        traced_walls.append(wall)
        same_outputs &= digests == reference
        summaries.append(tracing.summarize(tr.spans))
        if first_spans is None:
            first_spans = list(tr.spans)
    n = len(block)
    metrics = tracing.layer_metrics(summaries, traced_walls, n)
    metrics.update(failure_metrics(failures, n))
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    path = OUT_DIR / f"spans-{args.workload}.json"
    tracing.dump(str(path), first_spans, dict(meta(args.seed), workload=args.workload, ops=n))
    print("# failures " + json.dumps(tally(failures)))
    print(f"# {len(summaries)} traced passes over {n} ops; tracing overhead "
          f"{overhead:+.1%}; outputs identical: {same_outputs}; spans in {path}")
    return {
        "correct": same_outputs and not any(not f.known for f in failures.values()),
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not load_library():
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=str(OUT_DIR))
    try:
        wl, rng, first_round = setup(args.workload, args.seed, workdir)
        raw_setup_s = time.perf_counter() - _T_START
        ref = 0.5 * (_REF_BEFORE_SETUP + ref_seconds(SETUP_REF_REPEATS))
        setup_s = raw_setup_s * (REF_NOMINAL_S / ref) ** 0.5
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("# meta " + json.dumps(meta(args.seed)))
        if args.trace:
            result = run_traced(args, wl, rng, first_round)
        else:
            result = run_untraced(args, wl, rng, first_round, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = {
        k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""torus-embed benchmark. Run from the repository root:

    python3 bench/run.py --workload embed-random --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

One run times IMPORT_REPEATS fresh imports and SETUP_REPEATS builds of the
input pool (`setup_s` is the sum of the two medians, each at reference speed),
then cycles its input pool in a closed loop in WORKERS processes in turn
until `--seconds` have passed, and then runs a few inputs once more under
tracemalloc for `op_peak_mb`. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` alternates traced and untraced ops and reports
the per-layer metrics. The last line of standard output is the result
object; the line before it is the run record (machine, seed, failures by
category, exact sizes), which is also written to bench/results/ together
with the spans of a traced run. `--smoke` runs every workload at n = 4 with
all checks on and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import io
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

SETUP_REPEATS = 3
# fresh imports timed per run; cheap, and the median of several is steadier
IMPORT_REPEATS = 7
# Op times differ between processes by up to 15 % on a shared host, with the
# reference task unmoved (the process's layout in memory), far more than
# within one process; so a run measures in several processes in turn.
WORKERS = 5
SMOKE_POOLS = {"embed-random": 4, "verify-cert": 4, "embed-extreme": 8}
# slack on span nesting, for clock reads a few instructions apart
SPAN_ATOL = 1e-9
# reference-task runs taken before and after each set-up
SETUP_REFS = 5
# median CPU seconds of `reference_task` on the machine the bounds were set
# on (Intel Xeon, Python 3.11); the pool's set-up seconds are reported at
# this speed
REF_NOMINAL_S = 0.004
# median CPU seconds of a fresh interpreter importing numpy alone, on the
# same machine; the package's import is reported at this speed
NUMPY_IMPORT_NOMINAL_S = 0.22


def load_package():
    """Import torus_embed from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "torus_embed", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    mods = types.SimpleNamespace(**{
        name: importlib.import_module("torus_embed." + name)
        for name in ("cli", "pipeline", "almost_regular", "certificate")
    })
    if not os.path.abspath(mods.cli.__file__).startswith(SRC + os.sep):
        return None
    return mods


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def p50_failures_high(values: list[float], failed: int) -> float:
    """Lower median with failed or refused ops ranked above every success; a
    median that lands on one reads as the largest success, and 0 when
    nothing succeeded (such a run is never correct)."""
    ranked = sorted(values) + [math.inf] * failed
    value = ranked[(len(ranked) - 1) // 2]
    if math.isfinite(value):
        return value
    return max(values, default=0.0)


def reference_task() -> float:
    """CPU seconds for a fixed task made of the kinds of work an op does:
    chord sums over big-integer and small polygon steps, 17-digit float
    formatting and JSON parsing. It uses only the standard library, so no
    change to the package moves it; run next to every op, its median tracks
    how fast the machine ran during the measurement, which drifts by tens of
    percent from minute to minute on a shared host."""
    t = time.process_time()
    m = 3**120
    total = 0.0
    for k in range(1500):
        step = (k * 1234567891) % m
        step = min(step, m - step)
        c = 2.0 * math.sin(math.pi * (step / m))
        total += c * c
    for k in range(3000):
        c = 3.0 * math.sin(math.pi * ((k % 3) / 3))
        total += c * c
    doc = json.dumps([[str(k * 7919), format(k * 0.123456789, ".17g")] for k in range(1500)])
    json.loads(doc)
    return time.process_time() - t


def child_cpu_seconds(code: str) -> float:
    """CPU seconds (user + system) of a fresh interpreter running `code`
    with this checkout's sources on its path. The BLAS pool is held to one
    thread: its worker's start-up spin adds about a third, at random."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code,
                    SRC], check=True, env=env)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def import_seconds() -> tuple[float, float]:
    """CPU seconds of a fresh interpreter importing numpy and the package,
    as the `torus-embed` command does before any work, and of one importing
    numpy alone, next to it. Import CPU seconds move by up to 50 % with the
    host's state and do not follow `reference_task`, but the numpy import
    moves with them."""
    return (child_cpu_seconds("import numpy; import torus_embed.cli"),
            child_cpu_seconds("import numpy"))


def set_up(w, seed, workroot, pkg):
    """Set the workload up: a fresh import, IMPORT_REPEATS times, and the
    input pool, SETUP_REPEATS times; `setup_s` is the median import plus
    the median pool. The pool's seconds, which are compute, are scaled by
    the reference task's speed around them, and the import's CPU seconds by
    the numpy import's next to each, so machine drift between runs does not
    show.
    Returns (cases, failed checks, setup_s, raw seconds)."""
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    import_s = statistics.median(pkg * NUMPY_IMPORT_NOMINAL_S / ref for pkg, ref in imports)
    scaled, pools = [], []
    for k in range(SETUP_REPEATS):
        d = os.path.join(workroot, f"setup-{k}")
        os.mkdir(d)
        refs = [reference_task() for _ in range(SETUP_REFS)]
        t = time.perf_counter()
        cases, wrong = workloads.build_pool(w, seed, d, pkg)
        pool_s = time.perf_counter() - t
        refs += [reference_task() for _ in range(SETUP_REFS)]
        pools.append(pool_s)
        scaled.append(pool_s * REF_NOMINAL_S / statistics.median(refs))
    if not cases:
        raise RuntimeError(f"{w.name}: set-up built no input")
    setup_s = import_s + statistics.median(scaled)
    return cases, wrong, setup_s, {"import_s": [pkg for pkg, _ in imports],
                                   "numpy_import_s": [ref for _, ref in imports],
                                   "pool_s": pools}


def measure(w, cases, seconds, trace, workroot):
    """Cycle the pool in order, in WORKERS fresh processes one after
    another, each for an equal share of `seconds`, the last until every
    input has run at least once. Returns (outcomes, loop seconds, reference
    task CPU seconds)."""
    state = os.path.join(workroot, "cases.pickle")
    with open(state, "wb") as fh:
        pickle.dump((w, cases), fh)
    outcomes, ref, loop_s = [], [], 0.0
    for j in range(WORKERS):
        out = os.path.join(workroot, f"worker-{j}.pickle")
        until = len(cases) if j == WORKERS - 1 else 0
        subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", state, out,
                        str(len(outcomes)), str(until), "--seconds", str(seconds / WORKERS),
                        "--trace", str(trace)], check=True)
        with open(out, "rb") as fh:
            part, part_ref, part_s = pickle.load(fh)
        outcomes += part
        ref += part_ref
        loop_s += part_s
    first = {}
    for o in outcomes:
        seen = first.setdefault(o.case, o)
        if (o.rc, o.digest) != (seen.rc, seen.digest):
            o.wrong.append(f"input {o.case} gave a different result on a repeat")
    return outcomes, loop_s, ref


def worker(state, out, start, until, seconds, trace, pkg) -> None:
    """One measuring process: ops `start`, `start + 1`, ... in a closed
    loop until `seconds` have passed and op `until` is reached, each next
    to a run of the reference task. Traced runs trace every other op."""
    with open(state, "rb") as fh:
        w, cases = pickle.load(fh)
    workdir = os.path.dirname(state)
    tracer = spans.Tracer(pkg) if trace else None
    outcomes, ref = [], []
    t0 = time.perf_counter()
    while start + len(outcomes) < until or time.perf_counter() - t0 < seconds:
        i = start + len(outcomes)
        k = i % len(cases)
        traced = tracer is not None and (k + i // len(cases)) % 2 == 0
        ref.append(reference_task())
        o = workloads.run_op(w, k, cases[k], workdir, pkg, i, tracer if traced else None)
        if o.spans is not None:
            o.wrong += spans.nesting_errors(o.spans, SPAN_ATOL)
            o.profile = spans.op_profile(o.spans)
        outcomes.append(o)
    loop_s = time.perf_counter() - t0
    with open(out, "wb") as fh:
        pickle.dump((outcomes, ref, loop_s), fh)


def op_peak_mb(w, cases, outcomes, workdir, pkg) -> tuple[float, list]:
    """Median over the first `w.mem_ops` inputs whose op succeeded of the
    heap growth during one op, each run once more after the timed loop under
    tracemalloc, which slows the op several times over and so never runs in
    the timed loop. A failed op stops early and allocates little, so it
    would pull the median down at random. It counts what Python and numpy
    allocate during the op; imports, set-up and the checks stay out.
    Returns (MB, failed checks)."""
    peaks, wrong = [], []
    ok = [k for k, o in enumerate(outcomes[: len(cases)]) if o.error is None]
    tracemalloc.start()
    try:
        for k in ok[: w.mem_ops]:
            argv = workloads.op_argv(w, cases[k], workdir)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rc, _ = workloads.guarded(pkg.cli.main, argv, io.StringIO(), io.StringIO())
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            if rc != outcomes[k].rc:
                wrong.append(f"memory pass: input {k} gave exit {rc}, "
                             f"timed pass exit {outcomes[k].rc}")
    finally:
        tracemalloc.stop()
    return (statistics.median(peaks) / 2**20 if peaks else 0.0), wrong


def run_workload(w, seed, seconds, trace, pkg):
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workroot = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "_work"))
    try:
        cases, setup_wrong, setup_s, setup_raw = set_up(w, seed, workroot, pkg)
        setup_wrong += workloads.check_pool(cases, pkg)
        outcomes, loop_s, ref = measure(w, cases, seconds, trace, workroot)
        if not trace:
            peak_mb, mem_wrong = op_peak_mb(w, cases, outcomes, workroot, pkg)
            setup_wrong += mem_wrong
    finally:
        shutil.rmtree(workroot)

    # an op is ok when it gave the expected result and passed every check;
    # a typed refusal (known defects, embed-extreme only) is not ok, but it
    # is the package's documented outcome, so only the other ops failed
    ok = [o for o in outcomes if o.error is None and not o.wrong]
    not_ok = len(outcomes) - len(ok)
    failed = sum(1 for o in outcomes if o.wrong or (o.error is not None and not o.refused))
    first_pass = outcomes[: len(cases)]
    first_ok = [o for o in first_pass if o.error is None and not o.wrong]
    first_not_ok = len(first_pass) - len(first_ok)
    wrong = setup_wrong + [f"op {i}: {msg}" for i, o in enumerate(outcomes) for msg in o.wrong]
    wrong += [f"op {i}: {o.error}" for i, o in enumerate(outcomes)
              if o.error is not None and not o.refused]
    categories = {}
    for o in first_pass:
        if o.error is not None:
            categories[o.error] = categories.get(o.error, 0) + 1
    ok_s = [o.seconds for o in ok]
    ok_cpu = [o.cpu for o in ok]
    if not first_ok:
        wrong.append("no op succeeded")

    e2e = {
        "setup_s": setup_s,
        "op_ref_p50": p50_failures_high(ok_cpu, not_ok) / statistics.median(ref),
        "ok_ratio": len(first_ok) / len(first_pass),
    }
    if not trace:
        e2e["op_peak_mb"] = peak_mb
    for key, metric in (("bytes", "cert_bytes_p50"), ("factors", "factors_p50"),
                        ("m_bits", "m_bits_p50")):
        vals = [o.sizes[key] for o in first_ok]
        e2e[metric] = p50_failures_high(vals, first_not_ok)

    layer = {}
    if trace:
        traced = [o for o in outcomes if o.traced]
        layer = spans.summarize([o.profile for o in traced])
        layer["trace.overhead_ratio"] = statistics.median(
            o.seconds for o in traced
        ) / statistics.median(o.seconds for o in outcomes if not o.traced)

    max_rel = [o.sizes["max_rel"] for o in first_ok if "max_rel" in o.sizes]
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(),
        "n_points": w.n,
        "pool": len(cases),
        "workers": WORKERS,
        "passes": len(outcomes) / len(cases),
        "loop_s": loop_s,
        "setup_raw_s": setup_raw,
        "ops": len(outcomes),
        "ops_ok": len(ok),
        "ref_cpu_s_p50": statistics.median(ref),
        "op_cpu_s_p50": p50_failures_high(ok_cpu, not_ok),
        "op_s_p50": p50_failures_high(ok_s, not_ok),
        "op_s_ok": {
            "p50": statistics.median(ok_s) if ok_s else None,
            "p90": statistics.quantiles(ok_s, n=10)[-1] if len(ok_s) > 1 else None,
        },
        "fail_ratio": first_not_ok / len(first_pass),
        "refused": sum(o.refused for o in outcomes),
        "failures": dict(sorted(categories.items())),
        "sizes_ok": {
            key: sorted(o.sizes[key] for o in first_ok)
            for key in ("bytes", "factors", "m_bits")
        },
        "max_rel_err": max(max_rel) if max_rel else None,
        "wrong": wrong[:20],
        "e2e": e2e,
        "per_layer": layer,
    }
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
    }
    span_rows = [
        s.as_dict() for o in outcomes if o.spans is not None for s in o.spans
    ]
    return result, e2e, layer, record, span_rows


def declared_metrics() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def select(values: dict, units: dict, default=None) -> dict:
    """The declared metrics, in declared order; a layer an op never entered
    reads `default`, any other gap is an error."""
    missing = [name for name in units if name not in values]
    if missing and default is None:
        raise KeyError(f"metrics not computed: {missing}")
    return {name: {"value": float(values.get(name, default)), "unit": unit}
            for name, unit in units.items()}


def save(record, span_rows, w, seed, trace):
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{w.name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if span_rows:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for row in span_rows:
                fh.write(json.dumps(row) + "\n")


def smoke(pkg, declared) -> int:
    """Every workload at n = 4, both modes, every check on."""
    status = 0
    for name in declared["workloads"]:
        w = dataclasses.replace(workloads.WORKLOADS[name], n=4, pool=SMOKE_POOLS[name])
        for trace in (0, 1):
            result, e2e, layer, record, _ = run_workload(w, 0, 0.0, trace, pkg)
            if trace:
                metrics = select(layer, declared["per_layer"], default=0.0)
            else:
                metrics = select(e2e, declared["end_to_end"])
            good = result["correct"] and all(
                math.isfinite(m["value"]) for m in metrics.values()
            )
            status |= not good
            print(f"{'ok  ' if good else 'FAIL'} {name} trace={trace} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failures={record['failures']} wrong={record['wrong']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--worker", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pkg = load_package()
    if pkg is None:
        print(f"bench: no torus_embed sources under {SRC}", file=sys.stderr)
        return 2
    # the CLI reads its default tolerance from here; the benchmark fixes it
    os.environ.pop("TORUS_EMBED_TOL", None)
    if args.worker:
        state, out, start, until = args.worker
        worker(state, out, int(start), int(until), args.seconds, args.trace, pkg)
        return 0
    declared = declared_metrics()
    if args.smoke:
        return smoke(pkg, declared)
    if args.workload not in declared["workloads"]:
        parser.error(f"--workload must be one of {declared['workloads']}")
    w = workloads.WORKLOADS[args.workload]
    result, e2e, layer, record, span_rows = run_workload(
        w, args.seed, args.seconds, args.trace, pkg
    )
    save(record, span_rows, w, args.seed, args.trace)
    if args.trace:
        result["metrics"] = select(layer, declared["per_layer"], default=0.0)
    else:
        result["metrics"] = select(e2e, declared["end_to_end"])
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The frickelab benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; frickelab is imported from ``src/``.  The
seed makes the workload's op pool (``workloads.py``); one process then runs
whole passes over the pool, one op at a time, until ``--seconds`` of
passes have run.  Every output is checked afterwards against the benchmark's own
references (``ref.py``), outside the timed region.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (``trace.py``)
and the tracing overhead against an untraced run in the same process.
Lines before it give the run's determinism fingerprint (identical for
identical seeds), the known-defect probe counts and, when traced, each
layer's self seconds per pass.  Fingerprints and spans are also written
to ``.perfbench_out/``.  METRICS.md says why each workload and metric
was chosen.
"""
import time

SETUP_START = time.perf_counter()  # before frickelab is imported

import argparse  # noqa: E402
import array  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("secant-heights", "sections-recurrences", "cli-mixed")
MIN_OPS = 1000  # >= 10 samples beyond the p99; every pool is larger
SETUP_REPEATS = 4  # fresh-process set-ups on top of the run's own
COLD_STARTS = 30
LATENCY_SLOTS = 1 << 18  # preallocated, so peak RSS does not grow with speed

# Latencies are reported at a reference machine speed.  Other tenants of a
# shared machine slow every instruction, by up to half for seconds to
# minutes at a time; a fixed stdlib kernel timed every few milliseconds
# slows alike, and scaling each op by PROBE_REFERENCE_S / (the kernel's
# recent time) cancels the slowdown.  PROBE_REFERENCE_S is the kernel's
# time on an idle 2-core x86-64 VM running CPython 3.11.
PROBE_INTS = (3**700, 7**400 + 1)
PROBE_FRACS = tuple(Fraction((1 << 40) + 977 * i, (1 << 39) + 131 * i) for i in range(1, 9))
PROBE_REFERENCE_S = 70e-6
PROBE_EVERY_NS = 2_000_000


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int):
    """Import frickelab from src/, build the seeded pool, warm every op kind."""
    if not os.path.isfile(os.path.join(SRC, "frickelab", "__init__.py")):
        sys.exit(f"error: no frickelab sources under {SRC}")
    sys.path.insert(0, SRC)
    import frickelab
    import ref
    import workloads

    if not os.path.abspath(frickelab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: frickelab imported from {frickelab.__file__}, not from {SRC}")
    pool, params = workloads.POOLS[workload](random.Random(seed))

    smallest = {}
    for kind, fn, args in pool:
        size = ref.bits(args)
        if kind not in smallest or size < smallest[kind][0]:
            smallest[kind] = (size, fn, args)
    for _size, fn, args in smallest.values():
        try:
            fn(*args)
        except Exception:  # checked when the op runs in the loop
            pass
    # the pool lives for the whole run: keep the collector from rescanning it
    gc.collect()
    gc.freeze()
    return frickelab, workloads, pool, params


def probe() -> float:
    """Seconds of a fixed ~70 µs stdlib kernel: how fast the machine runs now.

    Big-integer products, small fractions, dict and str work: what
    frickelab's ops spend their time on, without any frickelab code.
    """
    t0 = time.perf_counter()
    a, b = PROBE_INTS
    for _ in range(3):
        (a * b) % (b - 12345)
    for x, y in zip(PROBE_FRACS, PROBE_FRACS[1:]):
        (x * y - x) / (y + 1)
    keys = {str(i): i for i in range(60)}
    "-".join(sorted(keys))
    return time.perf_counter() - t0


def speed_scale() -> float:
    """PROBE_REFERENCE_S over the median of five probes: the factor to reference speed."""
    return PROBE_REFERENCE_S / statistics.median(probe() for _ in range(5))


def timed_loop(pool, seconds: float, outputs: list, latencies, side_tasks=()):
    """Whole passes over the pool, one op at a time, for `seconds` of passes.

    The first pass fills `outputs`; later passes compare against it.  Op i
    of pass k has its latency, scaled to reference speed, at
    latencies[k * len(pool) + i]: every PROBE_EVERY_NS, and after every
    op that long, the loop times probe() between two ops; each op's
    latency is multiplied by PROBE_REFERENCE_S over the median of the last
    five probes (a long op by the mean of that before and after it).  The side
    tasks run between passes, spread in step with the passes' progress, so
    they sample the machine across the whole run.  Returns (raw wall
    seconds of each pass, mismatching outputs, side task results).
    """
    from workloads import Raised

    clock = time.perf_counter_ns
    fill = not outputs
    mismatches = ops = 0
    walls, todo, done = [], list(side_tasks), []
    recent = [probe() for _ in range(5)]
    scale = PROBE_REFERENCE_S / statistics.median(recent)
    last_probe = clock()
    while True:
        pass_start = time.perf_counter()
        for i, (_kind, fn, args) in enumerate(pool):
            t0 = clock()
            if t0 - last_probe >= PROBE_EVERY_NS:
                recent = recent[1:] + [probe()]
                scale = PROBE_REFERENCE_S / statistics.median(recent)
                t0 = last_probe = clock()
            try:
                out = fn(*args)
            except Exception as exc:
                out = Raised(exc)
            dt = clock() - t0
            if dt >= PROBE_EVERY_NS:  # a long op: use the speed before and after it
                recent = recent[1:] + [probe()]
                after = PROBE_REFERENCE_S / statistics.median(recent)
                dt *= (scale + after) / 2
                scale, last_probe = after, clock()
            else:
                dt *= scale
            if ops < len(latencies):
                latencies[ops] = dt
            else:
                latencies.append(dt)
            ops += 1
            if fill:
                outputs.append(out)
            elif out != outputs[i]:
                mismatches += 1
        walls.append(time.perf_counter() - pass_start)
        fill = False
        if sum(walls) >= seconds and ops >= MIN_OPS:
            return walls, mismatches, done + [task() for task in todo]
        due = math.ceil(len(side_tasks) * sum(walls) / seconds)
        while todo and len(done) < due:
            done.append(todo.pop(0)())


def pass_seconds(n: int, passes: int, latencies) -> list[float]:
    """Each pass's summed scaled op latencies, in seconds."""
    return [sum(latencies[k * n : (k + 1) * n]) / 1e9 for k in range(passes)]


def loop_stats(pool, walls, latencies) -> dict:
    """Throughput (median over passes) and latency percentiles over all ops, at reference speed.

    A pass's throughput is its op count over the sum of its scaled latencies.
    """
    n = len(pool)
    rates = [n / s for s in pass_seconds(n, len(walls), latencies)]
    lat = sorted(latencies[i] / 1e6 for i in range(n * len(walls)))
    return {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(lat),
        "latency_p99_ms": statistics.quantiles(lat, n=100)[98],
    }


def check_outputs(workloads, pool, outputs):
    """Per pool index: True/False for ordinary ops, and the probe results apart."""
    results, probes = [], []
    for (kind, _fn, args), out in zip(pool, outputs):
        try:
            ok = workloads.check(kind, args, out)
        except Exception:  # an output of unexpected shape
            ok = False
        (probes if kind in workloads.PROBE_KINDS else results).append(ok)
    return results, probes


def histogram(values, key) -> dict:
    out: dict = {}
    for v in values:
        k = str(key(v))
        out[k] = out.get(k, 0) + 1
    return dict(sorted(out.items()))


def encode(value) -> str:
    """Exact text of a plain output; integers in hex, which has no length limit."""
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, int):
        return hex(value)
    if isinstance(value, Fraction):
        return f"{value.numerator:#x}/{value.denominator:#x}"
    if isinstance(value, tuple):
        return "(" + ",".join(encode(v) for v in value) + ")"
    return repr(value)


def fingerprint(workloads, pool, outputs, params) -> dict:
    """Exact, seed-determined facts of one pass: output digest, branches, histograms."""
    digest = hashlib.sha256()
    branches = {"finite": 0, "infinite": 0, "undefined": 0}
    for (kind, _fn, _args), out in zip(pool, outputs):
        digest.update(encode((kind, workloads.plain(out))).encode())
        b = workloads.branch(kind, out)
        if b is not None:
            branches[b] = branches.get(b, 0) + 1
    keys = {
        "bits": lambda v: 8 * (v // 8),
        "r": lambda v: 1 << (v.bit_length() - 1),
        "n0": lambda v: v,
        "depth": lambda v: v,
    }
    hists = {name: histogram(vals, keys[name]) for name, vals in params.items()}
    kinds = histogram([kind for kind, _fn, _args in pool], lambda k: k)
    return {
        "digest": digest.hexdigest(),
        "ops_per_pass": len(pool),
        "kinds": kinds,
        "branches": branches,
        "histograms": hists,
    }


def setup_probe(args) -> tuple[str, float]:
    """Set-up seconds of one fresh benchmark process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"set-up process failed: {res.stderr.strip()}")
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    return ("setup", doc["setup_s"] * doc["scale"])


def cold_start(workloads, env, argv, spec) -> tuple[str, float, bool]:
    """Wall ms of one `python -m frickelab.cli ...` process at reference speed, and its check.

    The speed is the mean of the scales measured just before and just after.
    """
    before = speed_scale()
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "frickelab.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    ms = (time.perf_counter() - t0) * 1e3 * (before + speed_scale()) / 2
    traceback = "Traceback (most recent call last)" in res.stderr
    return ("cold", ms, workloads.check_cli(spec, (res.returncode, res.stdout, traceback)))


def side_tasks(args, workloads) -> list:
    """COLD_STARTS seeded CLI processes with SETUP_REPEATS set-ups spread among them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    rng = random.Random(f"cold-start-{args.seed}")
    tasks = [
        functools.partial(cold_start, workloads, env, argv, spec)
        for argv, spec in workloads.cold_start_argvs(rng, COLD_STARTS)
    ]
    step = len(tasks) // SETUP_REPEATS
    for k in range(SETUP_REPEATS):
        tasks.insert(k * (step + 1) + step // 2, functools.partial(setup_probe, args))
    return tasks


def metric(value, unit):
    return {"value": value, "unit": unit}


def write_out(name: str, doc: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    frickelab, workloads, pool, params = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - SETUP_START
    setup_scale = speed_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "scale": setup_scale}))
        return 0

    outputs: list = []
    latencies = array.array("d", bytes(8 * LATENCY_SLOTS))
    if args.trace:
        import trace

        # untraced reference for the overhead, then the traced loop
        base, base_bad, _ = timed_loop(pool, args.seconds / 2, outputs, latencies)
        base_s = pass_seconds(len(pool), len(base), latencies)
        tracer = trace.Tracer()
        tracer.install(frickelab)
        traced = [(k, tracer.op_runner(k), (fn, *a)) for k, fn, a in pool]
        timed, bad, _ = timed_loop(traced, args.seconds, outputs, latencies)
        bad += base_bad
        total_passes = len(timed) + len(base)
    else:
        timed, bad, side = timed_loop(
            pool, args.seconds, outputs, latencies, side_tasks(args, workloads)
        )
        total_passes = len(timed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes, wall = len(timed), sum(timed)
    total_ops = total_passes * len(pool)

    results, probes = check_outputs(workloads, pool, outputs)
    probe_count = len(probes) * total_passes
    probe_failed = probes.count(False) * total_passes
    attempted = total_ops - probe_count
    failed = results.count(False) * total_passes + bad
    print_fp = fingerprint(workloads, pool, outputs, params)
    print(json.dumps({"fingerprint": print_fp}, sort_keys=True))
    print(json.dumps({"probes": {"attempted": probe_count, "failed": probe_failed}}))

    if args.trace:
        stats = tracer.layer_stats()
        metrics, layers = {}, {}
        for name in trace.LAYER_NAMES:
            calls, ns = stats[name]
            metrics[f"{name}.calls"] = metric(calls // passes, "count")
            metrics[f"{name}.share"] = metric(ns / 1e9 / wall, "share")
            layers[name] = {"calls_per_pass": calls // passes, "self_s_per_pass": ns / 1e9 / passes}
        print(json.dumps({"layers": layers}))
        per_op = stats["exact.surface_defect"][0] / (passes * len(pool))
        metrics["exact.surface_defect.calls_per_op"] = metric(per_op, "count/op")
        for b in ("finite", "infinite", "undefined"):
            metrics[f"compose.branch.{b}"] = metric(print_fp["branches"][b], "count")
        out_bits = sorted(workloads.ref.bits(workloads.plain(o)) for o in outputs)
        metrics["ops.bits_out_p50"] = metric(statistics.median(out_bits), "bits")
        metrics["ops.bits_out_max"] = metric(out_bits[-1], "bits")
        traced_s = pass_seconds(len(pool), passes, latencies)
        overhead = statistics.median(traced_s) / statistics.median(base_s) - 1
        metrics["trace.overhead_share"] = metric(overhead, "share")
        metrics["probe.attempted"] = metric(probe_count, "count")
        metrics["probe.failed"] = metric(probe_failed, "count")
        tracer_doc = {"fingerprint": print_fp, "layers": layers, "names": tracer.names}
        tracer_doc.update(dropped=tracer.dropped, spans=tracer.spans)
        write_out(f"{args.workload}-seed{args.seed}-trace.json", tracer_doc)
    else:
        stats = loop_stats(pool, timed, latencies)
        setups = [setup_s * setup_scale] + [r[1] for r in side if r[0] == "setup"]
        cold = [r[1] for r in side if r[0] == "cold"]
        attempted += len(cold)
        failed += sum(not r[2] for r in side if r[0] == "cold")
        metrics = {
            "ops_per_s": metric(stats["ops_per_s"], "1/s"),
            "latency_p50_ms": metric(stats["latency_p50_ms"], "ms"),
            "latency_p99_ms": metric(stats["latency_p99_ms"], "ms"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "cold_start_ms": metric(statistics.median(cold), "ms"),
        }
        write_out(f"{args.workload}-seed{args.seed}.json", {"fingerprint": print_fp})

    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

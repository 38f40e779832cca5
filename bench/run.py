"""laakso benchmark: one closed-loop client runs a named workload.

    python3 bench/run.py --workload {mesh,analytic,cli} --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere; the package is imported from the ``src/`` next to this
directory, never from an installed copy.  Inputs come from ``--seed``; passes
over the workload's fixed task list repeat until another pass would overrun
``--seconds``.  Every task's output is checked.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` a separate run makes traced passes and reports the
per-layer ones (see tracing.py).  Layers the workload never calls
are measured on the smoke-size tasks of the other workloads, so every
per-layer metric is a measurement on every run; read each on the workload
that baseline.json maps it to.

Human-readable lines (environment, samples, error rate) come first; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  The environment, samples and (traced) spans are also written to
``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import os

# Two BLAS threads, one per core of the 2-core sandbox the baseline was
# measured on: in alternating mesh passes they spread less than one thread
# did (see baseline.json), and the client adds no threads of its own.
BLAS_THREADS = "2"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import tracing
import workloads
from spawn import Spawner

ROOT = workloads.ROOT
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# fresh set-up processes per run, spread between the passes: one probe varies
# by up to ~1.5x with the machine, so setup_s is the median of many
SETUP_PROBES = 9
IMPORT_PROBES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_laakso():
    if not os.path.isfile(os.path.join(SRC, "laakso", "__init__.py")):
        raise SystemExit(f"no laakso package under {SRC}: run from a full checkout")
    sys.path.insert(0, SRC)
    import laakso
    import laakso.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(laakso.__file__))) != SRC:
        raise SystemExit(f"imported laakso from {laakso.__file__}, not from {SRC}")
    return laakso


def set_up(args, spawner):
    """Import, generate inputs, run one small warm-up task per task type."""
    laakso = import_laakso()
    workload = workloads.WORKLOADS[args.workload](laakso, args.seed, args.smoke, spawner)
    workload.warm_up()
    return laakso, workload


def probe_seconds(spawner, argv, probes):
    """Wall seconds of each of `probes` fresh processes running argv."""
    times = []
    for _ in range(probes):
        start = perf_counter()
        code, _, stderr, _ = spawner.run(argv, cwd=ROOT)
        times.append(perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}: {stderr.strip()[-500:]}")
    return times


def setup_samples(args, spawner, probes):
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    return probe_seconds(spawner, argv + (["--smoke"] if args.smoke else []), probes)


def import_samples(spawner):
    code = f"import sys; sys.path.insert(0, {SRC!r}); from time import perf_counter as c; t = c(); import laakso; print(c() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        status, out, stderr, _ = spawner.run([sys.executable, "-c", code], cwd=ROOT)
        if status != 0:
            raise RuntimeError(f"import probe exited {status}: {stderr.strip()[-500:]}")
        times.append(float(out))
    return times


def timed(fn, *args):
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def repeat_until(seconds, one_pass, between=None):
    """Run one_pass(), which returns its duration, until another pass of
    median length would take the summed durations past `seconds`; call
    between() after each pass, outside the summed time."""
    durations = []
    while not durations or sum(durations) + statistics.median(durations) <= seconds:
        durations.append(one_pass())
        if between is not None:
            between()
    return durations


def openblas_info():
    """Version string and live thread count of each OpenBLAS loaded here."""
    libs = []
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path not in libs:
                libs.append(path)
    info = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry.update(config=config().decode(), threads=threads())
        info.append(entry)
    return info


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unknown ({err})"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args, laakso):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "blas_threads_setting": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "laakso_source": os.path.relpath(laakso.__file__, ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
    }


def declared_metrics(kind):
    """(name, unit) of the metrics BENCHMARK.json lists under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def end_to_end(args, spawner, workload, client):
    setups = []

    def probe():
        if len(setups) < SETUP_PROBES:
            setups.extend(setup_samples(args, spawner, 1))

    passes = repeat_until(args.seconds, lambda: timed(workload.run_pass, client), between=probe)
    setups.extend(setup_samples(args, spawner, SETUP_PROBES - len(setups)))
    if args.workload == "cli":
        peak = max(max(v) for v in workload.rss_mb.values())
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    task = workload.latency_task  # None pools every task
    latencies = [t for n, t in client.latencies if task in (None, n)]
    samples = {"pass_s": passes, "setup_s": setups, "task_latency_s": latencies}
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "peak_rss_mb": peak,
        "command_p50_s": statistics.median(latencies),
    }
    return metrics, samples


def per_layer(args, spawner, laakso, workload, client):
    tracer = tracing.Tracer(laakso)
    traced, run_ids = [], []

    def one_round():
        start = perf_counter()
        if args.workload == "cli":
            workload.run_pass(client)  # fresh processes: cli.<command>.{s,rss_mb}
        run_ids.append(f"pass{len(run_ids)}")
        traced.append(timed(tracer.run, run_ids[-1], workload.in_process_pass, client))
        return perf_counter() - start

    repeat_until(args.seconds, one_round)
    metrics = tracing.median_metrics(tracer, run_ids)
    per_pass = Counter(s.run_id for s in tracer.spans)
    spans = statistics.median(per_pass[r] for r in run_ids)
    span_cost = tracing.wrapper_cost(laakso)

    # layers this workload never calls: the smoke tasks of the others
    cli = workload if args.workload == "cli" else None
    for name, cls in workloads.WORKLOADS.items():
        if name == args.workload:
            continue
        cover = cls(laakso, args.seed, True, spawner)
        if name == "cli":
            cover.run_pass(client)
            cli = cover
        tracer.run(f"cover-{name}", cover.in_process_pass, client)
        for key, value in tracing.median_metrics(tracer, [f"cover-{name}"]).items():
            metrics.setdefault(key, value)

    for name, _ in cli.commands:
        metrics[f"cli.{name}.s"] = statistics.median(t for n, t in client.latencies if n == name)
        metrics[f"cli.{name}.rss_mb"] = statistics.median(cli.rss_mb[name])
    imports = import_samples(spawner)
    metrics["import.laakso_s"] = statistics.median(imports)
    # what the wrappers add to one traced pass: a difference of pass times
    # would be lost in the machine's noise
    metrics["trace.overhead_s"] = spans * span_cost
    print(f"trace overhead: {spans:g} spans per pass x {span_cost * 1e6:.3f} us per span")
    samples = {"traced_pass_s": traced, "import_laakso_s": imports}
    return metrics, samples, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    with Spawner() as spawner:
        return run(args, spawner)


def run(args, spawner) -> int:
    laakso, workload = set_up(args, spawner)
    if args.setup_probe:
        return 0
    env = environment(args, laakso)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    client = workloads.Client()
    tracer = None
    if args.trace:
        values, samples, tracer = per_layer(args, spawner, laakso, workload, client)
        declared = declared_metrics("per_layer")
    else:
        values, samples = end_to_end(args, spawner, workload, client)
        declared = declared_metrics("end_to_end")
    missing = [name for name, _ in declared if name not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}

    for key, series in samples.items():
        print(f"samples {key}: n={len(series)} median={statistics.median(series):.6g} "
              f"min={min(series):.6g} max={max(series):.6g}")
    print(f"error_rate {client.failed}/{client.attempted} = {client.failed / client.attempted:.6g}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "metrics": metrics, "samples": samples,
                   "attempted": client.attempted, "failed": client.failed}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")

    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

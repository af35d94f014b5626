"""Pipeline benchmark: stage times, detection quality and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_gated --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --workload dense_capture --seed 1 --seconds 1 \
        --trace 1

One process runs one workload: it writes the workload's inputs from the
seed, then calls the ``trafficlab`` subcommands in-process, checks every
output, and repeats the whole pipeline, each time in a fresh directory, for
as long as another repetition still ends within ``--seconds`` (at least
once).  ``--trace 0`` reports the end-to-end metrics, with stage times in
units of a reference probe timed in between (refprobe.py); ``--trace 1``
runs traced pipelines the same way, then one untraced pipeline, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object; see README.md for every metric.  The
exit status is 0 when every operation passed its check, 1 when one failed
and 2 on a usage error or when the checkout has no ``src/trafficlab``.
"""
import os
import sys

# pinned before numpy is imported: the numpy backend, one BLAS/OpenMP thread
PINNED_ENV = {"TRAFFICLAB_PURE": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trafficlab", "__init__.py")):
        print(f"error: no trafficlab sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (imports trafficlab from SRC)

    work = workloads.WORKLOADS.get(args.workload)
    if work is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        work.write_inputs(args.setup_probe, args.seed)
        work.load_network()
        return 0

    scratch = os.path.join(ROOT, ".perfbench_work",
                           f"{work.name}-{args.seed}-{os.getpid()}")
    try:
        return _run(args, work, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(scratch))


def _run(args, work, scratch) -> int:
    import layers
    import native_check
    from trafficlab import kernels

    setup_s = _median_setup(args, scratch)
    net = work.load_network()
    env = _environment(kernels)
    print("env " + json.dumps(env, sort_keys=True))

    attempted, failed = 1, 0  # the backend check is one operation
    if kernels.ACTIVE_BACKEND != "python":
        failed += 1
        print(f"FAIL backend: {kernels.ACTIVE_BACKEND!r}, expected the "
              "numpy backend ('python')")
    native = native_check.native_module()
    if native is not None:
        attempted += 1
        bad = native_check.cross_check(native, args.seed)
        if bad:
            failed += 1
            print(f"FAIL native cross-check: {', '.join(bad)} differ "
                  "between the compiled and numpy backends")

    # pipelines repeat while another one still ends within --seconds; a
    # traced run then adds one untraced pipeline for the overhead
    records = []
    start = time.perf_counter()
    while failed == 0:
        done = bool(records) and (time.perf_counter() - start + min(
            r["wall"] for r in records) > args.seconds)
        if done and not (args.trace and records[-1]["traced"]):
            break
        traced = bool(args.trace) and not done
        root = os.path.join(scratch, f"iter_{len(records)}")
        t0 = time.perf_counter()
        rec = _iteration(work, root, args.seed, net, traced)
        rec["wall"] = time.perf_counter() - t0
        rec["traced"] = traced
        attempted += rec["attempted"]
        failed += rec["failed"]
        records.append(rec)
        shutil.rmtree(root, ignore_errors=True)
        print(f"iteration {len(records) - 1} traced={int(traced)} " + " ".join(
            f"{k}_s={v:.3f}" for k, v in layers.stage_seconds(rec).items()))

    if failed == 0 and not _consistent(records):
        failed += 1
    correct = failed == 0
    if correct:
        for path, sha in sorted(records[0]["digests"].items()):
            print(f"sha256 {sha} {path}")
        if args.trace:
            counts = json.dumps(records[0]["spans"]["counts"], sort_keys=True)
            print(f"sha256 {hashlib.sha256(counts.encode()).hexdigest()} "
                  "(traced counters)")
        quality = records[0]["quality"]
        print("quality " + " ".join(f"{k}={_fmt(quality.get(k))}"
                                    for k in layers.QUALITY))
    metrics = {}
    if correct:
        if args.trace:
            metrics = layers.per_layer_metrics(records)
        else:
            metrics = _end_to_end(records, setup_s)
    for name, m in metrics.items():
        print(f"metric {name}={m['value']!r} {m['unit']}")
    result = {"correct": correct, "attempted": attempted,
              "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


def _iteration(work, root, seed, net, traced) -> dict:
    """One whole pipeline in a fresh directory, each stage called once.
    The reference probe runs before every stage and after the last, and
    in an untraced pipeline also ahead of the stage-level calls inside a
    stage, with its time taken out of the stage's.  The checks run after
    every call, outside the timed region and with tracing off."""
    import layers
    import refprobe
    import workloads
    from trafficlab.cli import main as cli_main

    cfg = work.write_inputs(root, seed)
    times: dict = {}
    probe: list = []
    tracer = layers.full_tracer() if traced else layers.stage_tracer(
        lambda: refprobe.sample(probe))
    attempted = failed = 0
    with open(os.path.join(root, "stdout.log"), "w", encoding="utf-8") as log:
        for group, argv, check in work.stages(root, cfg, net):
            refprobe.sample(probe)
            attempted += 1
            probed = tracer.before_s
            t0 = time.perf_counter()
            try:
                with tracer, contextlib.redirect_stdout(log):
                    rc = cli_main(argv)
                wall = time.perf_counter() - t0 - (tracer.before_s - probed)
                if rc != 0:
                    raise workloads.CheckFailed(f"exit status {rc}")
                check()
            except Exception as exc:  # a failed operation, reported below
                failed += 1
                print(f"FAIL {argv[0]}: {exc!r}")
                traceback.print_exc(file=sys.stderr)
                break
            times[group] = times.get(group, 0.0) + wall
    refprobe.sample(probe)
    rec = {"attempted": attempted, "failed": failed, "times": times,
           "probe": probe,
           "spans": tracer.snapshot(),
           "digests": {}, "quality": {}}
    if failed:
        return rec
    rec["digests"] = {p: workloads.digest(os.path.join(root, p))
                      for p in work.artifacts(root)}
    report = work.report_path(root)
    if report:
        from trafficlab.metrics import read_report
        try:
            rec["quality"] = {k: v for k, v in read_report(report).items()
                              if k in layers.QUALITY}
        except (OSError, ValueError) as exc:
            rec["failed"] = 1
            print(f"FAIL report: {exc!r}")
    return rec


def _consistent(records) -> bool:
    """Every iteration of a run must write the same files and, when
    traced, count the same work."""
    first = records[0]
    for rec in records[1:]:
        if rec["digests"] != first["digests"]:
            print("FAIL determinism: artifact digests differ between "
                  "iterations of one seed")
            return False
    traced = [r for r in records if r["traced"]]
    for rec in traced[1:]:
        if rec["spans"]["counts"] != traced[0]["spans"]["counts"]:
            print("FAIL determinism: traced counters differ between "
                  "iterations of one seed")
            return False
    return True


def _end_to_end(records, setup_s) -> dict:
    """Stage times are medians over the run's pipelines, in units of the
    reference probe's median time over the same run; the seconds they
    come from are printed too."""
    import layers

    stage = [layers.stage_seconds(r) for r in records]
    probes = [t for r in records for t in r["probe"]]
    probe = statistics.median(probes)
    pipeline = statistics.median(s["pipeline"] for s in stage)
    simulate = statistics.median(s["simulate"] for s in stage)
    print(f"seconds pipeline_s={pipeline!r} simulate_s={simulate!r} "
          f"probe_s={probe!r} ({len(probes)} probes, {len(records)} "
          "pipelines)")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pipeline_ref": {"value": pipeline / probe, "unit": "ref"},
        "simulate_ref": {"value": simulate / probe, "unit": "ref"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def _median_setup(args, scratch) -> float:
    """Interpreter start to the first stage call, in fresh interpreters:
    package import, writing the inputs, loading and validating the
    network.  The median of several probes."""
    walls = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe",
               os.path.join(scratch, f"setup_{k}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return statistics.median(walls)


def _environment(kernels) -> dict:
    import numpy

    return {"backend": kernels.ACTIVE_BACKEND, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(), "threads": PINNED_ENV}


def _git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown'
    outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fmt(v) -> str:
    return "undefined" if v is None else repr(v)


if __name__ == "__main__":
    sys.exit(main())

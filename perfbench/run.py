"""spinelab benchmark runner (stdlib only).

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a spinelab checkout; spinelab is imported from the
checkout's ``src/``.  With ``--trace 0`` it times set-up in fresh
interpreters, then repeats whole passes of the workload's fixed work while
one more should end within ``--seconds`` (at least one pass), and reports
the medians of the end-to-end metrics.  Times are reported in seconds at a
fixed reference speed of the host, which ``probe.py`` samples during the
work.  With ``--trace 1`` it runs the work once untraced and once with
every spinelab layer wrapped, and reports the per-layer metrics.  Every
pass checks its outputs; failed checks are counted in ``failed`` and make
``correct`` false.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from probe import SpeedProbe, burst, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
SETUP_CHILD = os.path.join(HERE, "setup_child.py")
# set-up is timed at least SETUP_MIN_REPEATS times and for SETUP_MIN_S
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
SETUP_TIMEOUT_S = 60
FAILURES_SHOWN = 20


def git_commit(root: str):
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def source_digest(package_dir: str) -> str:
    """sha256 over the relative paths and bytes of the package's files."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(package_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, package_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def time_setup(code: str) -> tuple:
    """(wall, reference) seconds of a fresh interpreter running ``code``.

    The child probes the snippet itself.  The rest of its life (start-up,
    imports, exit) is scaled by probe bursts run here right before and
    right after it."""
    marks_path = os.path.join(WORKDIR, "probe-setup.json")
    before = burst()
    # capturing the output makes the wait end when the child's pipes close;
    # without a pipe, a wait with a timeout polls and rounds up by up to 50 ms
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, SETUP_CHILD, marks_path, code], check=True, capture_output=True, timeout=SETUP_TIMEOUT_S
    )
    wall = time.perf_counter() - start
    probe = SpeedProbe.load(marks_path)
    probed = probe.marks[-1][1] - probe.marks[0][0]
    return wall, (wall - probed) * scale(before + burst()) + probe.reference_seconds()


def timed_pass(workload, checks) -> tuple:
    """(wall, reference, CPU) seconds of one pass of the workload's fixed
    work.  Wall and reference time leave the probes out; CPU time counts
    them, and for the CLI also the child's start-up."""
    if workload.in_process:
        gc.collect()  # every pass starts from the same collector state
        cpu0 = time.process_time()
        with SpeedProbe() as probe:
            workload.run_pass(checks)
        cpu = time.process_time() - cpu0
    else:
        marks_path = os.path.join(WORKDIR, f"probe-{workload.name}.json")
        if os.path.exists(marks_path):
            os.remove(marks_path)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall = workload.run_child(checks, "probe", marks_path)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        checks.expect("child wrote its probe marks", os.path.exists(marks_path), True)
        if not os.path.exists(marks_path):  # the child died before its work
            return wall, wall, cpu
        probe = SpeedProbe.load(marks_path)
    return probe.wall_seconds(), probe.reference_seconds(), cpu


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def measure(workload_cls, seed: int, seconds: float, checks) -> dict:
    setups = []
    while len(setups) < SETUP_MAX_REPEATS and (
        len(setups) < SETUP_MIN_REPEATS or sum(wall for wall, _ in setups) < SETUP_MIN_S
    ):
        setups.append(time_setup(workload_cls.setup_code))
    print("# setup wall/reference s: " + ", ".join(f"{w:.4f}/{r:.4f}" for w, r in setups))
    workload = workload_cls(seed, WORKDIR)
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(timed_pass(workload, checks))
        wall, ref, cpu = passes[-1]
        print(f"# pass {len(passes)}: wall {wall:.4f} s, reference {ref:.4f} s, cpu {cpu:.4f} s")
        # start another pass only if one like the last would end in time
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    walls, refs, cpus = zip(*passes)
    print(
        f"# medians: wall_s {statistics.median(walls):.4f}, cpu_s {statistics.median(cpus):.4f}, "
        f"setup wall {statistics.median(w for w, _ in setups):.4f} s"
    )
    return {
        "norm_wall_s": {"value": statistics.median(refs), "unit": "s"},
        "setup_s": {"value": statistics.median(r for _, r in setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(workload), "unit": "MB"},
    }


def trace(workload_cls, seed: int, checks) -> dict:
    from layers import layer_metrics
    from tracer import Tracer, install

    workload = workload_cls(seed, WORKDIR)
    spans_path = os.path.join(WORKDIR, f"spans-{workload.name}.bin")
    if workload.in_process:
        untraced = timed_pass(workload, checks)[0]
        tracer = Tracer()
        installed = install(tracer)
        start = time.perf_counter()
        try:
            workload.run_pass(checks)
        finally:
            traced = time.perf_counter() - start
            installed.undo()
        tracer.dump(spans_path)
    else:
        # both runs timed from here, so both include the child's start-up;
        # the untraced child runs under the probe, whose time is taken out
        marks_path = os.path.join(WORKDIR, f"probe-{workload.name}.json")
        untraced = workload.run_child(checks, "probe", marks_path)
        untraced -= sum(end - start for start, end in SpeedProbe.load(marks_path).marks)
        if os.path.exists(spans_path):
            os.remove(spans_path)
        traced = workload.run_child(checks, "trace", spans_path)
        tracer = Tracer.load(spans_path)
    print(f"# untraced {untraced:.4f} s, traced {traced:.4f} s, {len(tracer.starts)} spans")
    return layer_metrics(tracer.summarize(), tracer.counts, traced / untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spinelab", "__init__.py")):
        print(f"error: no spinelab package under {SRC}; run from a spinelab checkout", file=sys.stderr)
        return 2
    # SPINELAB_MAX_DEGREE silently overrides --max-degree; keep it away from
    # this process and every process it starts
    os.environ.pop("SPINELAB_MAX_DEGREE", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "degree_bound": workload_cls.degree_bound,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(os.path.join(SRC, "spinelab")),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("# info " + json.dumps(info, sort_keys=True))

    checks = Checks()
    if args.trace:
        metrics = trace(workload_cls, args.seed, checks)
    else:
        metrics = measure(workload_cls, args.seed, args.seconds, checks)
    for failure in checks.failures[:FAILURES_SHOWN]:
        print(f"# FAILED {failure}")
    print(
        f"# checks: {checks.attempted} attempted, {checks.failed} failed, "
        f"check_fail_ratio {checks.fail_ratio():.6f}"
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Host wall-clock benchmark of the ekm paper pipelines and fleet simulator.

Run from the root of an ekm source tree:

    python3 perfbench/run.py --workload edge_exact --seed 1 --seconds 15 --trace 0

Workloads: edge_exact, edge_jl, fleet_sim, fleet_explain (see
BENCHMARK.json for why each exists). The script builds the library and the
benchmark from source with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload in one process and
relays its output. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}.

With --trace 1 it also validates the span dump the benchmark writes: it
must parse as JSON, child spans must nest inside their parents without
overlapping, and each job's self times must sum to its wall time, which
the benchmark reads from a timer of its own around the job's root span.

Exit status: 0 with a result line; 1 when the source tree or the build is
missing or broken; 2 on bad arguments; 3 when a structural check fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# A job's self times sum to its root span's duration; its wall time comes
# from a separate timer started just before the root span opens and read
# just after it closes. The gap between the two is the harness code
# outside the root span: a few clock reads and one span record, about a
# microsecond, plus whatever interrupt or page fault lands in that
# window. 50 us lets such a stray event pass but fails any job whose work
# ran outside its spans.
OUTSIDE_TOLERANCE_S = 5e-5
# Rounding slack of sums of a few thousand doubles of seconds.
ROUNDING_S = 1e-9


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.hpp"))):
        fail(1, f"{ROOT} is not an ekm source tree (no CMakeLists.txt / src/)")
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(1, f"build step failed: {' '.join(cmd)}")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], env=env,
                              capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def library_flags(out_dir):
    """Compiler flags the ekm library was built with (compile_commands.json)."""
    try:
        with open(os.path.join(out_dir, "compile_commands.json")) as f:
            entries = json.load(f)
    except (OSError, ValueError):
        return "unknown"
    for entry in entries:
        if entry.get("file", "").endswith(os.path.join("src", "core", "pipeline.cpp")):
            words = entry.get("command", "").split()
            return " ".join(w for w in words[1:] if w.startswith("-")
                            and not w.startswith(("-I", "-o", "-c", "-M")))
    return "unknown"


def check_span_dump(path):
    """Returns (problems, largest time outside a job's root span)."""
    try:
        with open(path) as f:
            dump = json.load(f)
    except (OSError, ValueError) as err:
        return [f"span dump unreadable: {err}"], 0.0
    problems = []
    largest_outside = 0.0
    for p in dump["passes"]:
        spans = p["spans"]
        last_child_end = {}
        self_sum = {}
        for i, s in enumerate(spans):
            if s["end_s"] < s["start_s"] or s["self_s"] < -1e-9:
                problems.append(f"width {p['width']}: span {i} ({s['name']}) "
                                "has negative duration or self time")
            parent = s["parent"]
            if parent >= 0:
                ps = spans[parent]
                if (s["start_s"] < ps["start_s"] or s["end_s"] > ps["end_s"]
                        or s["start_s"] < last_child_end.get(parent, -1.0)
                        or s["job"] != ps["job"]):
                    problems.append(f"width {p['width']}: span {i} ({s['name']}) "
                                    "does not nest in its parent")
                last_child_end[parent] = s["end_s"]
            self_sum[s["job"]] = self_sum.get(s["job"], 0.0) + s["self_s"]
        for job in p["jobs"]:
            total = self_sum.get(job["job"], 0.0)
            outside = job["wall_s"] - total
            largest_outside = max(largest_outside, outside)
            if not -ROUNDING_S <= outside <= OUTSIDE_TOLERANCE_S:
                problems.append(f"width {p['width']}: job {job['job']} self times "
                                f"sum to {total!r} s, wall {job['wall_s']!r} s")
    return problems[:20], largest_outside


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["edge_exact", "edge_jl", "fleet_sim", "fleet_explain"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail(2, "--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    build(out_dir)
    scratch = os.path.join(out_dir, "scratch", f"{args.workload}-{args.seed}")
    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--git-sha", git_sha(),
           "--build-flags", library_flags(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)

    def stop_child(signum, _frame):
        proc.kill()
        proc.wait()
        fail(128 + signum, "interrupted")

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(1, f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(proc.returncode or 1, f"benchmark exited with status {proc.returncode}")
    if args.trace:
        problems, outside = check_span_dump(os.path.join(scratch, "spans.json"))
        if problems:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail(3, "span dump check failed:\n  " + "\n  ".join(problems))
    print("\n".join(lines[:-1]))
    if args.trace:
        print("span dump: valid JSON, spans nest, self times sum to each job's "
              f"wall time; largest time outside a job's spans {outside * 1e6:.3f} us")
    print(lines[-1])  # the result object stays the last line
    sys.stdout.flush()


if __name__ == "__main__":
    main()

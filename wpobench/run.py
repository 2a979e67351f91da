"""wpolab benchmark: one seeded workload per run, metrics on the last line.

    python3 wpobench/run.py --workload {algebra,audit,export,verify} \
        --seed N --seconds T --trace {0,1}

Run it from the root of a checkout; it imports wpolab from ./src.  The
workload runs in a child process (harness.py) whose environment pins the
BLAS pool to one thread and the hash seed to 0.  With --trace 0 it prints
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones.  The line before the result is the run record: context, raw seconds
behind every normalised figure, failures and known defects.

set-up time (setup_s) is the median over SETUP_PROBES extra set-up-only
processes and the measuring process itself.  Scratch files go to
.wpobench-work/ in the checkout and are removed before exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6
DEADLINE_S = 170.0
WORKLOADS = ("algebra", "audit", "export", "verify")


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def child(cmd, env, timeout):
    """Run one child process to completion; its last stdout line as JSON."""
    proc = subprocess.run([sys.executable] + cmd, env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=max(1.0, timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s exited with %d" % (cmd[0], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None


def main() -> int:
    t0 = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wpolab", "__init__.py")):
        print("run.py: no wpolab sources under %s" % src, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    work_root = os.path.join(ROOT, ".wpobench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    harness = os.path.join(HERE, "harness.py")
    base = [harness, "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", workdir]
    try:
        # byte-compile the package first so that no timed set-up pays for it
        child(["-c", "import wpolab, wpolab.cli"], env, 60)
        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            setups.append(child(base + ["--setup-only"], env, DEADLINE_S - (time.monotonic() - t0)))
        out = child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    env, DEADLINE_S - (time.monotonic() - t0))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    values, record = out["values"], out["record"]
    if not args.trace:
        setups.append({"setup_raw_s": record["setup_raw_s"], "ref_s": record["setup_ref_s"]})
        nominal = record["context"]["ref_nominal_s"]
        values["setup_s"] = statistics.median(s["setup_raw_s"] * nominal / s["ref_s"] for s in setups)
        record["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
        record["setup_runs"] = setups
    record["context"]["commit"] = commit()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("run.py: workload did not report %s" % ", ".join(missing), file=sys.stderr)
        return 1
    print(json.dumps(record, default=repr))
    print(json.dumps({
        "correct": not record["unexpected"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

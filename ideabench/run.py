"""The IDEA benchmark: one run of one workload through `IngestionFramework.run`.

    python3 ideabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the program and the benchmark from
source (see build.py), then starts one JVM that sets up, runs the workload
for about `--seconds`, checks the stored results, and prints the result
object as the last line of standard output. Exit code 0 only when every
result check passed. README.md lists the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import build  # noqa: E402

# A run must end within 180 s; leave room to shut the JVM down.
RUN_TIMEOUT_S = 170
HEAP = "3g"
# Module opens Spark's own launcher adds on JDK 17.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    try:
        classpath = build.build()
    except build.BuildError as e:
        sys.exit(f"ideabench: build failed: {e}")

    tmp = os.path.join(build.OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j.configurationFile={os.path.join(BENCH_DIR, 'log4j2.properties')}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in OPENS]
           + ["-cp", classpath, "repro.ideabench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace,
              "--out", build.OUT_DIR])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"ideabench: run exceeded {RUN_TIMEOUT_S} s and was stopped")

    lines = out.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    valid = (isinstance(result, dict)
             and set(result) == {"correct", "attempted", "failed", "metrics"})
    if proc.returncode not in (0, 1) or not valid:
        sys.stdout.write(out if not lines else "\n".join(lines[:-1]) + "\n")
        sys.exit(f"ideabench: the JVM exited with code {proc.returncode} and no result")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()

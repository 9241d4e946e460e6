"""Build file of the IDEA benchmark.

Compiles the program's sources (`src/main/scala`) together with the
benchmark's own sources (`ideabench/src`) into `ideabench/.out/classes`,
using the Scala compiler that ships with the Spark distribution the program
is built against (`$SPARK_HOME/jars`). The compile is skipped when neither
the sources nor the compiler changed since the last build.

Run it alone with `python3 ideabench/build.py`; `run.py` calls `build()`.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, ".out")
CLASSES_DIR = os.path.join(OUT_DIR, "classes")
STAMP = os.path.join(OUT_DIR, "build.stamp")
SOURCE_ROOTS = [os.path.join(REPO_DIR, "src", "main", "scala"), os.path.join(BENCH_DIR, "src")]
DUCKDB_JAR = "duckdb_jdbc-1.0.0.jar"


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark distribution's jar directory: $SPARK_HOME, else the one
    holding `spark-submit` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not os.path.isdir(jars):
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return jars


def duckdb_jar():
    """The DuckDB JDBC driver the program's oracle uses, from the coursier cache."""
    cache = os.environ.get("COURSIER_CACHE") or os.path.join(os.path.expanduser("~"), ".cache", "coursier")
    hits = sorted(glob.glob(os.path.join(cache, "**", "org", "duckdb", "duckdb_jdbc", "1.0.0", DUCKDB_JAR),
                            recursive=True))
    if not hits:
        raise BuildError(f"{DUCKDB_JAR} not found under {cache}")
    return hits[0]


def sources():
    found = []
    for root in SOURCE_ROOTS:
        if not os.path.isdir(root):
            raise BuildError(f"missing source directory {os.path.relpath(root, REPO_DIR)}")
        found += glob.glob(os.path.join(root, "**", "*.scala"), recursive=True)
    return sorted(found)


def runtime_classpath():
    jars = spark_jars()
    return os.pathsep.join([CLASSES_DIR, os.path.join(jars, "*"), duckdb_jar()])


def build():
    """Compile if needed; return the runtime classpath."""
    jars = spark_jars()
    compiler = sorted(glob.glob(os.path.join(jars, "scala-compiler-2.13.*.jar")))
    if not compiler:
        raise BuildError(f"no scala-compiler-2.13 jar in {jars}")
    scala_cp = os.pathsep.join(
        compiler + glob.glob(os.path.join(jars, "scala-library-2.13.*.jar"))
        + glob.glob(os.path.join(jars, "scala-reflect-2.13.*.jar")))
    srcs = sources()
    digest = hashlib.sha256(os.path.basename(compiler[0]).encode())
    for path in srcs:
        digest.update(os.path.relpath(path, REPO_DIR).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = digest.hexdigest()
    if os.path.exists(STAMP) and open(STAMP).read() == stamp and os.path.isdir(CLASSES_DIR):
        return runtime_classpath()

    staging = CLASSES_DIR + ".new"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={OUT_DIR}",
           "-cp", scala_cp, "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", staging,
           "-cp", os.pathsep.join([os.path.join(jars, "*"), duckdb_jar()])] + srcs
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BuildError("compile failed")
    shutil.rmtree(CLASSES_DIR, ignore_errors=True)
    os.rename(staging, CLASSES_DIR)
    with open(STAMP, "w") as f:
        f.write(stamp)
    return runtime_classpath()


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build: {e}")

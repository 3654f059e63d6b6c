"""Self-contained Spark launch for the benchmark.

Everything the JVM reads at launch (master, driver memory, temp dirs)
is fixed here, before ``pyspark`` is imported, so a run does not
depend on the caller's environment (a test runner's
``PYSPARK_SUBMIT_ARGS``, a missing ``PYTHONPATH`` in the Python
workers). All scratch files go under ``perfbench/out`` in the checkout.
"""
from __future__ import annotations

import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Local-mode cores. Capped at the machine's CPU count so a small box
#: does not run more task threads than it has cores.
CORES = max(1, min(4, len(os.sched_getaffinity(0))))
#: One shuffle partition per task slot, twice over: lite graphs are a
#: few MB, so more partitions would only add per-task scheduling cost.
SHUFFLE_PARTITIONS = 2 * CORES
DRIVER_MEMORY = "1g"


def use_source() -> None:
    """Import ``repro`` from the checkout's src/; exit non-zero without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def launch(app: str):
    """Start the local-mode SparkSession; returns (spark, startup seconds)."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Python workers re-import repro inside applyInPandas/mapInPandas
    # UDFs; without this they fail with ModuleNotFoundError.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options \"-Xms{DRIVER_MEMORY} -Djava.io.tmpdir={tmp}\"",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={tmp}",
            "pyspark-shell",
        ]
    )
    t0 = time.perf_counter()
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # Same as the repo's own sessions: joins shuffle unless the
        # program asks for a broadcast.
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - t0


def stop(spark) -> None:
    """Stop the session and wait for its JVM to exit (it exits once its
    stdin closes, taking its Python workers with it)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def peak_rss_mb(spark) -> float:
    """JVM high-water resident set (VmHWM) plus the Python driver's."""
    pid = spark._jvm.ProcessHandle.current().pid()
    jvm_kb = 0
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                jvm_kb = int(line.split()[1])
    py_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (jvm_kb + py_kb) / 1024.0


def _git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def src_loc() -> int:
    """Lines of Python under src/repro (the code-size aim of the roadmap)."""
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "repro").rglob("*.py"))
    )


def describe(spark) -> dict:
    """Launch settings and versions, printed with every result."""
    return {
        "master": spark.sparkContext.master,
        "cores": CORES,
        "nproc": os.cpu_count(),
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "driver_memory": DRIVER_MEMORY,
        "spark_version": spark.version,
        "java_version": spark._jvm.System.getProperty("java.version"),
        "python_version": sys.version.split()[0],
        "git_sha": _git_sha(),
        "src_loc": src_loc(),
    }

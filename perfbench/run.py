#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <ingest|history_reads|wire_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR (default: .bench_build), databases and span files to
.bench_data. The last line of standard output is the run's JSON result;
see perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = target / "release" / "perfbench"
    run = subprocess.run(
        [str(exe), *sys.argv[1:], "--data-dir", str(Path(".bench_data").resolve())],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

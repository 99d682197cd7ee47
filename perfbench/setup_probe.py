"""Measure one set-up in a fresh interpreter: importing tsodlqr, then building
and validating a workload's config.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints one JSON object with `import_s` and `config_s`.
"""

import json
import sys
import time

import workloads


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.use_source_tree()
    start = time.perf_counter()
    import tsodlqr  # noqa: F401
    import tsodlqr.config  # noqa: F401

    imported = time.perf_counter()
    workloads.load_config(workload, seed)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "config_s": built - imported}))


if __name__ == "__main__":
    main()

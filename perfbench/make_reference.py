"""Regenerate the reference reports at the default workload seed.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose reports are known to be right; the
files land in perfbench/reference/ as <workload>.<command>.json.
"""

import sys
import tempfile
from pathlib import Path

from run import SRC, pin_blas_threads


def main() -> int:
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import mjlslab.cli as cli
    from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, write_configs

    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SRC.parent) as tmp:
        for name in sorted(WORKLOADS):
            workload = WORKLOADS[name]
            configs = write_configs(workload, DEFAULT_SEED, Path(tmp))
            for cmd, cfg, out in zip(workload.commands, configs, workload.reference_paths()):
                code = cli.main([cmd, "--config", str(cfg), "--out", str(out)])
                if code != 0:
                    print(f"error: {name} {cmd} exited with {code}", file=sys.stderr)
                    return 1
                print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

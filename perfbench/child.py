"""Fresh-process probe for set-up time.

    python3 child.py SRC_DIR CONFIG [CONFIG ...]

Imports mjlslab.cli from SRC_DIR, loads every config and prints "loaded";
the parent times the interval from spawning this process to that line.
"""

import sys


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    import mjlslab.cli as cli

    for config in argv[1:]:
        cli.load_config(config)
    print("loaded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

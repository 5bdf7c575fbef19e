"""A traced CLI process: `python -X importtime clichild.py SUMMARY.json ARGS...`.

Runs the same `main` as `python -m robust_orlicz.cli ARGS...`, with the
layer wrappers installed, and writes the tracer's totals to SUMMARY.json
and its spans next to it. The CLI module is imported before anything of
the benchmark's, so the import times on stderr match a plain CLI process.
"""

import sys

import robust_orlicz.cli as cli  # noqa: I001  (first: keeps import times comparable)

import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    for name, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[name] = tracer.wrap(f"cli.{name}", fn)
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w") as f:
            json.dump({"state": tracer.state(),
                       "compute_s": tracer.exclusive_of_layer("cli.", "serialization")}, f)
        tracer.dump(summary_path[:-len(".json")] + ".npz")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``irdf`` CLI command with the tracer's hooks installed.

    python3 irdfbench/launch.py --trace-out FILE -- <irdf arguments>

Behaves like ``python -m irdf <arguments>`` (same stdout, same exit code)
and writes the import time and the recorded spans to FILE as JSON.
"""

import json
import sys
import time

from checkout import use_checkout_sources


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        sys.stderr.write("usage: launch.py --trace-out FILE -- <irdf arguments>\n")
        return 2
    out_path, cli_args = argv[1], argv[3:]
    use_checkout_sources()
    t_import = time.perf_counter()
    import irdf.cli

    import_s = time.perf_counter() - t_import
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = irdf.cli.main(cli_args)
    finally:
        tracer.active = False
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "trace": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

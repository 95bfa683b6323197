"""Set-up probe: import plus the first call, in a fresh interpreter.

    python3 irdfbench/probe.py <workload> <seed>

Prints one JSON line {"setup_s": ...}. Input generation between the import
and the call is not counted.
"""

import json
import sys
import time

from checkout import ROOT, use_checkout_sources


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    use_checkout_sources()
    t_import = time.perf_counter()
    if name == "cli_mix":
        import irdf.cli  # noqa: F401
    else:
        import irdf  # noqa: F401
    import_s = time.perf_counter() - t_import

    from workloads import WORKLOADS

    call = WORKLOADS[name](seed, ROOT).setup_call()
    t_call = time.perf_counter()
    call()
    call_s = time.perf_counter() - t_call
    print(json.dumps({"setup_s": import_s + call_s, "import_s": import_s, "call_s": call_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

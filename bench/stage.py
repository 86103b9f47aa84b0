"""Run one lyrecon CLI stage in this fresh interpreter and time it.

    python3 bench/stage.py <result.json> <trace 0|1> <lyrecon argv...>

The timer wraps ``lyrecon.cli.main`` alone, so interpreter start and
imports are left out, and the peak RSS is this process's own. With trace 1
the layer wrappers are installed first and their totals are written too.
The result file holds ``exit_code``, ``seconds``, ``peak_rss_mb`` and, when
traced, ``layers``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from lyrecon import cli


def peak_rss_mb() -> float:
    """This process's peak resident set since its exec.

    ``VmHWM`` belongs to the new address space; ``ru_maxrss`` can carry the
    parent's peak over a vfork+exec, so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    exit_code = cli.main(argv)
    seconds = time.perf_counter() - start
    result = {
        "exit_code": exit_code,
        "seconds": seconds,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

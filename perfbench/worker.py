"""Worker process: runs benchmark ops against frobcx, one at a time.

Started by run.py as ``python3 worker.py <socket fd> <src dir> <out dir>``.
It receives ``(op, traced)`` pairs over the socket and answers each with
the op's wall time and result, and each ``"gauge"`` with a reading of
the speed gauge (see gauge.py); ``None`` ends the run, answered with
the process's peak resident memory and, if any op was traced, its spans
and counters.  Only frobcx and this file's imports live here, so the
peak memory is the program's own.  The int/str digit limit keeps its
default, as it does in any frobcx process.
"""

from __future__ import annotations

import os
import resource
import sys
from multiprocessing.connection import Connection
from time import perf_counter


def main(fd: int, src: str, out_dir: str) -> None:
    sys.path.insert(0, src)
    import frobcx.cli
    from frobcx import closedform, enumeration, poincare, transfer

    import gauge
    from spans import Tracer

    stdout_path = os.path.join(out_dir, "op.stdout")
    stderr_path = os.path.join(out_dir, "op.stderr")
    clear_tables = poincare.build_table.cache_clear
    table_stats = poincare.build_table.cache_info
    tracer = None

    def crosscheck(op):
        p, d, e = op["p"], op["d"], op["e"]
        values = {
            "enumerate": enumeration.count_basis_enumeration(p, d, e),
            "transfer": transfer.complexity_term(p, d, e),
            "lower_bound": closedform.lower_bound(p, d, e),
        }
        if d >= 3 and e >= 2:
            values["carry"] = enumeration.count_basis_carryvectors(p, d, e)
        if d == 3:
            values["closed"] = closedform.closed_form_d3(p, e)
        return values

    def far_term(op):
        return transfer.complexity_term(op["p"], op["d"], op["e"])

    library = {"crosscheck": crosscheck, "far_term": far_term}

    def run(op):
        """(seconds, result) for one op; errors are results, not exceptions."""
        if op["run"] != "cli":
            start = perf_counter()
            try:
                value = library[op["run"]](op)
            except Exception as exc:  # an op that raises is a failed op
                return perf_counter() - start, {"error": repr(exc)}
            return perf_counter() - start, {"value": value}
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
            saved = sys.stdout, sys.stderr
            sys.stdout, sys.stderr = out, err
            start = perf_counter()
            try:
                code = frobcx.cli.main(op["argv"])
                out.flush()
            except Exception as exc:  # a traceback is a failed op
                return perf_counter() - start, {"error": repr(exc)}
            finally:
                seconds = perf_counter() - start
                sys.stdout, sys.stderr = saved
        return seconds, {"code": code, "stdout_bytes": os.path.getsize(stdout_path)}

    conn = Connection(fd)
    while (message := conn.recv()) is not None:
        if message == "gauge":
            conn.send(gauge.read())
            continue
        op, traced = message
        clear_tables()
        if not traced:
            seconds, result = run(op)
        else:
            if tracer is None:
                tracer = Tracer()
            seconds, result = tracer.run_op(tracer.op + 1, lambda: run(op))
            info = table_stats()
            tracer.count({"poincare.build_table.hits": info.hits,
                          "poincare.build_table.misses": info.misses,
                          "cli.stdout_bytes": result.get("stdout_bytes", 0)})
        conn.send((seconds, result))
    final = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final["spans"] = tracer.spans
        final["counters"] = dict(tracer.counters)
    conn.send(final)
    conn.close()


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2], sys.argv[3])

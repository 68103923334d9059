"""Run one ewjn command in this fresh interpreter and report its costs.

    python3 child.py REPORT TRACE -- ARGV...   run `ewjn ARGV...`
    python3 child.py REPORT 0 --probe          import only

The command's own output goes to stdout exactly as the console script
would write it. REPORT receives a JSON record: the import time of
ewjn.cli (what every CLI invocation pays before computing), the command
time, the exit code, the peak RSS and the environment. With TRACE 1 the
layer functions are wrapped first (see spans.py) and the spans are
added to the record after the command has finished.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    probe = sys.argv[3] == "--probe"
    argv = sys.argv[4:]

    t0 = time.perf_counter()
    import ewjn.cli
    t1 = time.perf_counter()
    report = {"import_s": t1 - t0, "ewjn_file": os.path.abspath(ewjn.__file__)}
    code = 0
    if not probe:
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
            report["unpatched"] = tracer.install()
        t2 = time.perf_counter()
        if tracer is None:
            code = ewjn.cli.main(argv)
        else:
            code = tracer.run_root(ewjn.cli.main, argv)
        sys.stdout.flush()
        report["cmd_s"] = time.perf_counter() - t2
        if tracer is not None:
            report["spans"] = tracer.spans
    import numpy

    thread_count = getattr(ewjn.cli, "_thread_count", None)
    report.update(
        exit=code,
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        nproc=os.cpu_count(),
        workers=thread_count() if thread_count else None,
    )
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

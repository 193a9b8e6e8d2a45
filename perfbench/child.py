"""Fresh-process helper for run.py.

    child.py setup <workload>            import qsim.cli, run the warm-up call,
                                         print {"import_s": ...}
    child.py trace <out.json> <argv...>  run ``qsim <argv>`` with the tracer
                                         installed; write its summary to out.json

``PYTHONPATH`` must name the checkout's ``src``. The traced form exits and
prints exactly as ``python -m qsim.cli <argv>`` does.
"""

import json
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        t0 = time.perf_counter()
        import qsim.cli  # noqa: F401  (the import is what is timed)

        import_s = time.perf_counter() - t0
        from workloads import WORKLOADS

        WORKLOADS[sys.argv[2]][1]()
        print(json.dumps({"import_s": import_s}))
        return 0
    if mode == "trace":
        out_path, argv = sys.argv[2], sys.argv[3:]
        from qsim import cli
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return cli.main(argv)
        finally:
            tracer.uninstall()
            with open(out_path, "w", encoding="ascii") as handle:
                json.dump(tracer.summary(), handle)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())

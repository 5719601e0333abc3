"""``repro serve`` with the benchmark's layer spans installed.

Usage: ``python -m e2ebench.serve_traced --trace-out PATH -- serve
--port 0`` (arguments after ``--`` go to the ``repro`` CLI unchanged).
The spans are written to PATH when the server stops on SIGINT.
"""

import argparse
import sys

from e2ebench import tracer as tracer_module


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro import cli

    tracer = tracer_module.Tracer()
    tracer_module.install_serve(tracer)
    tracer_module.install_kernels(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())

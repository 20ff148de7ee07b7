"""nilalg3's command line with the benchmark's span wrappers installed.

Usage: python3 bench/traced_cli.py <nilalg3 arguments>   (PYTHONPATH=src)

Stdout is the command's own output.  After the command returns, the span
totals go to stderr as one line starting with SPANS_MARK.
"""

import json
import sys

import spans

SPANS_MARK = "bench-spans "


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    import nilalg3.cli as cli
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(SPANS_MARK + json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

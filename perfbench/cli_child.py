"""Run the wigner-cyl command with every traced layer wrapped.

    python3 perfbench/cli_child.py <spans.npz> wigner-cyl --state ... --out ...

Imports cylwigner from src/, installs the tracer, runs ``cylwigner.cli.main``
with the remaining arguments, and writes the spans to <spans.npz> when the
command ends.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402


def main():
    span_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer().install()
    import cylwigner.cli  # noqa: PLC0415 - after install, so the wrapped names are bound
    try:
        code = cylwigner.cli.main(argv)
    finally:
        tracer.write(span_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One set-up sample: import csviu and run the warm-up command.

Started by run.py in a fresh interpreter, so the import is cold (apart
from the OS file cache and compiled bytecode, which users also keep).
Prints one JSON object: the seconds from before ``import csviu.cli`` to
the return of the warm-up command, and that command's exit code.

Usage: python3 perfbench/probe.py SRC_DIR ARGV_JSON
"""

import contextlib
import io
import json
import sys
import time


def main():
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import csviu.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = csviu.cli.main(argv)
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "rc": rc}))


if __name__ == "__main__":
    main()

"""Run one command in a child and print its wall time, exit code and peak
resident set size.

    python3 tools/peak_rss.py -- bitmod unpack W.bmod --out W.npy

prints one line, ``wall_s=<seconds> exit=<code> peak_rss_mb=<MB>``, after
the command's own output.  The peak is the child's ``ru_maxrss`` from
``getrusage(RUSAGE_CHILDREN)`` divided by 1024, as perfbench's
``peak_rss_mb`` is: on Linux ``ru_maxrss`` is in KiB, so the figure is in
MiB.  The script starts no other child, so the figure is the command's
own, or that of its largest descendant.  Exits with the command's exit
code.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    command = argv[1:]
    if command[:1] == ["--"]:
        command = command[1:]
    if not command:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        code = subprocess.run(command).returncode
    except OSError as exc:  # the command cannot be started
        print(f"error: {exc}", file=sys.stderr)
        return 127
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"wall_s={wall:.3f} exit={code} peak_rss_mb={peak:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))

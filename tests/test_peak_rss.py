"""tools/peak_rss.py runs one command in a child and reports its wall time,
exit code and peak RSS."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"
LINE = re.compile(r"wall_s=(\d+\.\d{3}) exit=(-?\d+) peak_rss_mb=(\d+\.\d)")


def _run(*command):
    return subprocess.run([sys.executable, str(TOOL), "--", *command],
                          capture_output=True, text=True, timeout=60)


def test_peak_rss_reports_the_childs_peak_and_exit_code():
    # The child holds a 64 MiB buffer, so its peak is at least that.
    grow = "b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096])"
    done = _run(sys.executable, "-c", f"{grow}; print('child'); exit(3)")
    assert done.returncode == 3
    child, report = done.stdout.splitlines()
    assert child == "child"
    wall, code, peak = LINE.fullmatch(report).groups()
    assert int(code) == 3 and float(wall) > 0 and float(peak) >= 64


def test_peak_rss_refuses_a_command_it_cannot_start():
    done = _run(str(TOOL.parent / "no-such-command"))
    assert done.returncode == 127 and not done.stdout
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

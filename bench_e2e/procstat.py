"""CPU time and peak resident memory of processes, read from ``/proc``."""

from __future__ import annotations

import os

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU the process has used so far (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError:
        return 0.0
    # The command name (field 2) may hold spaces; fields resume after ')'.
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of the process in MiB (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0

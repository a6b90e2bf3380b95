#!/usr/bin/env python3
"""End-to-end checks of the elasticored CLI in dry-run mode.

  python3 tools/check_elasticored.py build/elasticored --bad-specs
      Every malformed command line must be rejected with exit code 2 and an
      "elasticored: bad ..." message, before any arbiter is built (never an
      abort from an internal invariant check).

  python3 tools/check_elasticored.py build/elasticored --soak
      Runs the CI fault-injection schedule for 10^5 and 10^6 dry-run rounds
      and requires the peak RSS of the long run to stay within 2 MB of the
      short one: nothing the daemon keeps may grow with the round count.
      The peak is the daemon's own VmHWM, sampled from /proc/<pid>/status
      until it exits (Linux only). wait4's ru_maxrss would not do: it also
      counts the forked Python interpreter's resident set from before the
      exec (~14 MB), which hides any daemon that stays below it.

Exits 0 on success, 1 with one line per failure otherwise.
"""

import os
import subprocess
import sys
import time

# The smoke topology and tenants of the CI dry-run step.
BASE = ["--dry-run", "--nodes", "2", "--cores-per-node", "4",
        "--tenant", "name=a,initial=2", "--tenant", "name=b,initial=1"]
INJECT = ["--inject", "kind=sample_drop,target=0,from=1,until=4",
          "--inject", "kind=cpuset_write,target=1,from=2,until=5"]

BAD_SPECS = {
    "unknown policy": ["--policy", "bogus"] + BASE,
    "unknown mode": ["--dry-run", "--nodes", "2", "--cores-per-node", "4",
                     "--tenant", "name=a,mode=bogus"],
    "initial above max": ["--dry-run", "--nodes", "2", "--cores-per-node",
                          "4", "--tenant", "name=a,initial=3,max=2"],
    "initial cores past the machine": [
        "--dry-run", "--nodes", "2", "--cores-per-node", "4",
        "--tenant", "name=a,initial=5", "--tenant", "name=b,initial=4"],
}

SOAK_SHORT_ROUNDS = 100_000
SOAK_LONG_ROUNDS = 1_000_000
SOAK_SLACK_KB = 2048


def check_bad_specs(binary):
    failures = []
    for label, args in BAD_SPECS.items():
        proc = subprocess.run([binary] + args, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 2:
            failures.append(f"{label}: exit {proc.returncode}, want 2")
        elif "elasticored: bad " not in proc.stderr:
            failures.append(f"{label}: no 'elasticored: bad' message in "
                            f"stderr: {proc.stderr.strip()!r}")
        else:
            print(f"ok   {label}: {proc.stderr.strip()}")
    return failures


def peak_rss_kb(binary, rounds):
    """Runs one dry-run soak; returns (exit code, peak RSS in KiB)."""
    args = [binary] + BASE + INJECT + ["--rounds", str(rounds)]
    name = os.path.basename(binary)[:15]  # the kernel truncates comm
    peak = 0
    proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    while proc.poll() is None:
        try:
            with open(f"/proc/{proc.pid}/status") as status:
                fields = dict(line.split(":", 1) for line in status)
        except OSError:
            break
        # Before the exec the pid still runs the forked interpreter, and a
        # zombie has no VmHWM left; neither is the daemon's peak.
        if fields.get("Name", "").strip() == name and "VmHWM" in fields:
            peak = max(peak, int(fields["VmHWM"].split()[0]))
        time.sleep(0.005)
    return proc.wait(), peak


def check_soak(binary):
    failures = []
    peaks = {}
    for rounds in (SOAK_SHORT_ROUNDS, SOAK_LONG_ROUNDS):
        code, peak = peak_rss_kb(binary, rounds)
        print(f"{rounds} rounds: exit {code}, peak RSS {peak} KiB")
        if code != 0:
            failures.append(f"{rounds}-round soak exited {code}")
        if peak <= 0:
            failures.append(f"{rounds}-round soak: no VmHWM sample")
        peaks[rounds] = peak
    growth = peaks[SOAK_LONG_ROUNDS] - peaks[SOAK_SHORT_ROUNDS]
    if growth > SOAK_SLACK_KB:
        failures.append(f"peak RSS grew {growth} KiB from "
                        f"{SOAK_SHORT_ROUNDS} to {SOAK_LONG_ROUNDS} rounds "
                        f"(allowed {SOAK_SLACK_KB})")
    return failures


def main(argv):
    if len(argv) != 3 or argv[2] not in ("--bad-specs", "--soak"):
        print(__doc__, file=sys.stderr)
        return 2
    binary = argv[1]
    failures = (check_bad_specs(binary) if argv[2] == "--bad-specs"
                else check_soak(binary))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

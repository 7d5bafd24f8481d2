#!/usr/bin/env python3
"""A quarantine dump of a disk window costs one write chunk, not the window.

Runs psky_stream twice over the same --window-store disk stream, at a
window of 500,000 elements: once fault-free, and once with a segment-map
fault late in the stream. The fault fails a PSKY_CHECK on the pipeline
thread, which dumps the window as a checkpoint and aborts. The dumping
run's peak RSS must stay below twice the fault-free run's, its note must
name the failed check, and its dump, copied into an empty directory under
a checkpoint's name, must resume with every element the window held.

The fault hits a rotation of the full window after it popped the oldest
element and before it stored the arrival, so the window holds one
element fewer than --window when it is dumped; the dumping run reports
the count it wrote.

Peak RSS is each child's own ru_maxrss, read with os.wait4.

Usage: quarantine_rss_test.py PSKY_STREAM WORKDIR
"""

import glob
import os
import re
import shutil
import subprocess
import sys

WINDOW = 500000
STREAM = ["--generate", "corr", "--dims", "3", "--count", "600000",
          "--window", str(WINDOW), "--q", "0.3", "--every", "0",
          "--window-store", "disk"]
# About 170 segment maps happen over the stream; the 160th is a tail map
# near element 577,000, after 77,000 rotations of the full window.
FAULT = ["--chaos-schedule", "fail=segment-map@160:eio"]


def run(cmd, cwd, err_name):
    """Runs `cmd` in `cwd`; returns (exit code, peak RSS in kB, stderr)."""
    err_path = os.path.join(cwd, err_name)
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    with open(err_path, encoding="utf-8", errors="replace") as err:
        text = err.read()
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, text


def fail(msg, stderr=""):
    sys.stderr.write("FAIL: " + msg + "\n" + stderr)
    sys.exit(1)


def main():
    psky = os.path.abspath(sys.argv[1])
    work = os.path.abspath(sys.argv[2])
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    code, base_kb, err = run([psky] + STREAM + ["--store-dir", "segs-base"],
                             work, "base.err")
    if code != 0:
        fail("fault-free run exited %d" % code, err)

    code, dump_kb, err = run([psky] + STREAM + FAULT +
                             ["--store-dir", "segs-dump"], work, "dump.err")
    if code != -6:  # SIGABRT: a failed check aborts after the dump
        fail("faulted run exited %d, expected SIGABRT" % code, err)
    written = re.search(r"quarantine dump written to .* \((\d+) window "
                        r"elements\)", err)
    if written is None:
        fail("no quarantine dump of the window", err)
    held = int(written.group(1))
    if held < WINDOW - 1:
        fail("the dumped window holds only %d elements" % held, err)
    dumps = glob.glob(os.path.join(work, "quarantine-*-001.psky"))
    if len(dumps) != 1:
        fail("expected one dump, found %r" % dumps, err)
    step = re.search(r"quarantine-(\d{20})-001\.psky$", dumps[0]).group(1)
    with open(dumps[0][:-len(".psky")] + ".txt", encoding="utf-8") as note:
        if not note.readline().startswith("reason=PSKY_CHECK failed: "):
            fail("the note does not name the failed check")

    resume_dir = os.path.join(work, "resume")
    os.makedirs(resume_dir)
    shutil.copy(dumps[0], os.path.join(resume_dir, "ckpt-%s.psky" % step))
    code, _, err = run([psky] + STREAM +
                       ["--store-dir", "segs-resume", "--checkpoint-dir",
                        resume_dir, "--resume"], work, "resume.err")
    want = "resumed at step %d (window holds %d elements)" % (int(step),
                                                              held)
    if code != 0 or want not in err:
        fail("the dump did not resume with the whole window", err)

    print("peak RSS: fault-free %d kB, dumping %d kB; dump at step %d "
          "holds %d elements" % (base_kb, dump_kb, int(step), held))
    if dump_kb >= 2 * base_kb:
        fail("the dump's peak RSS is not below twice the fault-free run's")
    shutil.rmtree(work)  # tens of MB of segments and dumps


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""A quarantine dump of a disk window costs one write chunk, not the window.

Runs psky_stream twice over the same --window-store disk stream, at a
window of 500,000 elements: once fault-free, and once with a segment
write fault late in the stream. The fault fails a PSKY_CHECK on the
pipeline thread, which dumps the window as a checkpoint and aborts. The
dumping run's peak RSS must stay below twice the fault-free run's, it
must write exactly one dump and suppress none, and the dump's note must
name the failed check.

A rotation pushes before it pops, and a push whose segment write fails
leaves the window unchanged, so the dump holds exactly --window elements
and is stamped with the last completed step. Copied into an empty
directory under a checkpoint's name, it must resume with every one of
them and finish with the fault-free run's output.

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
SEGMENT = 4096  # psky_stream's default --segment-elems
STREAM = ["--generate", "corr", "--dims", "3", "--count", "600000",
          "--window", str(WINDOW), "--q", "0.3", "--emit", "final",
          "--window-store", "disk"]
# segment-io counts every segment file open, read and write. Writing a
# full tail is an open and a write; reading a new expiry frontier is an
# open and a read. The push of element 4096 k + 1 writes segment k - 1.
# Before element 577,537 (k = 141) the run writes 140 segments and, once
# the window is full, reads 18 frontiers: 316 occurrences. So occurrence
# 317 opens segment 140 and 318 writes it, and the push of element
# 577,537 fails after 577,536 completed steps.
FAULT = ["--chaos-schedule", "fail=segment-io@318:eio"]
FAILED_STEP = 141 * SEGMENT + 1


def run(cmd, cwd, name):
    """Runs `cmd` in `cwd`; returns (exit code, peak RSS in kB, stdout,
    stderr)."""
    out_path = os.path.join(cwd, name + ".out")
    err_path = os.path.join(cwd, name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    with open(out_path, encoding="utf-8") as out:
        stdout = out.read()
    with open(err_path, encoding="utf-8", errors="replace") as err:
        stderr = err.read()
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, stdout, stderr


def fail(msg, stderr=""):
    sys.stderr.write("FAIL: " + msg + "\n" + stderr)
    sys.exit(1)


def main():
    psky = os.path.abspath(sys.argv[1])
    work = os.path.abspath(sys.argv[2])
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    code, base_kb, base_out, err = run(
        [psky] + STREAM + ["--store-dir", "segs-base"], work, "base")
    if code != 0:
        fail("fault-free run exited %d" % code, err)

    code, dump_kb, _, err = run(
        [psky] + STREAM + FAULT + ["--store-dir", "segs-dump"], work, "dump")
    if code != -6:  # SIGABRT: a failed check aborts after the dump
        fail("faulted run exited %d, expected SIGABRT" % code, err)
    if "(injected)" not in err:
        fail("the run did not fail on the injected segment write", err)
    written = re.findall(r"quarantine dump written to .* \((\d+) window "
                         r"elements\)", err)
    if len(written) != 1 or "suppressed" in err:
        fail("expected exactly one dump and none suppressed", err)
    held = int(written[0])
    if held != WINDOW:
        fail("the dumped window holds %d elements, not %d" % (held, WINDOW),
             err)
    dumps = glob.glob(os.path.join(work, "quarantine-*-001.psky"))
    if len(dumps) != 1:
        fail("expected one dump, found %r" % dumps, err)
    step = int(re.search(r"quarantine-(\d{20})-001\.psky$",
                         dumps[0]).group(1))
    if step != FAILED_STEP - 1:
        fail("the dump is stamped %d, not the last completed step %d" %
             (step, FAILED_STEP - 1), err)
    with open(dumps[0][:-len(".psky")] + ".txt", encoding="utf-8") as note:
        if not note.readline().startswith("reason=PSKY_CHECK failed: "):
            fail("the note does not name the failed check")

    resume_dir = os.path.join(work, "resume")
    os.makedirs(resume_dir)
    shutil.copy(dumps[0], os.path.join(resume_dir, "ckpt-%020d.psky" % step))
    code, _, resume_out, err = run(
        [psky] + STREAM + ["--store-dir", "segs-resume", "--checkpoint-dir",
                           resume_dir, "--resume"], work, "resume")
    want = "resumed at step %d (window holds %d elements)" % (step, held)
    if code != 0 or want not in err:
        fail("the dump did not resume with the whole window", err)
    if resume_out != base_out:
        fail("the resumed run's output differs from the fault-free run's")

    print("peak RSS: fault-free %d kB, dumping %d kB; dump at step %d "
          "holds %d elements" % (base_kb, dump_kb, step, held))
    if dump_kb >= 2 * base_kb:
        fail("the dump's peak RSS is not below twice the fault-free run's")
    shutil.rmtree(work)  # tens of MB of segments and dumps


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Regenerate the checked-in v3-format session fixture.

The fixture under ``tests/fixtures/v3_session/`` was written by the
session service as it stood before snapshots persisted only the event
log's chained digest: every full snapshot carried the whole event list
(``engine.events``), and every delta snapshot the events since its base
(``events_tail``) with the base's event count (``events_base``) and its
``chain`` position.  It is kept verbatim so the legacy event readers in
:func:`repro.service.serde.events_digest` and
:func:`repro.service.serde.resolve_snapshot_delta` are exercised against
genuine old output.

The script extracts ``src/`` of an old revision (``git archive``) into a
temporary directory and reruns itself under that code, so the fixture
comes from the old writer even when the current code no longer has it.
The default revision is the last commit whose snapshots carried the
event list.  The session it drives leaves behind one full snapshot, a
delta against it written by a second handle (so it continues the
chain), and a journal of every command, two of them past the delta.

Usage: PYTHONPATH=src python tests/fixtures/make_v3_fixture.py [--rev REV]
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "v3_session")
EXPECTED = os.path.join(HERE, "v3_expected.json")

#: the last revision whose snapshots carried the event list.
DEFAULT_REV = "d6c23da0a7079d44911d9b33f7c0490d7ab85914"

SRC = ("c = 1\n"
       "x = c + 2\n"
       "d = e + f\n"
       "do i = 1, 8\n"
       "  R(i) = e + f\n"
       "enddo\n"
       "write x\nwrite d\nwrite R(3)\n")


def generate() -> None:
    """Drive one session under the old code (run with its ``src/``)."""
    from repro.service.serde import state_fingerprint
    from repro.service.session import DurableSession

    shutil.rmtree(OUT, ignore_errors=True)
    session = DurableSession.create(OUT, SRC, snapshot_every=0,
                                    fsync_every=1)
    ctp = session.apply("ctp", 0)                       # 1
    session.apply("cse", 0)                             # 2
    session.undo(ctp.stamp)                             # 3: out of order
    session.snapshot()                                  # full at 3
    session.close()
    session = DurableSession.open(OUT)
    session.apply("ctp", 0)                             # 4
    session.apply("cfo", 0)                             # 5
    session.snapshot()                                  # delta at 5
    session.apply("dce", 0)                             # 6
    session.undo(2)                                     # 7
    session.journal.sync()  # crash model: durable journal, no close()
    expected = {
        "seq": session.seq,
        "ops": [cmd["op"] for cmd in session.log()],
        "fingerprint": state_fingerprint(session.engine),
        "source": session.source(),
        "records": [(r.stamp, r.name, r.active)
                    for r in session.engine.history.all_records()],
    }
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
    print(f"wrote {OUT} ({session.seq} commands, snapshots "
          f"{sorted(os.listdir(os.path.join(OUT, 'snapshots')))})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default=DEFAULT_REV,
                        help="git revision whose src/ writes the fixture")
    parser.add_argument("--generate", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.generate:
        generate()
        return 0
    repo = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=HERE,
                          check=True, capture_output=True,
                          text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", args.rev,
                              "src"], cwd=repo, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        return subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--generate"], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

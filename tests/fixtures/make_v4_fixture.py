#!/usr/bin/env python
"""Regenerate the checked-in v4-format session fixture.

The fixture under ``tests/fixtures/v4_session/`` is the first written
with the undone-record side file: its snapshots carry the active
records plus run rows for the undone ones, and ``undone.jsonl`` holds
each undone record once (see :mod:`repro.service.undone`).  It is kept
verbatim so later formats are checked against this one's output.  Do
not regenerate it unless the on-disk format is versioned up (then check
in a new fixture beside this one).

The session it drives leaves behind one full snapshot with a run row
(t1), a delta against it written by a second handle whose rows add a
second run (t2, undone after the full snapshot), a side file holding
those two records, and a journal of every command, two of them past the
delta (the second undoes t4, which the side file does not hold yet).

Usage: PYTHONPATH=src python tests/fixtures/make_v4_fixture.py
"""

import json
import os
import shutil

from repro.service.serde import state_fingerprint
from repro.service.session import DurableSession

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "v4_session")
EXPECTED = os.path.join(HERE, "v4_expected.json")

SRC = ("c = 1\n"
       "x = c + 2\n"
       "d = e + f\n"
       "do i = 1, 8\n"
       "  R(i) = e + f\n"
       "enddo\n"
       "write x\nwrite d\nwrite R(3)\n")


def main() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    session = DurableSession.create(OUT, SRC, snapshot_every=0,
                                    fsync_every=1)
    ctp = session.apply("ctp", 0)                       # 1: t1
    session.apply("cse", 0)                             # 2: t2
    session.undo(ctp.stamp)                             # 3: out of order
    session.snapshot()                                  # full at 3
    session.close()
    session = DurableSession.open(OUT)
    session.apply("ctp", 0)                             # 4: t3
    session.undo(2)                                     # 5
    session.apply("cfo", 0)                             # 6: t4
    session.snapshot()                                  # delta at 6
    session.apply("dce", 0)                             # 7: t5
    session.undo(4)                                     # 8
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


if __name__ == "__main__":
    main()

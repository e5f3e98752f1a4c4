"""Crash-point injection over the snapshot path.

A scripted evict/reopen workload — a ``SessionManager`` with one live
slot, tiny-program apply/undo on two sessions (full and delta
snapshots, undone records appended to the side file) and the first
snapshot of a copied v3 fixture — runs once to count its durable-write
calls, then once per call ``k`` with a crash injected there
(:mod:`tests.faultshim`).  After each crash every session directory must
reopen with ``verify=True``, and its journal must be a prefix of the
commands the uncrashed run committed.  No side-file record may need a
rebuild from the journal: a snapshot only names lines already on disk.
"""

import gc
import os
import shutil

import pytest

from tests.faultshim import CrashShim, InjectedCrash
from repro.obs.metrics import MetricsRegistry
from repro.service.recovery import meta_path
from repro.service.session import DurableSession, SessionManager

TINY = "c = 1\nx = c + 2\nwrite x\n"
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def step(manager, name):
    """Undo the oldest active transformation, or apply ``ctp``."""
    with manager.session(name) as s:
        active = s.engine.history.active()
        if active:
            s.undo(active[0].stamp)
        else:
            s.apply("ctp", 0)


def workload(root):
    manager = SessionManager(root, max_live=1, snapshot_every=3,
                             fsync_every=2)
    manager.create("a", TINY)
    step(manager, "a")
    manager.create("b", TINY)  # evicts a: its first (full) snapshot
    for _ in range(3):
        for name in ("a", "b"):
            step(manager, name)
    step(manager, "v3")  # reopens the fixture ...
    step(manager, "a")   # ... whose eviction is its first new snapshot
    manager.close_all()


def fresh_root(tmp_path, tag):
    root = str(tmp_path / tag)
    os.makedirs(root)
    shutil.copytree(os.path.join(FIXTURES, "v3_session"),
                    os.path.join(root, "v3"))
    return root


def session_logs(root):
    out = {}
    for name in sorted(os.listdir(root)):
        sdir = os.path.join(root, name)
        if not os.path.exists(meta_path(sdir)):
            continue  # its creation crashed before the metadata landed
        registry = MetricsRegistry()
        session = DurableSession.open(sdir, verify=True, metrics=registry)
        assert session.recovery.verified is True, name
        assert registry.counter("repro_undone_rebuilds_total").value == 0
        out[name] = session.log()
        session.close()
    return out


def test_every_crash_point_reopens_verified(tmp_path):
    root = fresh_root(tmp_path, "reference")
    with CrashShim(root) as shim:
        workload(root)
    total = shim.calls
    assert total > 100
    reference = session_logs(root)
    assert set(reference) == {"a", "b", "v3"}
    assert os.path.exists(os.path.join(root, "v3", "undone.jsonl"))
    for k in range(1, total + 1):
        root = fresh_root(tmp_path, f"crash{k}")
        with CrashShim(root, crash_at=k) as shim:
            with pytest.raises(InjectedCrash):
                workload(root)
        assert shim.fired
        gc.collect()  # the abandoned handles' files close, as at exit
        for name, log in session_logs(root).items():
            assert log == reference[name][:len(log)], (k, name)
        shutil.rmtree(root)

"""The sharded router: placement, ordering, aggregation, worker death.

Covers the scaling layer's contract on top of real worker processes:

* shard placement is deterministic and balanced, and every session's
  files live entirely inside its shard's root;
* per-session command order survives concurrent clients (the paper's
  invariant, mapped onto processes), while distinct sessions interleave
  freely across shards;
* ``_ metrics`` / ``_ stats`` / ``_ sessions`` merge exactly to the sum
  of the per-shard answers;
* a killed worker surfaces as one explicit ``error: shard:`` reply,
  restarts, and its sessions recover verified from their journals.

Worker processes spawn (not fork), so each router costs real startup
time — the tests share routers per class where isolation allows.
"""

import json
import os
import re
import threading

import pytest

from repro.service.session import DurableSession
from repro.service.shard import (ShardRouter, shard_index, shard_root,
                                 worker_main)

SRC = "c = 1\nx = c + 2\nwrite x\n"

#: four independent constant-propagation sites: up to four concurrent
#: clients can always find an opportunity at index 0, whatever subset
#: their peers currently hold applied.
SRC_MANY = "".join(f"c{i} = {i}\nx{i} = c{i} + 2\nwrite x{i}\n"
                   for i in range(4))

STAMP_RE = re.compile(r"t(\d+)")

#: totals summed by the cross-shard metrics merge (a subset of
#: repro.obs.metrics.TOTALS_SOURCES; the test asserts against this list
#: so a drifting field set fails loudly here, not silently in the merge).
AGG_FIELDS = ("commands", "journal_records_written",
              "journal_bytes_written", "journal_syncs",
              "snapshots_written")


def names_on_shards(nshards, per_shard=1, prefix="s"):
    """Session names covering every shard, ``per_shard`` names each."""
    names, counts = [], [0] * nshards
    i = 0
    while min(counts) < per_shard:
        name = f"{prefix}{i:03d}"
        k = shard_index(name, nshards)
        if counts[k] < per_shard:
            counts[k] += 1
            names.append(name)
        i += 1
    return names


def cycle(router, name):
    """One apply/undo round trip; returns the apply's stamp."""
    out = router.handle_line(f"{name} apply ctp 0")
    assert out.startswith("applied"), out
    stamp = int(STAMP_RE.search(out).group(1))
    out = router.handle_line(f"{name} undo {stamp}")
    assert out.startswith("undone"), out
    return stamp


class TestShardIndex:
    def test_deterministic_and_in_range(self):
        for name in ("alpha", "beta", "s-1", "u00-0", ""):
            k = shard_index(name, 4)
            assert 0 <= k < 4
            assert shard_index(name, 4) == k  # stable across calls

    def test_single_shard_takes_everything(self):
        assert all(shard_index(f"n{i}", 1) == 0 for i in range(50))

    def test_spreads_across_shards(self):
        hit = {shard_index(f"sess-{i}", 4) for i in range(100)}
        assert hit == {0, 1, 2, 3}

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_index("x", 0)


class TestRouting:
    @pytest.fixture(scope="class")
    def router(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("shards")
        prog = root / "prog.loop"
        prog.write_text(SRC)
        with ShardRouter(str(root), 2) as router:
            router.prog = str(prog)
            yield router

    def test_round_trip_lands_on_the_right_shard(self, router):
        names = names_on_shards(2, per_shard=2, prefix="rt")
        for name in names:
            assert router.handle_line(f"{name} init {router.prog}") == \
                f"created {name}"
            cycle(router, name)
        for name in names:
            shard = shard_root(router.root, shard_index(name, 2))
            session_dir = os.path.join(shard, name)
            # the session's whole universe lives inside its shard root
            assert os.path.isdir(session_dir)
            assert os.path.exists(os.path.join(session_dir,
                                               "journal.jsonl"))

    def test_sessions_verb_merges_both_shards(self, router):
        names = router.handle_line("_ sessions").split()
        for name in names_on_shards(2, per_shard=2, prefix="rt"):
            assert name in names

    def test_shards_verb_reports_workers(self, router):
        doc = json.loads(router.handle_line("_ shards"))
        assert doc["shards"] == 2
        assert [w["shard"] for w in doc["workers"]] == [0, 1]
        assert all(w["alive"] for w in doc["workers"])

    def test_per_session_order_under_concurrent_clients(
            self, router, tmp_path):
        prog = tmp_path / "many.loop"
        prog.write_text(SRC_MANY)
        name = names_on_shards(2, prefix="ord")[0]
        router.handle_line(f"{name} init {prog}")
        done, lock = [], threading.Lock()

        def worker():
            for _ in range(5):
                cycle(router, name)
                with lock:
                    done.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(done) == 20
        # every acknowledged cycle journaled exactly two commands, in
        # causal order: the log replays clean and counts them all
        log = router.handle_line(f"{name} log").splitlines()
        assert len(log) == 2 * len(done)

    def test_cross_session_interleave_across_shards(self, router):
        names = names_on_shards(2, per_shard=2, prefix="mix")
        for name in names:
            router.handle_line(f"{name} init {router.prog}")

        def worker(name):
            for _ in range(5):
                cycle(router, name)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name in names:
            log = router.handle_line(f"{name} log").splitlines()
            assert len(log) == 10  # warm cycles journaled, none lost


class TestAggregation:
    @pytest.fixture(scope="class")
    def router(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("agg")
        prog = root / "prog.loop"
        prog.write_text(SRC)
        with ShardRouter(str(root), 2) as router:
            names = names_on_shards(2, per_shard=2, prefix="agg")
            for i, name in enumerate(names):
                router.handle_line(f"{name} init {prog}")
                for _ in range(i + 1):  # unequal load per shard
                    cycle(router, name)
            yield router

    def test_merged_metrics_equal_sum_of_shards(self, router):
        merged = json.loads(router.handle_line("_ metrics"))
        shards = router.shard_metrics()
        assert merged["shards"] == len(shards) == 2
        for field in AGG_FIELDS:
            assert merged["totals"][field] == \
                sum(doc["totals"][field] for doc in shards), field
        assert merged["totals"]["commands"] > 0

    def test_totals_verb_is_the_metrics_totals_view(self, router):
        merged = json.loads(router.handle_line("_ metrics"))
        assert json.loads(router.handle_line("_ metrics totals")) == \
            merged["totals"]
        assert [doc for doc in router.shard_metrics("totals")] == \
            [doc["totals"] for doc in router.shard_metrics()]

    def test_router_answers_slo_and_workers_keep_no_window(self, router):
        assert json.loads(router.handle_line("_ slo"))["requests"] > 0
        out = router._request(router.workers[0], "_ slo")
        assert out == "error: bad-request: this front keeps no SLO window"

    def test_merged_latency_counts_every_command(self, router):
        merged = json.loads(router.handle_line("_ metrics"))
        shards = router.shard_metrics()
        assert merged["latency"]["count"] == \
            sum(doc["latency"]["count"] for doc in shards)

    def test_merged_stats_union_live_sessions(self, router):
        doc = json.loads(router.handle_line("_ stats"))
        assert doc["shards"] == 2
        assert len(doc["per_shard"]) == 2
        names = set(names_on_shards(2, per_shard=2, prefix="agg"))
        assert names <= set(doc["live"]) | set(doc["on_disk"])


class TestJournalLag:
    def test_healthz_lag_is_zero_after_evict_and_reopen(self, tmp_path):
        """Fleet ``commands`` counts each journaled command once, so two
        sessions evicting each other on one shard report no lag."""
        prog = tmp_path / "prog.loop"
        prog.write_text(SRC)
        root = str(tmp_path / "fleet")
        with ShardRouter(root, 1, manager_kwargs={"max_live": 1}) as router:
            assert router.handle_line(f"a init {prog}") == "created a"
            assert router.handle_line("a apply ctp 0").startswith("applied")
            assert router.handle_line(f"b init {prog}") == "created b"
            assert router.handle_line("b apply ctp 0").startswith("applied")
            # reopens a, evicting b
            assert router.handle_line("a undo 1").startswith("undone")
            stats = json.loads(router.handle_line("_ stats"))
            assert stats["evictions"] >= 2 and stats["reopens"] >= 1
            health = router.expo_health()
            assert health["ok"], health
            assert health["journal"] == {"commands": 3, "records": 3,
                                         "lag": 0}


class TestWorkerDeath:
    def test_killed_worker_errors_restarts_and_recovers(self, tmp_path):
        prog = tmp_path / "prog.loop"
        prog.write_text(SRC)
        with ShardRouter(str(tmp_path), 2) as router:
            names = names_on_shards(2, prefix="kill")
            for name in names:
                router.handle_line(f"{name} init {prog}")
                cycle(router, name)

            victim_name = names[0]
            victim = router.workers[shard_index(victim_name, 2)]
            pid_before = victim.process.pid
            victim.process.kill()
            victim.process.join(5.0)

            out = router.handle_line(f"{victim_name} apply ctp 0")
            assert out.startswith("error: shard:"), out
            assert "may or may not have committed" in out
            assert "restarted" in out

            # restarted worker: new pid, restart counted, and the dead
            # shard's session recovers from its journal on next touch
            status = router.shard_status()
            me = status["workers"][victim.index]
            assert me["alive"] and me["restarts"] == 1
            assert victim.process.pid != pid_before
            assert router.handle_line(f"{victim_name} source").strip() == \
                SRC.strip()
            assert router.handle_line(f"{victim_name} audit check") \
                .startswith("ok:")

            # the other shard never noticed
            other = names[1]
            cycle(router, other)

    def test_recovered_session_verifies_on_disk(self, tmp_path):
        prog = tmp_path / "prog.loop"
        prog.write_text(SRC)
        with ShardRouter(str(tmp_path), 2) as router:
            name = names_on_shards(2, prefix="disk")[0]
            router.handle_line(f"{name} init {prog}")
            stamp = cycle(router, name)
            assert stamp > 0
            worker = router.workers[shard_index(name, 2)]
            worker.process.kill()
            worker.process.join(5.0)
            router.handle_line(f"{name} sessions")  # absorbs the error
        # after close: open the journal directly from the shard dir and
        # verify — per-session guarantees are untouched by sharding
        session_dir = os.path.join(
            shard_root(str(tmp_path), shard_index(name, 2)), name)
        session = DurableSession.open(session_dir, verify=True)
        try:
            assert session.seq >= 2
        finally:
            session.close()


class TestErrorReplies:
    def test_router_errors_use_the_error_format(self, tmp_path):
        with ShardRouter(str(tmp_path), 2) as router:
            form = re.compile(r"^error: [a-z-]+: ")
            assert form.match(router.handle_line("lonely"))
            assert form.match(router.handle_line("nosuch apply ctp 0"))
            assert form.match(router.handle_line("x unknownverb"))

    def test_worker_main_answers_stop(self, tmp_path):
        import multiprocessing
        parent, child = multiprocessing.Pipe()
        thread = threading.Thread(
            target=worker_main, args=(child, str(tmp_path)))
        thread.start()
        parent.send(("stop", 1))
        assert parent.recv() == (1, "stopping")
        thread.join(5.0)
        assert not thread.is_alive()

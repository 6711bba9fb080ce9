import random
import sys
import threading

import pytest

from triplex.store import CappedCollection

from oracles import CappedListModel


def record(seq):
    return {"seq": seq, "t_ms": seq * 10, "value": 0.5}


class TestCappedWindow:
    def test_fifo_eviction(self):
        coll = CappedCollection(5)
        for i in range(6):
            coll.insert({"i": i})
        assert [d.seq for d in coll.get_all()] == [2, 3, 4, 5, 6]

    def test_degenerate_window(self):
        coll = CappedCollection(1)
        coll.insert("first")
        coll.insert("second")
        docs = coll.get_all()
        assert len(docs) == 1
        assert docs[0].body == "second"

    def test_6000_inserts_at_threshold_3000(self):
        coll = CappedCollection(3000)
        for i in range(6000):
            coll.insert(i)
        assert coll.count() == 3000
        assert coll.get_all()[0].seq == 3001
        assert coll.total_inserted() == 6000

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CappedCollection(0)


class TestBasicOps:
    def test_empty_get_all(self):
        assert CappedCollection(10).get_all() == []

    def test_insertion_order_kept(self):
        coll = CappedCollection(10)
        coll.insert("A")
        coll.insert("B")
        assert [d.body for d in coll.get_all()] == ["A", "B"]

    def test_delete_all_returns_count(self):
        coll = CappedCollection(10)
        for i in range(3):
            coll.insert(i)
        assert coll.delete_all() == 3
        assert coll.get_all() == []
        assert coll.delete_all() == 0

    def test_seq_monotone_across_delete_all(self):
        coll = CappedCollection(10)
        first = coll.insert("a")
        coll.delete_all()
        second = coll.insert("b")
        assert second > first

    def test_count_matches_get_all(self):
        coll = CappedCollection(3)
        for i in range(7):
            coll.insert(i)
            assert coll.count() == len(coll.get_all())


class TestOracleEquivalence:
    def test_randomized_ops_match_list_model(self):
        rng = random.Random(99)
        coll = CappedCollection(50)
        model = CappedListModel(50)
        for step in range(10_000):
            roll = rng.random()
            if roll < 0.70:
                body = rng.randint(0, 1_000_000)
                assert coll.insert(body) == model.insert(body)
            elif roll < 0.90:
                got = [(d.seq, d.body) for d in coll.get_all()]
                assert got == model.get_all()
            elif roll < 0.97:
                assert coll.count() == model.count()
            else:
                assert coll.delete_all() == model.delete_all()
        assert [(d.seq, d.body) for d in coll.get_all()] == model.get_all()


class TestConcurrency:
    def test_window_bound_under_concurrent_writers(self):
        coll = CappedCollection(100)
        writers = 8
        per_writer = 2000
        stop = threading.Event()
        violations = []

        def write(base):
            for i in range(per_writer):
                coll.insert({"w": base, "i": i})

        def watch():
            while not stop.is_set():
                docs = coll.get_all()
                seqs = [d.seq for d in docs]
                if len(docs) > coll.threshold:
                    violations.append(f"count {len(docs)}")
                if any(b <= a for a, b in zip(seqs, seqs[1:])):
                    violations.append(f"non-monotone {seqs}")

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        watcher = threading.Thread(target=watch)
        watcher.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        watcher.join()

        assert violations == []
        assert coll.count() == 100
        assert coll.total_inserted() == writers * per_writer
        seqs = [d.seq for d in coll.get_all()]
        assert seqs == list(range(writers * per_writer - 99, writers * per_writer + 1))


class TestInsertUnique:
    def test_replayed_seq_is_dropped(self):
        coll = CappedCollection(10)
        assert coll.insert_unique(record(1))
        assert coll.insert_unique(record(2))
        assert not coll.insert_unique(record(2))
        assert not coll.insert_unique(record(1))
        assert [d.body["seq"] for d in coll.get_all()] == [1, 2]

    def test_eviction_moves_the_range(self):
        coll = CappedCollection(3)
        for seq in range(1, 9):
            coll.insert_unique({"seq": seq, "t_ms": seq * 10, "value": 0.0})
        assert [d.body["seq"] for d in coll.get_all()] == [6, 7, 8]

    @pytest.mark.parametrize(
        "bad",
        [
            "hello",
            ["seq", 3],
            None,
            {"tick": 0},
            {**record(2), "seq": True},
            {**record(2), "seq": 1.5},
            {**record(2), "seq": "3"},
            {"seq": 2, "t_ms": 20},
            {**record(2), "value": "0.5"},
            {**record(2), "value": None},
            {**record(2), "value": float("nan")},
            {**record(2), "value": float("inf")},
            {**record(2), "value": True},
            {"seq": 2, "value": 0.5},
            {**record(2), "t_ms": float("nan")},
            {**record(2), "t_ms": 10**400},
        ],
        ids=[
            "text", "list", "none", "no-seq", "bool-seq", "float-seq", "text-seq",
            "no-value", "text-value", "null-value", "nan-value", "inf-value", "bool-value",
            "no-t_ms", "nan-t_ms", "huge-t_ms",
        ],
    )
    def test_non_record_is_refused_and_stores_nothing(self, bad):
        coll = CappedCollection(10)
        assert coll.insert_unique(record(1))
        with pytest.raises(ValueError):
            coll.insert_unique(bad)
        assert coll.count() == 1
        assert coll.total_inserted() == 1

    def test_refused_body_does_not_wedge_the_window(self):
        coll = CappedCollection(10)
        with pytest.raises(ValueError):
            coll.insert_unique({"tick": 0})
        assert [coll.insert_unique(record(s)) for s in (1, 2, 3)] == [True, True, True]
        assert [d.body["seq"] for d in coll.get_all()] == [1, 2, 3]

    def test_concurrent_writers_store_each_seq_once(self):
        # every writer delivers the same stream, as overlapping redeliveries
        # would; a check-then-insert race stores some seq twice
        records = [record(s) for s in range(1, 5001)]

        def run_round():
            coll = CappedCollection(len(records))
            start = threading.Barrier(8)

            def write():
                start.wait(timeout=10.0)
                for record in records:
                    coll.insert_unique(record)

            threads = [threading.Thread(target=write) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            return [d.body["seq"] for d in coll.get_all()]

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert run_round() == list(range(1, 5001))
        finally:
            sys.setswitchinterval(old_interval)

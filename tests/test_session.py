"""Tests for the high-level SEASession facade."""

from collections import Counter

import numpy as np
import pytest

from repro import SEASession
from repro.core import AgentConfig
from repro.core import error as error_module
from repro.data import Table, gaussian_mixture_table
from repro.queries import sql as sql_module


@pytest.fixture(scope="module")
def session_world():
    session = SEASession(
        n_nodes=4,
        config=AgentConfig(training_budget=200, error_threshold=0.25),
    )
    table = gaussian_mixture_table(
        20_000, dims=("x0", "x1"), seed=9, name="data"
    )
    session.load_table(table)
    return session, table


def sql_around(center, width):
    return (
        f"SELECT COUNT(*) FROM data "
        f"WHERE x0 BETWEEN {center[0]-width:.4f} AND {center[0]+width:.4f} "
        f"AND x1 BETWEEN {center[1]-width:.4f} AND {center[1]+width:.4f}"
    )


class TestSession:
    def test_sql_roundtrip_answers_exactly_in_training(self, session_world):
        session, table = session_world
        answer = session.sql(sql_around([50.0, 50.0], 20.0))
        assert answer.mode in ("train", "fallback", "predicted")
        if answer.mode != "predicted":
            from repro.queries import parse_query

            truth = parse_query(sql_around([50.0, 50.0], 20.0)).evaluate(table)
            assert answer.value == truth

    def test_session_learns_to_serve_datalessly(self, session_world):
        session, table = session_world
        rng = np.random.default_rng(10)
        anchor = table.matrix(("x0", "x1"))[5]
        for _ in range(400):
            center = anchor + rng.normal(scale=2.0, size=2)
            session.sql(sql_around(center, float(rng.uniform(5, 9))))
        stats = session.stats()
        assert stats["dataless_fraction"] > 0.05
        assert stats["estimated_seconds_saved"] > 0.0
        assert stats["bytes_scanned_total"] > 0.0

    def test_explanation_available(self, session_world):
        session, table = session_world
        answer = session.sql(sql_around([50.0, 50.0], 10.0))
        explanation = answer.explanation
        assert explanation.sweep.shape[0] >= 4
        assert np.all(np.isfinite(explanation.answers))

    def test_model_persistence_roundtrip(self, session_world, tmp_path):
        session, table = session_world
        path = str(tmp_path / "session.sea")
        n_bytes = session.save_models(path)
        assert n_bytes > 0
        fresh = SEASession(
            n_nodes=4,
            config=AgentConfig(training_budget=0, error_threshold=0.25),
        )
        fresh.load_table(
            gaussian_mixture_table(20_000, dims=("x0", "x1"), seed=9,
                                   name="data")
        )
        assert fresh.load_models(path) >= 1

    def test_csv_roundtrip(self, tmp_path):
        session = SEASession(n_nodes=2)
        original = gaussian_mixture_table(500, seed=11, name="data")
        path = str(tmp_path / "data.csv")
        original.to_csv(path)
        loaded = session.load_csv(path, name="data")
        assert loaded.n_rows == 500
        assert set(loaded.column_names) == set(original.column_names)
        assert np.allclose(
            np.sort(loaded["x0"]), np.sort(original["x0"]), rtol=1e-9
        )
        answer = session.sql(
            "SELECT COUNT(*) FROM data WHERE x0 BETWEEN 0 AND 100 "
            "AND x1 BETWEEN 0 AND 100"
        )
        assert answer.value == 500.0

    def test_notify_update_reaches_agent(self, session_world):
        session, _ = session_world
        # Outside every queried region: nothing to invalidate.
        assert session.notify_update("data", [1e6, 1e6], [2e6, 2e6]) == 0


class TestSessionClose:
    def _query(self):
        return (
            "SELECT COUNT(*) FROM data WHERE x0 BETWEEN 0 AND 100 "
            "AND x1 BETWEEN 0 AND 100"
        )

    def test_close_is_idempotent(self):
        session = SEASession(n_nodes=2)
        session.load_table(gaussian_mixture_table(500, seed=5, name="data"))
        session.close()
        assert session.closed
        session.close()  # second close is a no-op, not an error
        assert session.closed

    def test_queries_survive_close(self):
        # close() leaves a flag, not a dead engine.
        session = SEASession(n_nodes=2)
        session.load_table(gaussian_mixture_table(800, seed=5, name="data"))
        before = session.sql(self._query())
        session.close()
        after = session.sql(self._query())
        assert after.value == before.value
        session.close()

    def test_context_manager_closes_once(self):
        with SEASession(n_nodes=2) as session:
            session.load_table(
                gaussian_mixture_table(500, seed=5, name="data")
            )
            assert session.sql(self._query()).value == 500.0
        assert session.closed
        session.close()  # still safe after the context exit


class TestRepeatedStatementCost:
    """What the data-less path recomputes: counted, not timed."""

    @pytest.fixture
    def counted(self, monkeypatch):
        session = SEASession(
            n_nodes=4,
            config=AgentConfig(training_budget=150, error_threshold=0.25),
        )
        table = gaussian_mixture_table(
            20_000, dims=("x0", "x1"), seed=9, name="data"
        )
        session.load_table(table)
        rng = np.random.default_rng(10)
        anchor = table.matrix(("x0", "x1"))[5]
        for _ in range(400):
            center = anchor + rng.normal(scale=2.0, size=2)
            session.sql(sql_around(center, float(rng.uniform(5, 9))))
        sql_module._template.cache_clear()  # counts start from a cold memo
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            sql_module, "_parse", counting("parse", sql_module._parse)
        )
        monkeypatch.setattr(
            error_module,
            "_linear_quantile",
            counting("quantile", error_module._linear_quantile),
        )
        return session, anchor, counts

    def test_second_sql_of_one_text_parses_and_estimates_nothing(self, counted):
        session, anchor, counts = counted
        text = sql_around(anchor, 7.0)
        first = session.sql(text)
        assert first.mode == "predicted"
        assert counts["parse"] == 1
        counts.clear()
        second = session.sql(text)
        assert counts == {}
        assert second.query is not first.query
        assert (second.mode, second.value) == (first.mode, first.value)
        assert second.cost.as_dict() == first.cost.as_dict()

    def test_learning_fallback_recomputes_the_quantum_estimate_exactly_once(
        self, counted
    ):
        session, anchor, counts = counted
        agent = session.agent

        def served(width):
            # session.sql minus the SessionAnswer wrapper, which drops
            # the record's prediction.
            return agent.submit(sql_module.parse_query(sql_around(anchor, width)))

        quantum = served(7.0).prediction.quantum_id
        counts.clear()
        # New texts, same quantum, nothing learned in between: each is
        # parsed and predicted, the window's quantile is not re-read.
        for width in (7.01, 7.02):
            record = served(width)
            assert record.mode == "predicted"
            assert record.prediction.quantum_id == quantum
        assert counts == {"parse": 2}
        # A learning fallback in that quantum: record() drops the memo
        # (and the signature's cached answers go with the version bump).
        agent.config.error_threshold = 0.0
        fallback = served(7.03)
        agent.config.error_threshold = 0.25
        assert fallback.mode == "fallback"
        assert fallback.prediction.quantum_id == quantum
        counts.clear()
        again = [served(width) for width in (7.0, 7.01, 7.02)]
        assert [r.mode for r in again] == ["predicted"] * 3
        assert {r.prediction.quantum_id for r in again} == {quantum}
        assert counts == {"quantile": 1}  # known texts; one fresh quantile

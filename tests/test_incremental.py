"""Unit tests for the incremental view-maintenance subsystem.

The update-sequence differential suite checks end-to-end equivalence on
random scripts; these tests pin the individual mechanisms — strategy
selection, counting decrements, the DRed cycle case, maintenance rounds and
view routing — on small hand-checkable databases.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import Database, Session, parse_program, seminaive_evaluate
from repro.workloads import bounded_swap, transitive_closure

TC = transitive_closure()


def tc_database():
    return Database.from_dict({"a": [(1, 2), (2, 3)], "b": [(1, 2), (2, 3)]})


def assert_view_matches_recompute(session):
    reference = seminaive_evaluate(session.program, session.database)
    for predicate, relation in session.view.derived.items():
        assert relation.rows() == reference[predicate].rows(), predicate


class TestStrategySelection:
    def test_recursive_program_uses_dred(self):
        session = Session(TC, tc_database())
        assert session.view.strategy == "dred"
        assert "maintenance-strategy" in session.view.provenance.fired()

    def test_bounded_program_unfolds_then_counts(self):
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 1)]})
        session = Session(bounded_swap(), database)
        assert session.view.strategy == "counting"
        assert session.view.provenance.fired() == [
            "view-unfolding",
            "maintenance-strategy",
        ]
        assert "witness depth 2" in session.view.provenance.describe()

    def test_nonrecursive_program_counts_without_unfolding(self):
        program = parse_program("q(X, Y) :- a(X, Z), b(Z, Y).")
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 3)]})
        session = Session(program, database)
        assert session.view.strategy == "counting"
        assert session.view.derived["q"].rows() == {(1, 3)}

    def test_unfolded_views_ignore_provably_irrelevant_updates(self):
        """Minimization can drop atoms; updates to them must cost nothing."""
        program = parse_program(
            """
            t(X, Y) :- a(X, Y), t(Y, X).
            t(X, Y) :- b(X, Y).
            """
        )
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 1)], "z": [(0,)]})
        session = Session(program, database)
        before = session.view.stats.as_dict()
        session.insert("z", (1,))  # not mentioned by the program at all
        assert session.view.stats.as_dict() == before


class TestInsertions:
    def test_insert_extends_closure(self):
        session = Session(TC, tc_database())
        added = session.insert("a", (3, 4))
        assert added == 1
        # a(3,4) alone derives nothing new: t needs a b-exit at the far end
        session.insert("b", (3, 4))
        assert (1, 4) in session.view.derived["t"]
        assert_view_matches_recompute(session)

    def test_duplicate_insert_is_a_noop(self):
        session = Session(TC, tc_database())
        before = set(session.view.derived["t"].rows())
        assert session.insert("a", (1, 2)) == 0
        assert session.view.derived["t"].rows() == before

    def test_bulk_insert_counts_new_rows_only(self):
        session = Session(TC, tc_database())
        assert session.insert("b", [(1, 2), (7, 8), (7, 8), (8, 9)]) == 2
        assert_view_matches_recompute(session)

    def test_counting_insert_tracks_derivation_counts(self):
        program = parse_program("q(X) :- a(X), c(X).\nq(X) :- b(X), c(X).")
        database = Database.from_dict({"a": [(1,)], "b": [(2,)], "c": [(1,), (2,)]})
        session = Session(program, database)
        assert session.view.counting.count("q", (1,)) == 1
        session.insert("b", (1,))  # second derivation of q(1)
        assert session.view.counting.count("q", (1,)) == 2
        session.delete("a", (1,))  # one derivation survives
        assert (1,) in session.view.derived["q"]
        session.delete("b", (1,))  # last derivation dies
        assert (1,) not in session.view.derived["q"]
        assert_view_matches_recompute(session)


class TestIdbBaseFacts:
    def test_counting_handles_base_facts_under_an_idb_name(self):
        """A base-fact change must not double-count downstream derivations.

        p(1) is both rule-derived (via e) and stored as a base fact; the
        base-fact insert changes p's *count* but not its tuple set, so q's
        count must stay at 1 and drain exactly when p does.
        """
        program = parse_program("p(X) :- e(X).\nq(X) :- p(X).")
        session = Session(program, Database.from_dict({"e": [(1,)]}))
        assert session.view.strategy == "counting"
        session.insert("p", (1,))  # second derivation of p(1), zero new tuples
        assert session.view.counting.count("p", (1,)) == 2
        assert session.view.counting.count("q", (1,)) == 1
        assert_view_matches_recompute(session)
        session.delete("e", (1,))  # p(1) survives on its base fact
        assert (1,) in session.view.derived["q"]
        assert_view_matches_recompute(session)
        session.delete("p", (1,))  # last support gone: p and q both drain
        assert session.view.derived["p"].rows() == set()
        assert session.view.derived["q"].rows() == set()
        assert_view_matches_recompute(session)

    def test_dred_handles_base_facts_under_an_idb_name(self):
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 3)]})
        database.declare("t", 2).add((7, 8))
        session = Session(TC, database)
        assert (7, 8) in session.view.derived["t"]
        session.delete("t", (7, 8))
        assert (7, 8) not in session.view.derived["t"]
        assert_view_matches_recompute(session)

    def test_unfolding_declines_when_base_facts_feed_the_recursion(self):
        """Base facts under a bounded predicate make its unfolding unsound."""
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 1)], "t": [(7, 8)]})
        session = Session(bounded_swap(), database)
        assert session.view.strategy == "dred"  # unfolding declined
        assert_view_matches_recompute(session)
        session.insert("a", (8, 7))  # t(8,7) via a(8,7) ∧ t(7,8): needs the base fact
        assert (8, 7) in session.view.derived["t"]
        assert_view_matches_recompute(session)


class TestDeletions:
    def test_delete_with_alternative_derivation_keeps_tuple(self):
        database = Database.from_dict(
            {"a": [(1, 2), (2, 3)], "b": [(1, 2), (2, 3), (1, 3)]}
        )
        session = Session(TC, database)
        session.delete("a", (2, 3))
        # t(1,3) survives through the direct b(1,3) exit fact
        assert (1, 3) in session.view.derived["t"]
        assert_view_matches_recompute(session)

    def test_cycle_support_is_not_self_sustaining(self):
        """The case counting gets wrong and DRed must get right.

        On the 3-cycle every t-tuple transitively supports every other; when
        the last edge into the cycle is cut, the whole strongly-supported
        component must drain rather than float on mutual support.
        """
        cycle_edges = [(1, 2), (2, 3), (3, 1)]
        database = Database.from_dict({"a": cycle_edges, "b": cycle_edges})
        session = Session(TC, database)
        assert len(session.view.derived["t"]) == 9  # full 3x3 closure
        session.delete("a", (3, 1))
        session.delete("b", (3, 1))
        assert_view_matches_recompute(session)
        assert (3, 1) not in session.view.derived["t"]

    def test_deleting_an_absent_row_is_a_noop(self):
        session = Session(TC, tc_database())
        before = set(session.view.derived["t"].rows())
        assert session.delete("a", (9, 9)) == 0
        assert session.view.derived["t"].rows() == before

    def test_dred_counters_account_overestimate_and_rederivation(self):
        database = Database.from_dict(
            {"a": [(1, 2), (2, 3)], "b": [(3, 4), (1, 3), (1, 4)]}
        )
        session = Session(TC, database)
        # t = {(3,4), (1,3), (1,4), (2,4)}; both (2,4) and (1,4) derive through a(2,3)
        session.delete("a", (2, 3))
        stats = session.last_stats
        # overestimate removes t(2,4) and t(1,4); t(1,4) comes back via b(1,4)
        assert stats.tuples_deleted == 2
        assert stats.tuples_rederived == 1
        assert (2, 4) not in session.view.derived["t"]
        assert (1, 4) in session.view.derived["t"]
        assert_view_matches_recompute(session)

    def test_a_rule_whose_body_misses_a_head_variable_rederives_nothing(self):
        # t(X, W) :- c(X) never derives (W is unbound); the rederive join's
        # candidate atom must not bind W for it and keep t(2, 3) alive
        program = parse_program(f"{TC}\nt(X, W) :- c(X).\n")
        session = Session(program, Database.from_dict({"a": [(1, 2)], "b": [(2, 3)], "c": [(2,)]}))
        session.delete("b", (2, 3))
        assert session.view.derived["t"].rows() == set()
        assert_view_matches_recompute(session)

    def test_a_rule_whose_head_no_doomed_row_matches_is_not_joined(self):
        # no doomed t row ends in 1, so t(X, 1) :- c(X) gets no rederive plan,
        # exactly as a bound-head probe per doomed row would not
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 3)], "c": [(2,)]})
        compiled = []
        for extra in ("", "t(X, 1) :- c(X).\n"):
            session = Session(parse_program(f"{TC}\n{extra}"), database.copy())
            session.delete("b", (2, 3))
            assert_view_matches_recompute(session)
            compiled.append(session.last_stats.plans_compiled)
        assert compiled[0] == compiled[1]

    def test_one_mutation_over_several_relations_is_one_round(self):
        session = Session(TC, tc_database())
        deleted, inserted = session.mutate(deletes={"b": [(2, 3)]}, inserts={"a": [(0, 1)], "b": [(3, 4)]})
        assert deleted == {"b": ((2, 3),)} and inserted == {"a": ((0, 1),), "b": ((3, 4),)}
        assert session.epoch == 1
        assert session.collect_touched() == {"a", "b", "t"}
        assert_view_matches_recompute(session)


class TestDeltaLoopPolicies:
    """DRed's two closures: what the over-delete may doom, and that no count depends on set order."""

    MUTUAL = parse_program(
        """
        p(X, Y) :- e(X, Y).
        p(X, Y) :- e(X, Z), q(Z, Y).
        q(X, Y) :- f(X, Z), p(Z, Y).
        """
    )

    def test_overestimate_covers_the_deleted_rows_and_stays_inside_derived(self):
        from repro.engine import EvaluationStats, PlanCache
        from repro.incremental.dred import overestimate_deletions

        # 1 -e-> 2 -f-> 3 -e-> 4 -f-> 5 -e-> 6, plus a second way from 2 to 4: 2 -f-> 7 -e-> 4
        rows = {"e": [(1, 2), (3, 4), (5, 6), (7, 4)], "f": [(2, 3), (4, 5), (2, 7)]}
        database = Database.from_dict(rows)
        derived = seminaive_evaluate(self.MUTUAL, database)
        before = {predicate: set(relation.rows()) for predicate, relation in derived.items()}
        assert (2, 4) in before["q"] and (1, 6) in before["p"]

        stats = EvaluationStats()
        doomed = overestimate_deletions(
            self.MUTUAL, database, derived, {"e": {(3, 4)}}, stats, PlanCache()
        )
        assert {p: set(r.rows()) for p, r in derived.items()} == before  # nothing is removed yet
        assert stats.iterations == 3  # the doom travelled through both predicates' deltas
        # over-delete rounds record their state like any other round of the delta
        # loop: the widest delta of newly doomed rows (two binary tuples here)
        assert (stats.peak_state_tuples, stats.peak_state_columns) == (2, 4)

        rows["e"].remove((3, 4))
        after = seminaive_evaluate(self.MUTUAL, Database.from_dict(rows))
        for predicate in ("p", "q"):
            deleted = before[predicate] - after[predicate].rows()
            assert deleted <= doomed[predicate] <= before[predicate], predicate
        assert (3, 4) in doomed["p"] and (3, 6) in doomed["p"]
        # an overestimate: q(2, 4) and p(1, 4) are doomed through 3 and survive through 7
        assert (2, 4) in doomed["q"] and (2, 4) in after["q"]
        assert (1, 4) in doomed["p"] and (1, 4) in after["p"]

    @staticmethod
    def _outputs_under_two_hash_seeds(script):
        """The JSON ``script`` prints, from two interpreters with different string hashing."""
        import json
        import os
        import subprocess
        import sys

        import repro

        source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
            completed = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(json.loads(completed.stdout))
        return outputs

    def test_maintenance_counters_do_not_depend_on_the_hash_seed(self):
        """The same update scripts in two interpreters with different string hashing."""
        script = (
            "import json\n"
            "from repro import Session\n"
            "from repro.testing import generate_scenario\n"
            "out = {}\n"
            "for number in range(8):\n"
            "    case = generate_scenario('updates', number)\n"
            "    session = Session(case.base.program, case.base.database.copy())\n"
            "    if session.view.strategy != 'dred':\n"
            "        continue\n"
            "    for step in case.steps:\n"
            "        getattr(session, step.op)(step.relation, list(step.rows))\n"
            "    out[number] = session.view.stats.as_dict()\n"
            "    del out[number]['elapsed_seconds']\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        outputs = self._outputs_under_two_hash_seeds(script)
        assert len(outputs[0]) >= 4  # a handful of DRed seeds really ran
        assert outputs[0] == outputs[1]

    def test_differential_counters_do_not_depend_on_the_hash_seed(self):
        """Per differential seed: the fixpoint's totals in each mode, and ``answer()``'s rung and stats."""
        script = (
            "import json\n"
            "from repro import answer\n"
            "from repro.engine import EvaluationStats, seminaive_evaluate\n"
            "from repro.testing.reference import batching, step_machine\n"
            "from repro.testing import generate_case\n"
            "def totals(stats):\n"
            "    counts = stats.as_dict()\n"
            "    del counts['elapsed_seconds']\n"
            "    return counts\n"
            "out = {}\n"
            "for seed in range(84):\n"
            "    case = generate_case(seed)\n"
            "    row = out[seed] = {}\n"
            "    for mode, kernels, batch in (('interpreted', False, 'off'), ('kernel', True, 'off'),\n"
            "                                 ('columnar', True, 'force')):\n"
            "        stats = EvaluationStats()\n"
            "        with step_machine(not kernels), batching(batch):\n"
            "            seminaive_evaluate(case.program, case.database, stats)\n"
            "        row[mode] = totals(stats)\n"
            "    result = answer(case.program, case.database, case.query)\n"
            "    row['answer'] = [result.strategy, totals(result.stats)]\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        outputs = self._outputs_under_two_hash_seeds(script)
        assert len(outputs[0]) == 84  # every seed of the differential family
        assert outputs[0] == outputs[1]


class TestPreparedMaintenance:
    """A view keeps its maintenance prepared: a steady commit compiles, resolves
    and defines nothing, and what a view prepared is rebuilt when a relation it
    resolved, the executor or the profile channel changes."""

    @staticmethod
    def commits(session, k):
        """One commit of each shape: insert, delete, both at once, each relation alone."""
        node = 10 + k
        session.mutate(inserts={"a": [(node, 1)], "b": [(node, 1)]})
        session.mutate(deletes={"a": [(node, 1)], "b": [(node, 1)]})
        session.mutate(deletes={"a": [(2, 3)]}, inserts={"a": [(2, 3), (node, 1)]})
        session.insert("b", (3, node))
        session.delete("b", (3, node))
        session.delete("a", (node, 1))

    def test_a_steady_commit_compiles_resolves_and_defines_nothing(self, monkeypatch):
        from repro.engine import compile as compile_module
        from repro.engine import kernels, seminaive
        from repro.incremental import dred

        session = Session(TC, tc_database())
        for k in range(2):  # the first commit of each shape prepares it
            self.commits(session, k)
        calls = []

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in [
            (seminaive, "compile_delta_variants"),
            (seminaive, "prepare"),
            (dred, "prepare"),
            (compile_module, "prepare"),
            (compile_module.PlanCache, "get"),
            (compile_module.CompiledRule, "resolve"),
            (kernels, "_define"),
        ]:
            count(owner, name)
        compiled = []
        mutate = session.mutate

        def mutate_and_note(*args, **kwargs):
            result = mutate(*args, **kwargs)
            compiled.append(session.last_stats.plans_compiled)
            return result

        monkeypatch.setattr(session, "mutate", mutate_and_note)
        for k in range(2, 4):
            self.commits(session, k)
        assert calls == []
        assert compiled == [0] * 12
        assert_view_matches_recompute(session)

    def test_a_relation_absent_at_registration_is_resolved_once_it_exists(self):
        program = parse_program(
            """
            t(X, Y) :- b(X, Y).
            t(X, Y) :- a(X, Z), t(Z, Y), c(Z).
            """
        )
        session = Session(program, Database.from_dict({"a": [(1, 2)], "b": [(2, 3)]}))
        assert not session.database.has_relation("c")
        session.insert("b", (5, 6))  # prepares the recursive join with c absent
        session.mutate(inserts={"c": [(2,), (7,)], "a": [(4, 7)]})  # c's first rows
        assert (1, 3) in session.view.derived["t"]
        session.insert("b", (7, 8))  # the same shape as the first insert
        assert (4, 8) in session.view.derived["t"]
        assert_view_matches_recompute(session)

    def test_a_view_maintained_under_the_step_machine_runs_on_it(self, monkeypatch):
        from repro.testing import reference
        from repro.testing.reference import step_machine

        session = Session(TC, tc_database())
        session.insert("a", (0, 1))  # prepared outside the scope
        session.delete("a", (0, 1))
        stepped = []
        evaluate = reference._evaluate

        def noted(*args):
            stepped.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(reference, "_evaluate", noted)
        with step_machine():
            session.insert("a", (-1, 1))
            session.delete("a", (-1, 1))
        assert stepped
        assert_view_matches_recompute(session)

    def test_an_armed_profile_records_the_views_dispatch(self):
        from repro.engine import kernels
        from repro.engine.instrumentation import query_trace
        from repro.obs.profile import ProfileRecorder

        session = Session(TC, tc_database())
        session.insert("a", (0, 1))
        session.delete("a", (0, 1))
        profile = ProfileRecorder("commit")
        with query_trace(profile):
            session.insert("a", (-1, 1))
            session.delete("a", (-1, 1))
        assert profile.plans
        assert {plan.dispatch for plan in profile.plans} == {kernels.EXECUTOR.dispatch}
        assert profile.plan_cache_hits > 0
        assert_view_matches_recompute(session)


class TestQueryRouting:
    def test_fresh_view_answers_by_indexed_lookup(self):
        session = Session(TC, tc_database())
        result = session.query("t(1, Y)?")
        assert result.answers == {(1, 2), (1, 3)}
        assert result.strategy == "materialized-view (dred)"
        assert result.stats.unrestricted_lookups == 0
        assert result.stats.lookups == 1
        assert result.provenance.strategy == "dred"

    def test_edb_queries_route_to_database_lookup(self):
        session = Session(TC, tc_database())
        result = session.query("a(1, Y)?")
        assert result.answers == {(1, 2)}
        assert result.strategy == "edb-lookup"


class TestOwnership:
    """A session's view is maintained by that session's writes and no others."""

    def test_direct_database_writes_bypass_the_view(self):
        from repro.datalog.relation import Relation

        session = Session(TC, tc_database())
        before = session.view.derived["t"].rows()
        session.database.add_fact("b", (9, 10))
        session.database.add_relation(Relation("a", 2, [(1, 5)]))
        assert session.facts("b") >= {(9, 10)} and session.facts("a") == {(1, 5)}
        assert session.view.derived["t"].rows() == before
        assert session.epoch == 0 and session.collect_touched() == set()

    def test_a_view_is_maintained_only_by_its_own_session(self):
        database = tc_database()
        writer, bystander = Session(TC, database), Session(TC, database)
        writer.insert("b", (3, 9))
        assert (1, 9) in writer.view.derived["t"]
        assert (1, 9) not in bystander.view.derived["t"]
        assert (writer.epoch, bystander.epoch) == (1, 0)
        assert bystander.collect_touched() == set()
        assert_view_matches_recompute(writer)


class TestSessionErgonomics:
    def test_program_accepts_source_text(self):
        session = Session("t(X, Y) :- b(X, Y).", Database.from_dict({"b": [(1, 2)]}))
        assert session.query("t(1, Y)?").answers == {(1, 2)}

    def test_single_rows_accept_every_natural_spelling(self):
        session = Session(TC, tc_database())
        assert session.insert("a", (7, 8)) == 1  # tuple row
        assert session.insert("a", [8, 9]) == 1  # list row, NOT two arity-1 rows
        assert session.database.relation("a").rows() >= {(7, 8), (8, 9)}
        session_one = Session("q(X) :- p(X).", Database())
        session_one.insert("p", "alice")  # a bare string is one value
        assert session_one.database.relation("p").rows() == {("alice",)}

    def test_session_starts_with_empty_database(self):
        session = Session(TC)
        assert session.query("t(1, Y)?").answers == set()
        session.insert("b", (1, 2))
        assert session.query("t(1, Y)?").answers == {(1, 2)}

    def test_maintenance_stats_accumulate(self):
        session = Session(TC, tc_database())
        assert session.maintenance_stats.tuples_inserted == 0
        session.insert("b", (3, 4))
        assert session.maintenance_stats.tuples_inserted > 0

    @pytest.mark.parametrize("program", [TC, bounded_swap()], ids=["dred", "counting"])
    def test_a_dropped_session_frees_its_view_without_the_collector(self, program):
        """Nothing on the database points back at the session's view, so
        reference counting alone frees it once the session is dropped."""
        session = Session(program, tc_database())
        session.insert("b", (3, 1))
        session.delete("a", (1, 2))
        session.query("t(1, Y)?")
        view = weakref.ref(session.view)
        gc.disable()
        try:
            del session
            assert view() is None
        finally:
            gc.enable()

"""Verification campaigns: record structure, determinism and the lemma battery."""

import pytest

from revwiener import enumeration, verify
from revwiener.errors import BoundExceeded, DomainTooSmall, UnknownTheorem
from revwiener.verify import (
    SCHEMA_VERSION,
    THEOREM_IDS,
    run_lemma_battery,
    run_verification,
)


class TestReportShape:
    def test_to_dict_schema(self):
        report = run_verification("smallest", 4, 6)
        body = report.to_dict()
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["theorem"] == "smallest"
        assert body["summary"] == {"checked": 3, "passed": 3, "failed": 0}
        for rec in body["records"]:
            assert set(rec) == {
                "n",
                "claimed_value",
                "oracle_value",
                "claimed_set",
                "oracle_set",
                "match",
                "note",
            }

    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheorem):
            run_verification("no-such-theorem", 4, 6)

    def test_theorem_ids_are_wired(self):
        assert set(THEOREM_IDS) == {
            "smallest",
            "second-smallest",
            "third-smallest",
            "prop-d3",
            "prop-f4",
            "prop-g4",
            "lemmas",
        }


class TestCampaigns:
    def test_second_smallest_small_range(self):
        report = run_verification("second-smallest", 4, 12)
        assert report.all_match

    def test_third_smallest_small_range(self):
        report = run_verification("third-smallest", 5, 12)
        assert report.all_match

    def test_prop_d3(self):
        report = run_verification("prop-d3", 4, 200)
        assert report.all_match
        # Two records per n once the second minimum exists (n >= 6).
        assert report.checked == 2 + 2 * 195

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_prop_d3_below_its_domain_is_rejected(self, n):
        # No double star has fewer than 4 vertices; a report with no records must not pass.
        with pytest.raises(DomainTooSmall):
            run_verification("prop-d3", n, n)

    def test_prop_d3_builds_trees_only_for_kept_ties(self, monkeypatch):
        built = []

        def counted(levels):
            built.append(len(levels))
            return to_tree(levels)

        to_tree = enumeration._levels_to_tree
        monkeypatch.setattr(enumeration, "_levels_to_tree", counted)
        report = run_verification("prop-d3", 4, 40)
        assert report.all_match
        # Each of f(n,3) and g(n,3) is attained by one double star.
        assert built == [r.n for r in report.records]

    def test_prop_f4(self):
        report = run_verification("prop-f4", 5, 30)
        assert report.all_match

    def test_prop_g4_flags_published_table_omissions(self):
        report = run_verification("prop-g4", 6, 20)
        mismatched = {r.n for r in report.records if not r.match}
        assert mismatched == {9, 19}
        for r in report.records:
            # Values agree everywhere; mismatches are set-only and must
            # carry both sets plus an explanatory note.
            assert r.claimed_value == r.oracle_value
            if not r.match:
                assert set(r.claimed_set) < set(r.oracle_set)
                assert "erratum" in r.note

    def test_parallel_run_is_deterministic(self):
        serial = run_verification("prop-d3", 4, 14, jobs=1)
        parallel = run_verification("prop-d3", 4, 14, jobs=2)
        assert serial.records == parallel.records

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_is_rejected_before_any_work(self, monkeypatch, theorem, jobs):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(verify, "_worker", no_work)
        monkeypatch.setattr(verify, "run_lemma_battery", no_work)
        with pytest.raises(DomainTooSmall) as exc:
            run_verification(theorem, 5, 8, jobs=jobs)
        assert str(exc.value) == f"jobs must be at least 1, got {jobs}"


    @pytest.mark.parametrize(
        "theorem, n_from, n_to, message",
        [
            ("smallest", 10, 5, "empty n range 10..5: nothing to verify"),
            ("prop-f4", 9, 8, "empty n range 9..8: nothing to verify"),
            ("prop-d3", 0, 3, "n must be at least 1, got 0"),
            ("third-smallest", -2, 5, "n must be at least 1, got -2"),
            ("second-smallest", 0, 30, "n must be at least 1, got 0"),
        ],
    )
    def test_range_that_checks_nothing_is_rejected_before_any_work(self, monkeypatch, theorem, n_from, n_to, message):
        # A campaign that checks nothing must not pass.
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(verify, "_worker", no_work)
        with pytest.raises(DomainTooSmall) as exc:
            run_verification(theorem, n_from, n_to)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "theorem, n_from, n_to, bounds, message",
        [
            ("smallest", 20, 23, {}, "n=23 exceeds free-tree bound 22"),
            ("third-smallest", 30, 40, {}, "n=30 exceeds free-tree bound 22"),
            ("second-smallest", 5, 9, {"max_n_free": 8}, "n=9 exceeds free-tree bound 8"),
            ("prop-f4", 70, 90, {}, "n=81 exceeds diameter-4 bound 80"),
            ("prop-g4", 12, 13, {"max_n_diam4": 11}, "n=12 exceeds diameter-4 bound 11"),
        ],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_range_past_a_bound_is_rejected_before_any_work(
        self, monkeypatch, theorem, n_from, n_to, bounds, message, jobs
    ):
        # The message is the one the oracle itself raises at that n.
        def no_work(*args, **kwargs):
            raise AssertionError("oracle called")

        monkeypatch.setattr(enumeration, "rank_trees", no_work)
        with pytest.raises(BoundExceeded) as exc:
            run_verification(theorem, n_from, n_to, jobs=jobs, **bounds)
        assert str(exc.value) == message

    def test_range_that_ends_at_the_bound_runs(self):
        assert run_verification("smallest", 8, 9, max_n_free=9).checked == 2
        assert run_verification("prop-f4", 11, 12, jobs=2, max_n_diam4=12).checked == 2


class TestLemmaBattery:
    def test_small_battery_passes(self):
        report = run_lemma_battery(trials=40, max_n=25, seed=3)
        assert report.all_match
        assert report.checked == 4  # one record per transform

    def test_seed_reproducibility(self):
        a = run_lemma_battery(trials=10, max_n=20, seed=11)
        b = run_lemma_battery(trials=10, max_n=20, seed=11)
        assert a.records == b.records

    def test_dispatch_through_run_verification(self):
        report = run_verification("lemmas", 5, 25, trials=10, seed=2)
        assert report.theorem == "lemmas"
        assert report.all_match

    @pytest.mark.parametrize("n_from, n_to", [(30, 60), (6, 40), (5, 41), (7, 7)])
    def test_range_it_cannot_draw_is_rejected(self, n_from, n_to):
        # The battery draws n from 5 up, and its diameter-4 inputs stop at n = 40.
        with pytest.raises(DomainTooSmall) as exc:
            run_verification("lemmas", n_from, n_to, trials=5, seed=1)
        assert str(exc.value) == f"lemmas draws n from 5 up to at most 40 and cannot cover {n_from}..{n_to}"

    def test_range_it_can_draw_sets_the_largest_n(self):
        report = run_verification("lemmas", 1, 12, trials=5, seed=1)
        assert [r.note for r in report.records] == [
            f"{lemma}: 5 random valid inputs, n <= 12" for lemma in ("lemma1", "lemma2", "lemma3", "lemma5")
        ]

    @pytest.mark.parametrize("trials, max_n", [(0, 25), (-3, 25), (10, 6), (10, 4)])
    def test_inputs_that_check_nothing_or_never_end_are_rejected(self, trials, max_n):
        with pytest.raises(DomainTooSmall):
            run_lemma_battery(trials=trials, max_n=max_n)

"""Random instance generation and the Monte Carlo trial pipeline."""

import pytest

from pcpkit import genericity
from pcpkit import (
    InputError,
    PolyMap,
    SolutionSet,
    SolveConfig,
    enumerate_solutions,
    genericity_trial,
    monomials_up_to,
    random_instance,
    trial_instance,
)

FAST = SolveConfig(starts_per_subsystem=60)


class TestMonomials:
    def test_count_n2_d2(self):
        assert len(monomials_up_to(2, 2)) == 6

    def test_graded_order(self):
        listing = monomials_up_to(2, 2)
        degrees = [sum(k) for k in listing]
        assert degrees == sorted(degrees)

    def test_counts_binomial(self):
        from math import comb

        for n in (1, 2, 3):
            for d in (1, 2, 3, 4):
                assert len(monomials_up_to(n, d)) == comb(n + d, d)

    def test_matches_product_and_filter(self):
        # trial seeds draw coefficients in this order, so it must not move
        from itertools import product

        for n in (1, 2, 3, 4):
            for d in (0, 1, 2, 3, 4):
                expected = [
                    combo
                    for total in range(d + 1)
                    for combo in product(range(total + 1), repeat=n)
                    if sum(combo) == total
                ]
                assert monomials_up_to(n, d) == expected

    def test_many_variables_linear(self):
        listing = monomials_up_to(30, 1)
        assert len(listing) == 31
        assert listing[1] == (0,) * 29 + (1,) and listing[-1] == (1,) + (0,) * 29


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(2, (2, 2), (2, 2), seed=5)
        b = random_instance(2, (2, 2), (2, 2), seed=5)
        assert a == b

    def test_term_counts(self):
        inst = random_instance(2, (2, 2), (2, 2), seed=1)
        for component in inst.f.components + inst.g.components:
            assert len(component.terms) == 6

    def test_distinct_seeds_distinct_instances(self):
        a = random_instance(2, (2, 2), (2, 2), seed=1)
        b = random_instance(2, (2, 2), (2, 2), seed=2)
        assert a != b

    def test_mixed_degrees(self):
        inst = random_instance(3, (1, 2, 3), (2, 2, 2), seed=9)
        assert inst.f.component_degrees == (1, 2, 3)
        assert inst.degree_g == 2

    def test_validation(self):
        with pytest.raises(InputError):
            random_instance(2, (2,), (2, 2), seed=0)
        with pytest.raises(InputError):
            random_instance(2, (0, 2), (2, 2), seed=0)


class TestTrialPipeline:
    def test_summary_determinism(self):
        a = genericity_trial(2, (2, 2), 8, seed=3, cfg=FAST)
        b = genericity_trial(2, (2, 2), 8, seed=3, cfg=FAST)
        assert a.to_dict() == b.to_dict()
        assert a.to_dict()["records"] == [r.to_dict() for r in a.records]

    def test_cardinality_bound_quadratic(self):
        summary = genericity_trial(2, (2, 2), 15, seed=11, cfg=FAST)
        assert summary.cardinality_bound == 16
        assert summary.max_count <= 16
        assert summary.skipped == 0

    def test_affine_mode_counts_and_lemke(self):
        summary = genericity_trial(1, (1,), 40, seed=2, cfg=FAST)
        assert summary.cardinality_bound == 2
        assert summary.max_count <= 2
        assert summary.strict_rate >= 0.95
        # whenever pivoting found a solution, enumeration matched it
        for record in summary.records:
            if record.lemke_status in ("solution", "trivial"):
                assert record.lemke_agrees is True

    def test_lemke_disagrees_with_an_empty_solution_set(self, monkeypatch):
        # a Lemke solution is at distance 1 from an empty set, above the dedupe radius
        def nothing_found(inst, cfg):
            return SolutionSet(certificates=(), n=inst.n, config=cfg, completeness_claim=True)

        monkeypatch.setattr(genericity, "enumerate_solutions", nothing_found)
        summary = genericity_trial(1, (1,), 10, seed=2, cfg=FAST)
        solved = [r for r in summary.records if r.lemke_status in ("solution", "trivial")]
        assert solved and all(r.lemke_agrees is False for r in solved)

    def test_failure_reproduction_seed(self):
        summary = genericity_trial(2, (2, 2), 5, seed=21, cfg=FAST)
        for record in summary.records:
            inst = trial_instance(2, (2, 2), 21, record.spawn_index)
            sols = enumerate_solutions(inst, FAST)
            assert len(sols) == record.solution_count

    def test_degenerate_equal_pair_reported(self, hyperbola_pair):
        # f = g forces f_i + g_i = 0 on active components: the strict
        # complementarity check must fail and be reported, not hidden
        sols = enumerate_solutions(hyperbola_pair, FAST)
        assert len(sols) == 1
        assert not sols.certificates[0].strict_complementarity

    def test_affine_f_is_identity(self):
        inst = trial_instance(3, (1, 1, 1), master_seed=0, spawn_index=4)
        assert inst.f == PolyMap.identity(3)
        assert inst.degree_g == 1

    def test_rates_are_fractions_of_completed(self):
        summary = genericity_trial(2, (2, 2), 10, seed=5, cfg=FAST)
        assert 0.0 <= summary.strict_rate <= 1.0
        assert 0.0 <= summary.r0_rate <= 1.0
        assert 0.0 <= summary.lipschitz_rate <= 1.0
        assert len(summary.counts) == 10 - summary.skipped

    def test_csv_rows(self):
        summary = genericity_trial(2, (2, 2), 4, seed=1, cfg=FAST)
        rows = summary.csv_rows()
        assert len(rows) == 4
        assert {"spawn_index", "solution_count", "lipschitz_c"} <= set(rows[0])

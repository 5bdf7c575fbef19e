"""The grouped kernel: one gather per distinct prior vector, atoms where X
is 0 left out, and the same results as the per-prior route."""

import math
import tracemalloc

import numpy as np
import pytest

from robust_orlicz import (Exponential, OrliczFamily, Power, ScenarioModel,
                           gaussian_power_ladder, luxemburg_norm, modular,
                           single_prior_luxemburg, tail_membership)
from robust_orlicz import diagnostics, norms

from conftest import random_family, random_prior

INF = math.inf


def _model_with_duplicates(rng, n_atoms):
    """1-3 distinct priors, each repeated 1-3 times, shuffled; some
    repeats are the same array object, some equal copies."""
    priors = []
    for _ in range(int(rng.integers(1, 4))):
        p = random_prior(rng, n_atoms)
        priors += [p if rng.random() < 0.5 else p.copy()
                   for _ in range(int(rng.integers(1, 4)))]
    order = rng.permutation(len(priors))
    return ScenarioModel([f"w{i}" for i in range(n_atoms)], [priors[i] for i in order])


class TestPriorGroups:
    def test_groups_same_object_and_equal_copies(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.5, 0.5, 0.0])
        m = ScenarioModel(["a", "b", "c"], [p, p, q, p.copy(), [0.2, 0.3, 0.5], q.copy()])
        assert m.prior_groups == ((0, 1, 3, 4), (2, 5))

    def test_distinct_vectors_stay_apart(self):
        p = np.array([0.2, 0.3, 0.5])
        q = p + np.array([1e-15, -1e-15, 0.0])
        m = ScenarioModel(["a", "b", "c"], [p, q, p[::-1], p])
        assert m.prior_groups == ((0, 3), (1,), (2,))

    def test_power_ladder_is_one_group(self):
        t = gaussian_power_ladder(4, T=3.0, h=0.1)
        assert t.model.prior_groups == ((0, 1, 2, 3),)


class TestGroupedKernel:
    def test_per_prior_norms_equal_single_prior_route_on_zero_free_x(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            m = _model_with_duplicates(rng, n)
            fam = random_family(rng, m)
            x = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
            x[x == 0.0] = 1.0
            res = luxemburg_norm(m, x, fam)
            for label, prior in zip(m.prior_labels, m.priors):
                assert res.per_prior_norms[label] == single_prior_luxemburg(
                    prior, fam.phi(label), x)

    def test_sparse_ladder_tail_matches_dense_reference(self):
        t = gaussian_power_ladder(12)
        abs_x = np.abs(t.x)
        tail = np.where(abs_x > 7.0, abs_x, 0.0)
        assert 0 < np.count_nonzero(tail) < 0.5 * tail.size
        res = luxemburg_norm(t.model, tail, t.family)
        dense = max(single_prior_luxemburg(prior, t.family.phi(label), tail)
                    for label, prior in zip(t.model.prior_labels, t.model.priors))
        assert res.value == pytest.approx(dense, rel=1e-12, abs=0.0)
        lo, hi = res.bracket
        assert lo <= res.value <= hi
        assert modular(t.model, tail, hi, t.family) <= 1.0 < modular(t.model, tail, lo, t.family)
        assert res.modular_at_value == modular(t.model, tail, hi, t.family)

    def test_modular_at_value_is_modular_on_sparse_x(self, rng):
        checked = 0
        for _ in range(150):
            n = int(rng.integers(9, 40))
            m = _model_with_duplicates(rng, n)
            fam = random_family(rng, m)
            x = rng.normal(size=n)
            x[rng.random(n) < 0.4] = 0.0
            res = luxemburg_norm(m, x, fam)
            if 0.0 < res.value < INF:
                assert res.modular_at_value == modular(m, x, res.bracket[1], fam)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_few_compact_modular_calls_on_a_dirichlet_prior(self, monkeypatch, beta):
        rng = np.random.default_rng(3)
        prior = rng.dirichlet(np.ones(2000))
        x = rng.normal(size=2000)
        inner = Exponential._eval_scaled
        calls = []

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(Exponential, "_eval_scaled", counted)
        value, steps = single_prior_luxemburg(prior, Exponential(beta), x, with_steps=True)
        assert steps > 0
        assert 0 < len(calls) <= 12

    def test_one_gather_per_group(self, monkeypatch, rng):
        m = ScenarioModel([f"w{i}" for i in range(50)], [random_prior(rng, 50)] * 6
                          + [random_prior(rng, 50)] * 4)
        # a phi of its own per prior: ten blocks of one over two groups
        fam = OrliczFamily({l: Power(1.0 + 0.1 * i) for i, l in enumerate(m.prior_labels)})
        abs_x = np.abs(rng.normal(size=50))
        abs_x[7] = 0.0  # so that the masses are gathered, not the priors
        inner = norms._blocks
        blocks = []

        def counted(*args):
            blocks.extend(inner(*args))
            return blocks

        monkeypatch.setattr(norms, "_blocks", counted)
        norms.sup_prior_norms(norms._plan(m, fam), abs_x)
        masses = [w for _, _, ws, _ in blocks for w in ws]
        assert len(blocks) == len(masses) == m.n_priors
        assert len(set(map(id, masses))) == 2
        assert all(w.size < m.n_atoms for w in masses)
        assert sorted(l for _, _, _, labels in blocks for [l] in labels) == sorted(m.prior_labels)

    def test_a_phi_per_prior_gathers_one_group_at_a_time(self):
        # 200 distinct Dirichlet priors x 2 000 atoms with a phi of its own
        # each, and every tenth X zero: 200 groups of one block each, whose
        # masses on the kept atoms would take 2.9 MB held all at once
        rng = np.random.default_rng([901, sum(map(ord, "large-models"))])
        m = ScenarioModel([f"w{i}" for i in range(2000)],
                          rng.dirichlet(np.ones(2000), size=200))
        fam = OrliczFamily({l: Exponential(0.5 + 0.01 * i) for i, l in enumerate(m.prior_labels)})
        x = rng.normal(size=2000)
        x[::10] = 0.0
        luxemburg_norm(m, x, fam)
        tracemalloc.start()
        try:
            luxemburg_norm(m, x, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 400 * 1024

    def test_tail_membership_canonicalises_each_rung_once(self, monkeypatch):
        ladder = [gaussian_power_ladder(n, T=4.0, h=0.01) for n in (2, 3)]
        inner = diagnostics.canonicalise
        calls = []

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(diagnostics, "canonicalise", counted)
        prof = tail_membership(ladder, [1.0, 2.0, 3.0])
        assert len(calls) == len(ladder)
        monkeypatch.undo()
        for lev, got in zip(prof.levels, prof.tail_norms):
            t = ladder[-1]
            tail = np.where(np.abs(t.x) > lev, np.abs(t.x), 0.0)
            assert got == luxemburg_norm(t.model, tail, t.family).value


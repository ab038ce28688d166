import dataclasses
import json
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from pastaopt import (
    Catalog,
    Instance,
    InstanceConfig,
    SamplingDesign,
    best_assortment,
    brute_force_best,
    cardinality_constraints,
    choice_probabilities,
    count_assortments,
    derive_rng,
    expected_revenue,
    generate_dataset,
    generate_instance,
    sample_assortment,
    sample_choice,
)
from pastaopt import datagen, likelihood


def comb_oracle(n: int, k: int) -> int:
    """Independent binomial via Pascal's rule, exact integers only."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def reference_instance(cfg: InstanceConfig):
    """Oracle for generate_instance: its former per-attempt loop, one
    _unit_vector draw per attempt. Returns the instance's arrays and values,
    or "raised" where the loop gives up, and the number of attempts made."""
    theta_rng = derive_rng(cfg.seed, 0, "theta")
    feat_rng = derive_rng(cfg.seed, 0, "features")
    rev_rng = derive_rng(cfg.seed, 0, "revenues")
    if cfg.theta_star_mode == "unit-sphere":
        theta_star = datagen._unit_vector(theta_rng, cfg.dim)
    else:
        theta_star = theta_rng.uniform(-1.0, 1.0, size=cfg.dim)
    features = np.empty((cfg.n_items, cfg.dim))
    draws = 0
    for i in range(cfg.n_items):
        for attempt in range(datagen._MAX_REJECTIONS):
            x = datagen._unit_vector(feat_rng, cfg.dim)
            draws += 1
            if float(x @ theta_star) <= cfg.tau:
                features[i] = x
                break
        else:
            return "raised", draws
    revenues = rev_rng.uniform(cfg.r_lo, cfg.r_hi, size=cfg.n_items)
    catalog = Catalog(features=features, revenues=revenues)
    s_star = best_assortment(catalog, theta_star, cardinality_constraints(cfg.n_items, cfg.k))
    v_star = expected_revenue(catalog, s_star, theta_star)
    return instance_bytes(theta_star, features, revenues, s_star, v_star), draws


def instance_bytes(theta_star, features, revenues, s_star, v_star):
    return (theta_star.tobytes(), features.tobytes(), revenues.tobytes(), s_star, v_star.hex())


def library_instance(cfg: InstanceConfig):
    try:
        inst = generate_instance(cfg)
    except RuntimeError:
        return "raised"
    cat = inst.catalog
    return instance_bytes(inst.theta_star, cat.features, cat.revenues, inst.s_star, inst.v_star)


def reference_dataset(instance: Instance, design: SamplingDesign, n: int, rng):
    """Oracle for generate_dataset: its former per-record loop, one
    sample_assortment draw and one Generator.choice draw per record."""
    assort_rng, choice_rng = rng.spawn(2)
    catalog = instance.catalog
    assortments, choices, revenues = [], [], []
    for _ in range(n):
        s = sample_assortment(instance, design, assort_rng)
        masses = choice_probabilities(catalog, s, instance.theta_star).as_array()
        k = int(choice_rng.choice(len(s) + 1, p=masses))
        a = 0 if k == len(s) else s[k]
        assortments.append(s)
        choices.append(a)
        revenues.append(0.0 if a == 0 else float(catalog.revenues[a - 1]))
    return assortments, np.asarray(choices, dtype=int), np.asarray(revenues, dtype=float)


def dataset_bytes(assortments, choices, revenues):
    return assortments, choices.dtype, choices.tobytes(), revenues.dtype, revenues.tobytes()


def scaled_truth(instance: Instance, scale: float) -> Instance:
    return dataclasses.replace(instance, theta_star=instance.theta_star * scale)


def cdf_ties_at_one(instance: Instance, s) -> bool:
    cdf = choice_probabilities(instance.catalog, s, instance.theta_star).as_array().cumsum()
    cdf /= cdf[-1]
    return int(np.sum(cdf == 1.0)) >= 2


class TestCountAssortments:
    def test_small_cases(self):
        assert count_assortments(3, 2) == 6
        assert count_assortments(3, 3) == 7  # 2^3 - 1

    def test_experiment_scale_against_oracle(self):
        expected = sum(comb_oracle(40, j) for j in range(1, 9))
        assert expected == 100_146_723
        assert count_assortments(40, 8) == expected

    def test_range_guard(self):
        with pytest.raises(ValueError):
            count_assortments(10, 0)
        with pytest.raises(ValueError):
            count_assortments(65, 5)


class TestGenerateInstance:
    def test_unit_sphere_truth(self):
        inst = generate_instance(InstanceConfig(n_items=8, k=3, dim=5, seed=3))
        assert abs(np.linalg.norm(inst.theta_star) - 1.0) < 1e-12

    def test_iid_uniform_truth(self):
        cfg = InstanceConfig(n_items=8, k=3, dim=12, seed=3, theta_star_mode="iid-uniform")
        inst = generate_instance(cfg)
        assert np.all(np.abs(inst.theta_star) <= 1.0)
        assert abs(np.linalg.norm(inst.theta_star) - 1.0) > 1e-6

    def test_utilities_respect_threshold(self):
        inst = generate_instance(InstanceConfig(n_items=12, k=4, dim=6, seed=5))
        assert inst.catalog.utilities(inst.theta_star).max() <= -0.6

    def test_revenue_range(self):
        inst = generate_instance(InstanceConfig(n_items=12, k=4, dim=6, seed=6))
        assert np.all(inst.catalog.revenues >= 0.5)
        assert np.all(inst.catalog.revenues <= 0.8)

    def test_optimum_matches_enumeration(self):
        inst = generate_instance(InstanceConfig(n_items=6, k=3, dim=3, seed=8))
        oracle = brute_force_best(
            inst.catalog, inst.theta_star, cardinality_constraints(6, 3)
        )
        assert expected_revenue(inst.catalog, inst.s_star, inst.theta_star) == pytest.approx(
            expected_revenue(inst.catalog, oracle, inst.theta_star), abs=1e-12
        )
        assert inst.v_star == pytest.approx(
            expected_revenue(inst.catalog, inst.s_star, inst.theta_star), abs=1e-15
        )

    def test_ground_truth_dominates_every_assortment(self):
        inst = generate_instance(InstanceConfig(n_items=6, k=2, dim=2, seed=9))
        import itertools

        for size in (1, 2):
            for s in itertools.combinations(range(1, 7), size):
                assert inst.v_star >= expected_revenue(inst.catalog, s, inst.theta_star) - 1e-12

    def test_unreachable_threshold_errors(self):
        cfg = InstanceConfig(n_items=1, k=1, dim=3, seed=10, tau=-0.999999)
        with pytest.raises(RuntimeError):
            generate_instance(cfg)

    def test_deterministic_serialization(self, tmp_path):
        cfg = InstanceConfig(n_items=7, k=2, dim=3, seed=12)
        a, b = generate_instance(cfg), generate_instance(cfg)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()
        loaded = Instance.load(pa)
        assert loaded.s_star == a.s_star
        assert np.array_equal(loaded.theta_star, a.theta_star)


class TestBlockSampler:
    """generate_instance draws features in blocks; reference_instance is the
    per-attempt loop it must reproduce byte for byte."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 64])
    def test_matches_per_attempt_loop(self, monkeypatch, dim):
        # 20 configs of this grid have an unreachable threshold; a fifth of
        # the cap makes the reference give up on them 5x sooner, and the
        # reachable ones need at most 229 draws per item on average
        monkeypatch.setattr(datagen, "_MAX_REJECTIONS", 20_000)
        for mode in ("unit-sphere", "iid-uniform"):
            for tau in (-0.2, -0.6, -0.9):
                for seed in range(3):
                    cfg = InstanceConfig(
                        n_items=40, k=8, dim=dim, seed=seed, theta_star_mode=mode, tau=tau
                    )
                    expected, _ = reference_instance(cfg)
                    assert library_instance(cfg) == expected, cfg

    def test_draws_span_several_blocks(self):
        # the headline shape accepts about 1 draw in 185
        cfg = InstanceConfig(n_items=40, k=8, dim=16, seed=606)
        expected, draws = reference_instance(cfg)
        assert draws >= 3 * datagen._FEATURE_BLOCK
        assert library_instance(cfg) == expected

    def test_rows_on_the_threshold_are_accepted(self):
        # in one dimension x = +-1 exactly, so x . theta_star equals
        # tau = -|theta_star| exactly on every accepted row
        for seed in range(6):
            u = derive_rng(seed, 0, "theta").uniform(-1.0, 1.0, size=1)[0]
            for mode, tau in (("unit-sphere", -1.0), ("iid-uniform", -abs(u))):
                cfg = InstanceConfig(
                    n_items=10, k=3, dim=1, seed=seed, theta_star_mode=mode, tau=tau
                )
                expected, _ = reference_instance(cfg)
                assert library_instance(cfg) == expected
                inst = generate_instance(cfg)
                assert np.all(inst.catalog.utilities(inst.theta_star) == tau)

    @pytest.mark.parametrize("cap, tau, n_items", [(5, -0.6, 3), (50, -0.9, 10)])
    def test_rejection_cap_counts_draws_per_item(self, monkeypatch, cap, tau, n_items):
        # at dim 3, x . theta_star is uniform on [-1, 1], so tau -0.6 accepts
        # 20% of draws and -0.9 accepts 5%; small blocks make every item's
        # draws cross block boundaries
        monkeypatch.setattr(datagen, "_MAX_REJECTIONS", cap)
        raised = []
        for block in (1, 7, 64, datagen._FEATURE_BLOCK):
            monkeypatch.setattr(datagen, "_FEATURE_BLOCK", block)
            for seed in range(30):
                cfg = InstanceConfig(n_items=n_items, k=2, dim=3, seed=seed, tau=tau)
                expected, _ = reference_instance(cfg)
                assert library_instance(cfg) == expected, (block, seed)
                raised.append(expected == "raised")
        assert any(raised) and not all(raised)

    def test_cap_message_reports_the_sampler_not_the_threshold(self, monkeypatch):
        # tau = -0.9 is reachable (x = -theta_star has utility -1) but accepts
        # 5% of draws at dim 3, so a cap of 5 draws per item gives up
        monkeypatch.setattr(datagen, "_MAX_REJECTIONS", 5)
        cfg = InstanceConfig(n_items=10, k=2, dim=3, seed=0, tau=-0.9)
        assert reference_instance(cfg)[0] == "raised"
        with pytest.raises(RuntimeError) as err:
            generate_instance(cfg)
        message = str(err.value)
        assert "none of 5 unit vectors drawn from the whole sphere had utility <= -0.9" in message
        assert "--theta-mode iid-uniform" in message and "larger tau" in message
        assert "unreachable" not in message


class TestSamplingDesign:
    def test_single_assortment_design_rejected(self):
        # one item under k = 1 leaves s* as the only assortment, so a draw
        # that misses p would re-draw s* forever
        with pytest.raises(ValueError, match="at least 2 nonempty assortments"):
            SamplingDesign(p=0.5, n_items=1, k=1)
        assert InstanceConfig(n_items=1, k=1, dim=2, seed=1).n_items == 1
        assert SamplingDesign(p=0.5, n_items=2, k=1).n_assortments == 2

    def test_mass_bookkeeping(self):
        design = SamplingDesign(p=0.4, n_items=3, k=1)
        assert design.n_assortments == 3
        assert design.mass_of((1,), (1,)) == 0.4
        assert design.mass_of((2,), (1,)) == pytest.approx(0.3, abs=1e-15)

    def test_near_degenerate_p(self):
        inst = generate_instance(InstanceConfig(n_items=5, k=2, dim=2, seed=14))
        design = SamplingDesign(p=0.999999, n_items=5, k=2)
        rng = derive_rng(14, 0, "draws")
        hits = sum(sample_assortment(inst, design, rng) == inst.s_star for _ in range(10_000))
        assert hits / 10_000 > 0.999

    def test_three_singletons_frequencies(self):
        inst = generate_instance(InstanceConfig(n_items=3, k=1, dim=2, seed=15))
        design = SamplingDesign(p=0.4, n_items=3, k=1)
        rng = derive_rng(15, 0, "draws")
        counts = Counter(sample_assortment(inst, design, rng) for _ in range(100_000))
        assert counts[inst.s_star] / 100_000 == pytest.approx(0.4, abs=0.01)
        for s in ((1,), (2,), (3,)):
            if s != inst.s_star:
                assert counts[s] / 100_000 == pytest.approx(0.3, abs=0.01)

    def test_uniformity_chi_squared(self):
        # 9 non-optimal cells at N=4, K=2 should look uniform
        inst = generate_instance(InstanceConfig(n_items=4, k=2, dim=2, seed=16))
        design = SamplingDesign(p=0.3, n_items=4, k=2)
        assert design.n_assortments == 10
        rng = derive_rng(16, 0, "draws")
        counts = Counter()
        n_draws = 100_000
        for _ in range(n_draws):
            s = sample_assortment(inst, design, rng)
            if s != inst.s_star:
                counts[s] += 1
        total = sum(counts.values())
        assert len(counts) == 9
        expected = total / 9
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.999, df=8)


class TestGenerateDataset:
    def test_record_structure(self):
        inst = generate_instance(InstanceConfig(n_items=6, k=2, dim=3, seed=17))
        design = SamplingDesign(p=0.7, n_items=6, k=2)
        ds = generate_dataset(inst, design, 500, derive_rng(17, 0, "ds"))
        for s, a, r in ds.records():
            assert a == 0 or a in s
            if a == 0:
                assert r == 0.0
            else:
                assert r == inst.catalog.revenues[a - 1] and r >= 0.5

    def test_optimal_assortment_frequency(self):
        inst = generate_instance(InstanceConfig(n_items=8, k=3, dim=3, seed=18))
        design = SamplingDesign(p=0.9, n_items=8, k=3)
        ds = generate_dataset(inst, design, 10_000, derive_rng(18, 0, "ds"))
        frac = np.mean([s == inst.s_star for s in ds.assortments])
        assert abs(frac - 0.9) < 0.02

    def test_extending_n_preserves_prefix(self):
        inst = generate_instance(InstanceConfig(n_items=6, k=2, dim=2, seed=19))
        design = SamplingDesign(p=0.5, n_items=6, k=2)
        short = generate_dataset(inst, design, 50, derive_rng(19, 0, "ds"))
        long = generate_dataset(inst, design, 80, derive_rng(19, 0, "ds"))
        assert long.assortments[:50] == short.assortments
        assert np.array_equal(long.choices[:50], short.choices)
        assert long.revenues[:50].tobytes() == short.revenues.tobytes()

    def test_deterministic_csv_bytes(self, tmp_path):
        inst = generate_instance(InstanceConfig(n_items=6, k=2, dim=2, seed=20))
        design = SamplingDesign(p=0.5, n_items=6, k=2)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_dataset(inst, design, 60, derive_rng(20, 0, "ds")).save_csv(pa)
        generate_dataset(inst, design, 60, derive_rng(20, 0, "ds")).save_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_instance_json_carries_config_echo(self, tmp_path):
        cfg = InstanceConfig(n_items=5, k=2, dim=2, seed=21)
        inst = generate_instance(cfg)
        path = tmp_path / "inst.json"
        inst.save(path)
        obj = json.loads(path.read_text())
        assert obj["config"]["n_items"] == 5
        assert obj["config"]["seed"] == 21
        assert obj["s_star"] == list(inst.s_star)


# (n_items, k, dim, n, p, scale of theta_star); the first three are the
# benchmark shapes
BATCH_CASES = {
    "headline": (40, 8, 16, 150, 0.9, 1.0),
    "large-catalog": (64, 16, 4, 400, 0.3, 1.0),
    "cli": (40, 8, 8, 2000, 0.5, 1.0),
    "mostly-distinct": (10, 4, 4, 200, 0.05, 1.0),
    "k=1": (6, 1, 3, 300, 0.5, 1.0),
    "n=1": (40, 8, 16, 1, 0.9, 1.0),
    "norm-100": (10, 3, 4, 500, 0.5, 100.0),
    "norm-100-flipped": (10, 3, 4, 500, 0.5, -100.0),
    "full-coverage": (10, 8, 4, 5000, 0.01, 1.0),
}


class TestBatchedChoices:
    """generate_dataset draws a log's choices in one batch; reference_dataset
    is the per-record loop it must reproduce byte for byte."""

    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_matches_per_record_loop(self, case):
        n_items, k, dim, n, p, scale = BATCH_CASES[case]
        design = SamplingDesign(p=p, n_items=n_items, k=k)
        for seed in range(3):
            inst = generate_instance(InstanceConfig(n_items=n_items, k=k, dim=dim, seed=seed))
            inst = scaled_truth(inst, scale)
            ds = generate_dataset(inst, design, n, derive_rng(seed, 0, "ds"))
            expected = reference_dataset(inst, design, n, derive_rng(seed, 0, "ds"))
            assert dataset_bytes(ds.assortments, ds.choices, ds.revenues) == dataset_bytes(
                *expected
            ), seed
            if case == "mostly-distinct":
                assert len(set(ds.assortments)) > n / 2
            if case == "full-coverage":
                # sets other than s_star repeat too
                repeats = Counter(s for s in ds.assortments if s != inst.s_star)
                assert sum(c > 1 for c in repeats.values()) > 100
            if case == "norm-100-flipped":
                # utilities of 60 and more leave the smaller masses below the
                # resolution of the running sum, so cdf entries tie at 1.0
                assert any(cdf_ties_at_one(inst, s) for s in set(ds.assortments))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_truth_raises(self, bad):
        inst = generate_instance(InstanceConfig(n_items=8, k=3, dim=3, seed=22))
        theta = inst.theta_star.copy()
        theta[0] = bad
        broken = dataclasses.replace(inst, theta_star=theta)
        design = SamplingDesign(p=0.5, n_items=8, k=3)
        with pytest.raises(ValueError):
            reference_dataset(broken, design, 50, derive_rng(22, 0, "ds"))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            generate_dataset(broken, design, 50, derive_rng(22, 0, "ds"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_sample_choice_raises_before_drawing(self, bad):
        cat = Catalog(features=np.array([[1.0], [-0.5]]), revenues=np.array([0.6, 0.7]))
        rng = np.random.default_rng(23)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_choice(cat, (1, 2), np.array([bad]), rng)
        assert rng.bit_generator.state == state

    def test_sample_choice_draws_one_double(self):
        inst = generate_instance(InstanceConfig(n_items=10, k=4, dim=4, seed=24))
        for s in ((1,), (2, 5), (1, 3, 7, 9)):
            masses = choice_probabilities(inst.catalog, s, inst.theta_star).as_array()
            for seed in range(50):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                a = sample_choice(inst.catalog, s, inst.theta_star, ours)
                k = int(theirs.choice(len(s) + 1, p=masses))
                assert a == (0 if k == len(s) else s[k])
                assert ours.random() == theirs.random()

    def test_log_is_grouped_once(self, monkeypatch):
        """One grouping, by the dataset, and one cdf per distinct assortment."""
        assert not hasattr(datagen, "_distinct_assortments")
        inst = generate_instance(InstanceConfig(n_items=10, k=4, dim=4, seed=25))
        design = SamplingDesign(p=0.3, n_items=10, k=4)
        groupings, cdfs = [], []
        real_group, real_cdf = likelihood._distinct_assortments, datagen._choice_cdf
        monkeypatch.setattr(
            likelihood,
            "_distinct_assortments",
            lambda assortments: groupings.append(assortments) or real_group(assortments),
        )
        monkeypatch.setattr(
            datagen, "_choice_cdf", lambda u, s: cdfs.append(s) or real_cdf(u, s)
        )
        ds = generate_dataset(inst, design, 400, derive_rng(25, 0, "ds"))
        assert len(groupings) == 1
        assert sorted(cdfs) == sorted(set(ds.assortments))

    def test_no_cdf_is_alive_while_the_dataset_is_built(self, monkeypatch):
        inst = generate_instance(InstanceConfig(n_items=10, k=4, dim=4, seed=26))
        design = SamplingDesign(p=0.3, n_items=10, k=4)
        refs, alive = [], []
        real_cdf, real_dataset = datagen._choice_cdf, datagen.OfflineDataset

        def tracked_cdf(utilities, s):
            cdf = real_cdf(utilities, s)
            refs.append(weakref.ref(cdf))
            return cdf

        def checked_dataset(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return real_dataset(*args)

        monkeypatch.setattr(datagen, "_choice_cdf", tracked_cdf)
        monkeypatch.setattr(datagen, "OfflineDataset", checked_dataset)
        generate_dataset(inst, design, 200, derive_rng(26, 0, "ds"))
        assert len(refs) > 1 and alive == [0]

    def test_optimum_beyond_the_catalog_is_a_value_error(self):
        inst = generate_instance(InstanceConfig(n_items=6, k=2, dim=2, seed=27))
        broken = dataclasses.replace(inst, s_star=(2, 7))
        design = SamplingDesign(p=0.9, n_items=6, k=2)
        with pytest.raises(ValueError, match="beyond catalog size 6"):
            generate_dataset(broken, design, 20, derive_rng(27, 0, "ds"))

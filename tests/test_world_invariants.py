"""Population invariants, including the full-scale paper marginals."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import thirdparty
from repro.webgen import build_world
from repro.webgen.config import apportion


def blocked_by_annoyances(wall) -> bool:
    """Whether uBlock's Annoyances lists suppress *wall* (derived from
    how it is served; the measured equivalent is the §4.5 experiment)."""
    if wall.serving == "inline":
        return False
    if wall.serving == "smp":
        return True
    return wall.provider in thirdparty.annoyances_domains()


@pytest.fixture(scope="module")
def full_world():
    """The paper-scale world (built once; ~10s)."""
    return build_world(scale=1.0, seed=2023)


class TestFullScaleMarginals:
    """The calibrated population must match the paper's Table 1 / §3."""

    def test_reachable_union_is_45222(self, full_world):
        assert len(full_world.crawl_targets) == 45222

    def test_280_walls(self, full_world):
        assert len(full_world.wall_domains) == 280

    def test_per_vp_visibility_matches_table1(self, full_world):
        expected = {
            "USE": 197, "USW": 199, "BR": 196, "DE": 280,
            "SE": 276, "ZA": 199, "IN": 192, "AU": 190,
        }
        for vp, count in expected.items():
            visible = sum(
                1 for d in full_world.wall_domains
                if vp in full_world.sites[d].wall.regions
            )
            assert visible == count, vp

    def test_tld_marginals(self, full_world):
        tlds = Counter(
            full_world.sites[d].tld for d in full_world.wall_domains
        )
        assert tlds["de"] == 233
        assert tlds["com"] == 14
        assert tlds["net"] == 14
        assert tlds["it"] == 6
        assert tlds["at"] == 4
        assert tlds["org"] == 4
        assert tlds["fr"] == 2

    def test_placement_marginals(self, full_world):
        placements = Counter(
            full_world.sites[d].wall.placement for d in full_world.wall_domains
        )
        assert placements["main"] == 72
        assert placements["iframe"] == 132
        assert placements["shadow-open"] + placements["shadow-closed"] == 76

    def test_toplist_marginals(self, full_world):
        per_list = Counter()
        for d in full_world.wall_domains:
            for country in full_world.sites[d].listings:
                per_list[country] += 1
        assert per_list["DE"] == 259
        assert per_list["SE"] == 15
        assert per_list["AU"] == 5
        assert per_list["BR"] == 1

    def test_germany_top1k_wall_count(self, full_world):
        top1k = set(full_world.toplists["DE"].domains("top1k"))
        walls_in_top = sum(
            1 for d in full_world.wall_domains if d in top1k
        )
        assert walls_in_top == 85  # 8.5% of the German top 1k

    def test_smp_partner_counts(self, full_world):
        cp = full_world.platforms["contentpass"]
        fc = full_world.platforms["freechoice"]
        assert len(cp.partner_domains) == 219
        assert len(fc.partner_domains) == 167
        on_list_cp = sum(
            1 for d in cp.partner_domains if full_world.sites[d].listings
        )
        on_list_fc = sum(
            1 for d in fc.partner_domains if full_world.sites[d].listings
        )
        assert on_list_cp == 76
        assert on_list_fc == 62

    def test_five_bait_sites(self, full_world):
        assert len(full_world.bait_domains) == 5

    def test_blocked_serving_share(self, full_world):
        """196/280 walls (70%) must be Annoyances-blockable."""
        blocked = sum(
            1 for d in full_world.wall_domains
            if blocked_by_annoyances(full_world.sites[d].wall)
        )
        assert blocked == 196

    def test_price_mode_is_299(self, full_world):
        prices = Counter(
            full_world.sites[d].wall.monthly_price_cents
            for d in full_world.wall_domains
        )
        assert prices.most_common(1)[0][0] == 299

    def test_exactly_two_broken_ublock_sites(self, full_world):
        anti = [
            d for d in full_world.wall_domains
            if full_world.sites[d].wall.anti_adblock
        ]
        lock = [
            d for d in full_world.wall_domains
            if full_world.sites[d].wall.fp_scroll_lock
        ]
        assert len(anti) == 1 and len(lock) == 1
        assert anti != lock


class TestScaleFamily:
    """Worlds must stay consistent across scales."""

    @pytest.mark.parametrize("scale", [0.01, 0.03, 0.08])
    def test_structure_holds_at_any_scale(self, scale):
        world = build_world(scale=scale, seed=5)
        cfg = world.config
        for toplist in world.toplists.values():
            assert len(toplist) == cfg.n_list_size
        assert len(world.wall_domains) == cfg.n_walls
        assert len(world.bait_domains) == cfg.n_bait
        for domain in world.crawl_targets:
            assert world.sites[domain].reachable
        # Every wall shows for Germany and its price extracts.
        for domain in world.wall_domains:
            assert "DE" in world.sites[domain].wall.regions

    @pytest.mark.parametrize("scale", [0.01, 0.05])
    def test_union_count_proportional(self, scale):
        world = build_world(scale=scale, seed=5)
        expected = 45222 * scale
        assert abs(len(world.crawl_targets) - expected) / expected < 0.12


class TestApportionProperties:
    @given(
        weights=st.lists(
            st.integers(min_value=1, max_value=500), min_size=1, max_size=30
        ),
        total=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=80, deadline=None)
    def test_sums_and_bounds(self, weights, total):
        result = apportion(weights, total)
        assert sum(result) == total
        assert all(v >= 0 for v in result)
        # No share exceeds its proportional entitlement by more than 1.
        weight_sum = sum(weights)
        for weight, value in zip(weights, result):
            assert value <= weight / weight_sum * total + 1

    @given(
        n=st.integers(min_value=1, max_value=12),
        total=st.integers(min_value=0, max_value=240),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_weights_near_equal_shares(self, n, total):
        result = apportion([1] * n, total)
        assert max(result) - min(result) <= 1

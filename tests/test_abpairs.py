"""The verdict arithmetic of ``tools/abpairs.py`` on canned run lists.

No benchmark runs here: only the rule "the change wins >= 9 of 10
pairs and its median gap exceeds the parent's interquartile range".
"""

import pytest

from tools.abpairs import quartiles, render, verdict, worsening

#: A batch the change won 10/10 yet whose gap (1.69 s) stayed inside
#: the parent's IQR (2.55 s): a noisy host, verdict not met.
NOISY_PARENT = [8.39, 8.73, 9.07, 7.75, 9.19, 6.79, 6.10, 5.80, 6.32, 6.32]
NOISY_CHANGE = [7.45, 6.64, 6.19, 6.13, 5.29, 5.86, 5.03, 5.08, 4.99, 4.78]


class TestVerdict:
    def test_all_wins_but_gap_inside_parent_iqr_is_not_met(self):
        v = verdict(NOISY_PARENT, NOISY_CHANGE)
        assert (v.pairs, v.wins) == (10, 10)
        assert v.parent_median == pytest.approx(7.27)
        assert v.change_median == pytest.approx(5.575)
        assert v.gap == pytest.approx(1.695)
        assert v.parent_quartiles == pytest.approx((6.265, 8.815))
        assert v.parent_iqr == pytest.approx(2.55)
        assert v.enough_wins and not v.gap_exceeds_iqr and not v.met

    def test_clear_gain_is_met(self):
        parent = [6.0, 6.1, 6.2, 6.3, 6.4, 6.0, 6.1, 6.2, 6.3, 6.4]
        change = [5.0, 5.1, 5.2, 5.3, 5.4, 5.0, 5.1, 5.2, 5.3, 6.5]
        v = verdict(parent, change)
        assert v.wins == 9 and v.enough_wins
        assert v.gap == pytest.approx(1.0) and v.parent_iqr == pytest.approx(0.25)
        assert v.met

    def test_eight_of_ten_wins_is_not_met(self):
        parent = [6.0] * 10
        change = [5.0] * 8 + [7.0, 7.0]
        v = verdict(parent, change)
        assert v.wins == 8 and not v.enough_wins
        assert v.gap_exceeds_iqr and not v.met

    def test_ties_are_not_wins(self):
        v = verdict([5.0, 5.0], [5.0, 4.0])
        assert v.wins == 1

    def test_higher_is_better_flips_the_signs(self):
        parent = [100.0, 101.0, 102.0, 103.0]
        change = [120.0, 121.0, 122.0, 123.0]
        v = verdict(parent, change, better="higher")
        assert v.wins == 4 and v.gap == pytest.approx(20.0) and v.met
        assert not verdict(parent, change, better="lower").met
        assert str(verdict([17], [17], better="higher").gap) == "0.0"

    def test_single_pair(self):
        v = verdict([6.0], [5.0])
        assert v.parent_iqr == 0.0 and v.met
        assert quartiles([3.0]) == (3.0, 3.0)

    @pytest.mark.parametrize(
        "parent, change, better",
        [([1.0], [1.0, 2.0], "lower"), ([], [], "lower"), ([1.0], [1.0], "up")],
    )
    def test_rejects_bad_input(self, parent, change, better):
        with pytest.raises(ValueError):
            verdict(parent, change, better)

    def test_render_states_the_verdict(self):
        lines = render(verdict(NOISY_PARENT, NOISY_CHANGE), "wall_s")
        assert "won 10/10 pairs" in lines[1]
        assert lines[2].startswith("wall_s: verdict NOT MET")
        assert "gap > IQR: no" in lines[2]


class TestWorsening:
    def test_lower_is_better(self):
        assert worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
        assert worsening(10.0, 8.0, "lower") == pytest.approx(-0.2)

    def test_higher_is_better(self):
        assert worsening(1.0, 0.99, "higher") == pytest.approx(0.01)
        assert worsening(17, 17, "higher") == 0.0

    def test_zero_parent(self):
        assert worsening(0.0, 0.0, "lower") == 0.0
        assert worsening(0.0, 1.0, "lower") == float("inf")
        assert worsening(0.0, 1.0, "higher") == float("-inf")

"""Tests for the Shtrichman time-frame ordering baseline."""

from repro.bmc import BmcEngine, BmcStatus, ShtrichmanBmc
from repro.bmc.shtrichman import shtrichman_rank
from repro.encode import Unroller
from repro.workloads import counter_tripwire


class TestRank:
    def test_earlier_frames_rank_higher(self):
        circuit, prop = counter_tripwire(
            counter_width=3, target=7, distractor_words=1, distractor_width=3
        )
        unroller = Unroller(circuit, prop)
        instance = unroller.instance(4)
        rank = shtrichman_rank(instance)
        frame_of = unroller.var_frame
        by_frame = {}
        for var, score in rank.items():
            by_frame.setdefault(frame_of(var), set()).add(score)
        frames = sorted(by_frame)
        # Each frame has exactly one score, strictly decreasing with frame.
        scores = [by_frame[f].pop() for f in frames]
        assert all(len(by_frame[f]) == 0 for f in frames)
        assert scores == sorted(scores, reverse=True)

    def test_constant_var_not_ranked(self):
        circuit, prop = counter_tripwire(distractor_words=1, distractor_width=3)
        instance = Unroller(circuit, prop).instance(1)
        rank = shtrichman_rank(instance)
        assert 0 not in rank  # variable 0 is the frame-less constant


class TestEngine:
    def test_same_answers_as_baseline(self):
        kwargs = dict(counter_width=3, target=6, distractor_words=2, distractor_width=4)
        circuit, prop = counter_tripwire(**kwargs)
        baseline = BmcEngine(circuit, prop, max_depth=8).run()
        circuit2, prop2 = counter_tripwire(**kwargs)
        shtrichman = ShtrichmanBmc(circuit2, prop2, max_depth=8).run()
        assert shtrichman.status == baseline.status is BmcStatus.FAILED
        assert shtrichman.depth_reached == baseline.depth_reached == 6

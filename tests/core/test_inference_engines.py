"""Engine selection on the inference path (tape / compiled).

The compiled engine must be drop-in: ``expert_forward(engine=
"compiled")`` returns a byte-identical :class:`ExpertOutput` for the MLP
expert zoo (the executor replays linear/relu nets exactly and the probs/
entropy are computed with the same numpy expressions the tape ops use).
"""

import numpy as np
import pytest

from repro.core.inference import (ENGINES, TeamInference, compiled_expert_for,
                                  expert_forward, expert_forward_segments,
                                  validate_engine)
from repro.testkit import strategies


def team(seed, **kwargs):
    return strategies.expert_team(strategies.rng_from(seed, 41), **kwargs)


class TestValidateEngine:
    def test_known_engines_pass_through(self):
        for engine in ENGINES:
            assert validate_engine(engine) == engine

    def test_unknown_engine_rejected_everywhere(self):
        experts, x = team(0)
        # The retired int8 compute engine is rejected like any other name.
        for engine in ("jit", "compiled-int8"):
            with pytest.raises(ValueError, match="unknown engine"):
                expert_forward(experts[0], x, engine=engine)
            with pytest.raises(ValueError, match="unknown engine"):
                TeamInference(experts, engine=engine)


class TestCompiledEngine:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_expert_forward_byte_identical(self, seed):
        experts, x = team(seed)
        for expert in experts:
            want = expert_forward(expert, x, engine="tape")
            got = expert_forward(expert, x, engine="compiled")
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.entropy.tobytes() == want.entropy.tobytes()
            assert got.probs.dtype == want.probs.dtype

    def test_segments_passthrough_byte_identical(self):
        experts, x = team(3)
        coalesced = np.concatenate([x, x[:1]], axis=0)
        segments = [len(x), 1]
        want = expert_forward_segments(experts[0], coalesced, segments)
        got = expert_forward_segments(experts[0], coalesced, segments,
                                      engine="compiled")
        assert got.probs.tobytes() == want.probs.tobytes()
        assert got.entropy.tobytes() == want.entropy.tobytes()

    def test_team_inference_engine(self):
        experts, x = team(4)
        want = TeamInference(experts).predict_with_winner(x)
        got = TeamInference(experts, engine="compiled").predict_with_winner(x)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestCompiledCache:
    def test_program_reused_per_signature(self):
        experts, x = team(6)
        expert = experts[0]
        first = compiled_expert_for(expert, x)
        assert compiled_expert_for(expert, x) is first
        assert not hasattr(first, "quantized")  # float weights only
        # A different dtype is a different signature, not a cache hit.
        other = compiled_expert_for(
            expert, x.astype(np.float32 if x.dtype == np.float64
                             else np.float64))
        assert other is not first

    def test_batch_size_is_not_part_of_the_key(self):
        experts, x = team(7)
        expert = experts[0]
        first = compiled_expert_for(expert, x)
        doubled = np.concatenate([x, x], axis=0)
        assert compiled_expert_for(expert, doubled) is first

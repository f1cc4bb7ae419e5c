"""Speculative decoding: greedy SD equals AR, the ratio rule is lossless,
caches roll back, a block costs one draft forward per proposed token, and
AR/tau follow the paper's definitions."""

import copy
import json

import numpy as np
import pytest

from conftest import make_pair
from speclab import specdec
from speclab.cli import main
from speclab.errors import ContractError
from speclab.metrics import DecodeStats, acceptance_rate, block_efficiency
from speclab.model import forward
from speclab.sampling import SamplingPolicy, autoregressive_decode, distribution
from speclab.specdec import (SpecConfig, accept_step, generate, start_session,
                             write_audit_log)

GREEDY = SamplingPolicy("greedy")
SAMPLED = SamplingPolicy("multinomial", temperature=2.0)
PROMPT = [1, 2, 3]


@pytest.fixture(scope="module")
def pair():
    return make_pair()


def _sd(draft, target, prompt, policy, gamma, max_new, eos_id=None, seed=0):
    session = start_session(draft, target, prompt, policy=policy,
                            rng=np.random.default_rng(seed))
    return generate(session, SpecConfig(gamma=gamma, policy=policy,
                                        max_new_tokens=max_new, eos_id=eos_id))


@pytest.mark.parametrize("gamma", [1, 3, 5])
def test_greedy_sd_equals_ar(pair, gamma):
    draft, target = pair
    ar = autoregressive_decode(target, PROMPT, GREEDY, 20)
    assert _sd(draft, target, PROMPT, GREEDY, gamma, 20).tokens == ar
    eos = ar[7]
    ar_eos = autoregressive_decode(target, PROMPT, GREEDY, 20, eos_id=eos)
    assert ar_eos[-1] == eos and len(ar_eos) < 20
    assert _sd(draft, target, PROMPT, GREEDY, gamma, 20, eos_id=eos).tokens == ar_eos
    # up to the context limit: the last committed token fills the last position
    prompt = list(range(5, 45))
    room = target.config.max_seq_len - len(prompt)
    assert (_sd(draft, target, prompt, GREEDY, gamma, room).tokens
            == autoregressive_decode(target, prompt, GREEDY, room))


def test_accept_step_is_lossless():
    """Acceptance mass q(x) min(1, p(x)/q(x)) plus the total rejection mass
    times the residual gives back p(x) for every x."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(20):
        p, q = rng.dirichlet(np.full(8, 0.5)), rng.dirichlet(np.full(8, 0.5))
        p[rng.integers(8)] = 0.0
        cases.append((p / p.sum(), q))
    cases.append((cases[0][1], cases[0][1]))  # p == q
    for p, q in cases:
        ratios = np.minimum(1.0, p / q)
        for x, r in enumerate(ratios):
            assert accept_step(p, q, x, r) is None
            if r < 1.0:
                assert accept_step(p, q, x, np.nextafter(r, 2.0)) is not None
        residual = accept_step(p, q, 0, 2.0)
        assert residual.sum() == pytest.approx(1.0)
        reject = float(np.sum(q * (1.0 - ratios)))
        np.testing.assert_allclose(q * ratios + reject * residual, p, rtol=0, atol=1e-12)


def test_sampled_generate_draws_from_the_target_joint():
    """2,000 seeded two-token generations (gamma 2, so both the accept/reject
    path and the bonus token run) against the target's exact joint over the
    36 two-token outcomes: chi-square below its 0.999 quantile on 35 df."""
    draft, target = make_pair(vocab=6, max_seq=16, sharpen=1.0)
    policy = SamplingPolicy("multinomial", temperature=1.0)
    first = distribution(forward(target, PROMPT)[0][-1], policy)
    joint = np.stack([first[t] * distribution(forward(target, PROMPT + [t])[0][-1], policy)
                      for t in range(6)])
    counts = np.zeros((6, 6))
    for seed in range(2000):
        counts[tuple(_sd(draft, target, PROMPT, policy, 2, 2, seed=seed).tokens)] += 1
    expected = 2000 * joint
    assert ((counts - expected) ** 2 / expected).sum() < 66.6


def test_accept_step_rejects_unnormalized_or_impossible_proposals():
    p = np.array([0.5, 0.5, 0.0])
    with pytest.raises(ContractError):
        accept_step(p, np.array([0.5, 0.6, 0.0]), 0, 0.1)
    with pytest.raises(ContractError):
        accept_step(p, np.array([0.5, 0.5, 0.0]), 2, 0.1)


def _traced_blocks(monkeypatch, draft, target, policy, gamma, max_new):
    """Run `generate` and return, per block, the block, its draft and target
    forward counts, and the cache fill and committed length after it."""
    counts = {"draft": 0, "target": 0}
    forward, block = specdec.forward, specdec.speculate_block
    trace = []

    def counted_forward(state, *args, **kwargs):
        counts["draft" if state is draft else "target"] += 1
        return forward(state, *args, **kwargs)

    def traced_block(session, *args, **kwargs):
        before = dict(counts)
        result = block(session, *args, **kwargs)
        trace.append((result, counts["draft"] - before["draft"],
                      counts["target"] - before["target"], session.draft_cache.filled_len,
                      session.target_cache.filled_len, len(session.committed)))
        return result

    monkeypatch.setattr(specdec, "forward", counted_forward)
    monkeypatch.setattr(specdec, "speculate_block", traced_block)
    _sd(draft, target, PROMPT, policy, gamma, max_new)
    return trace


@pytest.mark.parametrize("policy,self_draft",
                         [(GREEDY, False), (SAMPLED, False), (GREEDY, True)],
                         ids=["greedy", "sampled", "self-draft"])
def test_block_runs_one_draft_forward_per_proposal(monkeypatch, pair, policy, self_draft):
    """Short final blocks and, with a copy of the target as draft, fully
    accepted blocks whose bonus token the next block feeds to the draft."""
    draft, target = pair
    if self_draft:
        draft = copy.copy(target)
    trace = _traced_blocks(monkeypatch, draft, target, policy, 3, 20)
    if self_draft:
        assert all(t[0].accepted_count == len(t[0].proposed) for t in trace)
    else:
        assert {len(t[0].proposed) for t in trace} == {0, 1, 2, 3}
    for result, n_draft, n_target, *_ in trace:
        assert n_draft == len(result.proposed) and n_target == 1


@pytest.mark.parametrize("policy", [GREEDY, SAMPLED], ids=["greedy", "sampled"])
def test_caches_end_each_block_behind_the_last_committed_token(monkeypatch, pair, policy):
    for *_, draft_fill, target_fill, committed in _traced_blocks(monkeypatch, *pair,
                                                                  policy, 4, 30):
        assert draft_fill <= committed - 1 and target_fill <= committed - 1


def test_seeded_multinomial_generate_is_unchanged(pair):
    result = _sd(*pair, PROMPT, SAMPLED, 3, 24)
    assert result.tokens == [60, 55, 55, 0, 55, 9, 63, 30, 35, 21, 29, 16, 54, 29, 25, 11,
                             16, 5, 47, 56, 29, 36, 60, 36]
    assert [(b.accepted_count, len(b.proposed)) for b in result.blocks][-3:] == [
        (0, 3), (3, 3), (1, 1)]


@pytest.mark.parametrize("max_new", [8, 10, 12])
def test_self_draft_gives_full_acceptance(tmp_path, capsys, pair, max_new):
    """A draft equal to the target accepts every proposal, including the
    shortened final block, and `speclab report` replays the same AR."""
    _, target = pair
    result = _sd(target, target, PROMPT, GREEDY, 4, max_new)
    alpha = acceptance_rate(result.stats)
    assert alpha == 1.0 and block_efficiency(alpha, 4) == 5.0
    write_audit_log(tmp_path / "audit.jsonl", result.blocks)
    config = tmp_path / "report.json"
    config.write_text(json.dumps({"runs": [{"audit": "audit.jsonl", "gamma": 4,
                                            "c_hat": 0.5}]}))
    assert main(["report", str(config), "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    row, = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert row["alpha"] == 1.0 and row["tau"] == 5.0


def test_decode_stats_validates_and_merges_proposal_lengths():
    with pytest.raises(ContractError):
        DecodeStats(gamma=3, blocks=[2], proposal_lens=[1])
    with pytest.raises(ContractError):
        DecodeStats(gamma=3, blocks=[2], proposal_lens=[4])
    with pytest.raises(ContractError):
        DecodeStats(gamma=3, blocks=[2, 1], proposal_lens=[3])
    # a shortened block counts against its own proposal length, an empty one not at all
    stats = DecodeStats(gamma=3, blocks=[3, 1, 0], proposal_lens=[3, 2, 0])
    assert acceptance_rate(stats) == pytest.approx(0.75)
    assert acceptance_rate(DecodeStats(gamma=4, blocks=[1, 3])) == 0.5
    with pytest.raises(ContractError):
        acceptance_rate(DecodeStats(gamma=3, blocks=[0], proposal_lens=[0]))

"""Acceptance-rate, block-efficiency, MBSU, TPOT and speedup metrics.

All functions are pure: reports can be replayed from recorded stats and
audit logs. Speedup is computed as the exact ratio of the per-token
latencies, which keeps the closed-form identity with the TPOT expressions
exact in floating point.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .checkpoint import atomic_write, canonical_json, write_json
from .errors import ConfigError, ContractError


@dataclass
class DecodeStats:
    """Per-block accepted counts and proposal lengths at a nominal block
    size gamma; without `proposal_lens` every block proposed gamma tokens."""
    gamma: int
    blocks: list[int] = field(default_factory=list)
    proposal_lens: list[int] | None = None

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ConfigError("gamma must be >= 1")
        if self.proposal_lens is None:
            self.proposal_lens = [self.gamma] * len(self.blocks)
        if len(self.proposal_lens) != len(self.blocks):
            raise ContractError("one proposal length per block is required")
        for a, n in zip(self.blocks, self.proposal_lens):
            if not 0 <= a <= n <= self.gamma:
                raise ContractError(f"accepted {a} of {n} proposed outside [0, {self.gamma}]")


@dataclass(frozen=True)
class LatencyProfile:
    """Measured seconds per forward: draft single step, target at block 1
    and at block gamma."""
    l_draft: float
    l_target_1: float
    l_target_gamma: float

    def __post_init__(self) -> None:
        if min(self.l_draft, self.l_target_1, self.l_target_gamma) <= 0:
            raise ConfigError("latencies must be positive")


def acceptance_rate(stats: DecodeStats) -> float:
    """Mean accepted fraction over the blocks that proposed anything:
    (1/N) sum(accepted_n / proposed_n)."""
    ratios = [a / n for a, n in zip(stats.blocks, stats.proposal_lens) if n]
    if not ratios:
        raise ContractError("acceptance rate needs at least one block that proposed a token")
    return sum(ratios) / len(ratios)


def block_efficiency(alpha: float, gamma: int) -> float:
    """Expected tokens emitted per block: tau = 1 + alpha * gamma."""
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha {alpha} outside [0, 1]")
    return 1.0 + alpha * gamma

def mbsu(tau: float, c_hat: float, gamma: int) -> float:
    """Memory-bound speedup: tau / (c_hat * gamma + 1)."""
    if c_hat <= 0:
        raise ConfigError("c_hat must be positive")
    return tau / (c_hat * gamma + 1.0)


def tpot_ar(profile: LatencyProfile) -> float:
    """Autoregressive time per output token (one target forward per token)."""
    return profile.l_target_1


def tpot_sd(profile: LatencyProfile, gamma: int, tau: float) -> float:
    """Speculative time per output token: (l_draft*gamma + l_target_gamma)/tau."""
    if tau < 1.0:
        raise ContractError("tau must be >= 1")
    return (profile.l_draft * gamma + profile.l_target_gamma) / tau


def expected_speedup(profile: LatencyProfile, gamma: int, tau: float) -> float:
    """Expected speedup of speculative over autoregressive decoding:
    tpot_ar / tpot_sd, algebraically equal to
    tau / ((l_draft/l_target_1)*gamma + l_target_gamma/l_target_1). A profile
    whose l_target_gamma equals its l_target_1 gives the simplified
    estimator tau / (c*gamma + 1) of Leviathan et al. (arXiv 2211.17192).
    """
    if tau < 1.0:
        raise ContractError("tau must be >= 1")
    return tpot_ar(profile) / tpot_sd(profile, gamma, tau)


@dataclass
class MetricsRow:
    benchmark: str
    sampling_mode: str
    temperature: float
    gamma: int
    N_blocks: int
    alpha: float
    tau: float
    c: float | None  # None: no latency profile was measured
    c_hat: float
    mbsu: float
    tpot_ar: float | None
    tpot_sd: float | None
    speedup_est: float | None


def metrics_row(
    benchmark: str,
    policy_mode: str,
    temperature: float,
    stats: DecodeStats,
    c_hat: float,
    profile: LatencyProfile | None = None,
) -> MetricsRow:
    """One report row from decode stats and measured latencies (None without a profile)."""
    alpha = acceptance_rate(stats)
    tau = block_efficiency(alpha, stats.gamma)
    return MetricsRow(
        benchmark=benchmark,
        sampling_mode=policy_mode,
        temperature=temperature,
        gamma=stats.gamma,
        N_blocks=len(stats.blocks),
        alpha=alpha,
        tau=tau,
        c=profile.l_draft / profile.l_target_1 if profile else None,
        c_hat=c_hat,
        mbsu=mbsu(tau, c_hat, stats.gamma),
        tpot_ar=tpot_ar(profile) if profile else None,
        tpot_sd=tpot_sd(profile, stats.gamma, tau) if profile else None,
        speedup_est=expected_speedup(profile, stats.gamma, tau) if profile else None,
    )


def write_table(rows: list[dict], csv_path: str | Path, json_path: str | Path,
                columns: list[str] | None = None) -> None:
    """Emit rows as CSV plus a JSON twin with the same fields; the CSV
    columns default to the sorted union of the rows' keys, and dict and list
    cells are written as `canonical_json`. Both files are written through
    `atomic_write`, so a row that does not fit the columns (ValueError)
    leaves the previous files as they were."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=columns or sorted({k for r in rows for k in r}))
    writer.writeheader()
    writer.writerows({k: canonical_json(v) if isinstance(v, (dict, list)) else v
                      for k, v in r.items()} for r in rows)
    with atomic_write(csv_path) as f:
        f.write(text.getvalue().encode("utf-8"))
    write_json(json_path, rows)


def write_report(rows: list[MetricsRow], csv_path: str | Path, json_path: str | Path) -> None:
    """Emit the metrics table in `MetricsRow` field order."""
    write_table([asdict(r) for r in rows], csv_path, json_path,
                [f.name for f in fields(MetricsRow)])

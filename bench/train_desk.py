"""Train the desk draft/target pair that the benchmark decodes with.

Reproduces the recipe of `experiment.alignment_direction_study` for seed 0:
a 64x2 target trained to memorise a 32-topic `TopicWorld`, a 32x2 draft
pre-trained on the unstructured topic corpus and then fine-tuned on
target-generated responses for 24 topics. The two checkpoints and their
sha256 digests are written next to this file under `fixtures/`; the
benchmark refuses fixtures whose digest does not match.

Run from the repository root (about a minute on two cores):

    python3 bench/train_desk.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
sys.path.insert(0, str(HERE.parent / "src"))

from speclab import (LossSpec, ModelConfig, TrainSchedule, init_model,  # noqa: E402
                     save_checkpoint, train_stage)
from speclab.data import (alignment_batches, chat_prompt,  # noqa: E402
                          generate_alignment_set, lm_batches)
from speclab.experiment import _policy, evaluate_acceptance  # noqa: E402
from speclab.metrics import acceptance_rate  # noqa: E402
from speclab.synthetic import TopicWorld  # noqa: E402
from speclab.tokenizer import ByteTokenizer  # noqa: E402

SEED = 0
N_TOPICS = 32
N_FT_TOPICS = 24
TEMPERATURE = 0.6


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    tok = ByteTokenizer()
    world = TopicWorld(n_topics=N_TOPICS, seed=0)
    target_cfg = ModelConfig(hidden_size=64, intermediate_size=128, n_layers=2,
                             n_heads=4, n_kv_heads=4, vocab_size=264, max_seq_len=96)
    draft_cfg = ModelConfig(hidden_size=32, intermediate_size=64, n_layers=2,
                            n_heads=4, n_kv_heads=4, vocab_size=264, max_seq_len=96)

    sched = TrainSchedule(peak_lr=3e-3, total_steps=600, batch_size=16, seq_len=64)
    target = train_stage(
        init_model(target_cfg, seed=1),
        alignment_batches(world.target_training_samples(), tok, 16, 64,
                          seed=11, epochs=None, mask_mode="full"),
        sched, LossSpec(ce=1.0)).state

    pt_sched = TrainSchedule(peak_lr=3e-3, total_steps=120, batch_size=16, seq_len=64)
    corpus = world.pretrain_corpus(repeats=30, seed=3)
    pt_batches = itertools.chain(*[lm_batches(corpus, tok, 16, 64, seed=4 + e)
                                   for e in range(3)])
    draft_pt = train_stage(init_model(draft_cfg, seed=2), pt_batches, pt_sched,
                           LossSpec(ce=1.0)).state

    ft_topics = list(range(N_FT_TOPICS))
    generated = generate_alignment_set(
        target, tok, world.seed_instructions(ft_topics), temperatures=[TEMPERATURE],
        include_greedy=False, seed=100 + SEED, max_new_tokens=48)
    ft_sched = TrainSchedule(peak_lr=2e-3, total_steps=250, batch_size=16, seq_len=64)
    draft = train_stage(draft_pt, alignment_batches(generated, tok, 16, 64, seed=200 + SEED),
                        ft_sched, LossSpec(ce=1.0)).state

    held_out = [chat_prompt(tok, list(world.instruction(k)))
                for k in range(N_FT_TOPICS, N_TOPICS)]
    stats = evaluate_acceptance(draft, target, held_out, _policy("greedy", TEMPERATURE),
                                gamma=3, max_new_tokens=32, seed=300 + SEED,
                                eos_id=tok.eos_id)

    FIXTURES.mkdir(parents=True, exist_ok=True)
    manifest = {"recipe": "alignment_direction_study, seed 0, FT on target-generated data",
                "held_out_alpha_greedy": acceptance_rate(stats), "files": {}}
    for name, state in (("desk_target.sfmd", target), ("desk_draft.sfmd", draft)):
        path = FIXTURES / name
        save_checkpoint(state, path)
        manifest["files"][name] = {"sha256": sha256(path), "bytes": path.stat().st_size}
    with open(FIXTURES / "desk.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(json.dumps(manifest))


if __name__ == "__main__":
    main()

"""speclab: a desk-scale speculative decoding laboratory.

Train tiny draft and target language models, align drafts with sequence-
and token-level distillation, decode losslessly with draft/target
speculation, and measure acceptance rate, block efficiency, memory-bound
speedup and expected wall-clock speedup.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ContractError, DataError, LengthError,
                     NumericError, SpecLabError, StageError, VocabMismatchError)
from .model import (KVCache, ModelConfig, ModelState, forward, forward_train,
                    backward, init_model, param_count)
from .sampling import SamplingPolicy, autoregressive_decode, sample, softmax
from .tokenizer import ByteTokenizer
from .checkpoint import load_checkpoint, save_checkpoint
from .losses import LossSpec, ce_loss
from .training import AdamW, Batch, TrainSchedule, lr_at, train_stage
from .distill import SPARSE_DTYPE, extract_sparse_logits
from .specdec import (BlockResult, SpecConfig, SpecSession, accept_step,
                      generate, speculate_block, start_session)
from .metrics import (DecodeStats, LatencyProfile, acceptance_rate,
                      block_efficiency, expected_speedup, mbsu, tpot_ar, tpot_sd)
from .data import (AlignmentSample, Corpus, generate_alignment_set,
                   make_completion_tasks, mix, subsample)
from .latency import measure_latency
from .archsearch import budget_search
from .experiment import run_training

"""Typed plan synthesis and execution engine.

Generates corruption-based benchmark tasks, decodes tool plans under
registry constraints, executes them on a symbolic simulator, scores
them against references, and trains a tabular policy from rewards.
"""

__version__ = "0.1.0"

from .benchgen import (
    CatalogConfig,
    OracleResult,
    build_task,
    generate_catalog,
    oracle_best_plan,
    required_oracle_depth,
    split_train_test,
)
from .context import BOS, END_TOKEN, Context
from .decoder import (
    DecodedPlan,
    DecoderConfig,
    SamplerConfig,
    beam_search,
    replay_steps,
    sample_plan,
)
from .errors import EngineError
from .evalkit import ReportTable, assign_slot, evaluate, task_reward
from .executor import ExecutionTrace, execute, execute_task
from .parser import ExtractionResult, extract_sequence, extractor_prompt, format_canonical
from .plan_ir import (
    MetricSlot,
    PlanGraph,
    PlanNode,
    Sample,
    TaskCategory,
    TaskSpec,
    from_linear_sequence,
    plan_from_json,
    plan_hash,
    plan_to_json,
    validate_plan,
)
from .policy import (
    GuidedPlanPolicy,
    PolicyParams,
    RemotePolicy,
    TabularPolicy,
    UniformPolicy,
    grad_log_prob,
    log_prob,
    pretrain_supervised,
    score_tokens,
)
from .registry import ToolRegistry, ToolSpec, compatible_successors, default_registry
from .rltf import TrainConfig, reinforce_step, run_schema_comparison, train
from .simkit import (
    Corruption,
    Language,
    Modality,
    Payload,
    SemanticId,
    SimConstants,
    apply_corruption,
    apply_tool,
    similarity,
)

__all__ = [name for name in dir() if not name.startswith("_")]

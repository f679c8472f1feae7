"""Typed plan synthesis and execution engine.

Generates corruption-based benchmark tasks, decodes tool plans under
registry constraints, executes them on a symbolic simulator, scores
them against references, and trains a tabular policy from rewards.
"""

__version__ = "0.1.0"

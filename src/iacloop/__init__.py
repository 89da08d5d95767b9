"""Lint-driven repair loop for LLM-generated CloudFormation templates.

Modules: JSON decoding with on-demand spans (located_json), resource
schemas (schema_store), the rule-registry linter (linter), run settings
(settings), generation backends (gateway), the feedback loop (loop), the
benchmark harness (bench), and the command line (cli).  ``import iacloop``
imports none of them; import the module whose names you need.
"""

__version__ = "0.1.0"

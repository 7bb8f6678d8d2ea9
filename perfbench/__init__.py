"""SLIME4Rec benchmark: workloads, open-loop load generator, span tracing."""

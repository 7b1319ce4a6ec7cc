"""Deterministic workload generation and service: traffic on the stack.

The layers below (:mod:`repro.core`, :mod:`repro.upper`) answer "how fast
is one message?"; this package answers the paper's implicit follow-up —
*what happens under sustained load?* — with seedable arrival processes
(:mod:`~repro.workloads.arrivals`), an RPC service layer with explicit
overload policy (:mod:`~repro.workloads.rpc`), miniature MPI applications
(:mod:`~repro.workloads.apps`), streaming statistics
(:mod:`~repro.workloads.stats`), and a scenario runner + CLI
(:mod:`~repro.workloads.runner`, ``python -m repro.workloads.run``).

Determinism contract: a report is a pure function of its scenario spec
(and optional fault plan); observation and fault hooks compose through
the standard ``Cluster.observe()`` / ``Cluster.inject_faults()`` pattern.

The package re-exports nothing: import the submodule you use, so that a
process running one kind (or only raw FM, through the runner) compiles no
other.
"""

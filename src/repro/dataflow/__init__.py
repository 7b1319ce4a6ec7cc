"""Streaming dataflow over FM 2.x streams with credit-native backpressure.

A pipeline is a DAG of *stages* (sources, operators, sinks) built with the
:class:`~repro.dataflow.graph.Stream` API and placed on cluster nodes.
Every cross-node edge rides FM2 messages; every stage owns a bounded input
queue.  When a queue fills, the node's pump stops extracting, the FM
receive region fills, credit returns stop, and upstream senders stall in
``acquire_credit`` — FM's own flow control *is* the backpressure, hop by
hop, with no new protocol machinery (the paper's layering argument applied
to a continuous-processing workload).

Entry points (the package re-exports nothing; import the submodule):

* :class:`~repro.dataflow.graph.StreamGraph` / ``Stream`` — build the DAG.
* :func:`~repro.dataflow.engine.run_pipeline` — place, wire, run, report.
* :class:`~repro.dataflow.engine.PipelineScenario` (``kind="pipeline"``)
  — the workload-layer integration, run by
  :mod:`repro.workloads.runner` (presets ``dataflow-rollup``,
  ``dataflow-scatter-gather``).
"""

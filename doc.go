// Package repro is a from-scratch Go reproduction of "Joint Optimization of
// MapReduce Scheduling and Network Policy in Hierarchical Clouds" (Yang,
// Rang, Cheng — ICPP 2018): the Hit-Scheduler, a hierarchical-topology-aware
// MapReduce scheduler that jointly optimizes task placement and per-flow
// network policies via stable matching, together with every substrate the
// paper's evaluation depends on — multi-tier data-center topologies (Tree,
// Fat-Tree, VL2, BCube), a YARN-like cluster/container model, a PUMA-style
// workload generator, a centralized network-policy controller, a flow-level
// max-min-fair network simulator, a discrete-event cluster simulator, and
// the Capacity / Probabilistic Network-Aware baselines.
//
// Every placement layer (controller, Hit-Scheduler core, the baselines and
// the network simulator) queries one shared path/cost
// oracle, internal/netstate, instead of re-running BFS per decision. The
// oracle memoizes only structure-derived answers (distances, paths, type
// templates, candidate stages): the graph is immutable after Build, so they
// expire only when a node crashes or recovers, and nothing it keeps depends
// on switch load, capacity or link bandwidth. See internal/netstate's
// package documentation for the full contract.
//
// The library lives under internal/; executables under cmd/ (hitsim,
// hitbench, topoviz) and runnable examples under examples/ exercise it. The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; see DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package repro

#!/bin/sh
# CI entry point: formatting gate (dune files; ocamlformat is not required
# in the image), full build, the complete test suite, then every further
# pass from the table below.
set -eux

cd "$(dirname "$0")/.."

dune build @fmt
dune build
dune runtest

# Each pass is one line: an environment (comma-separated VAR=value
# assignments, or "-" for none) and a suite:
#   runtest              every test suite, rerun with --force
#   test:NAME            one alcotest suite of test/test_main.exe
#   example:NAME         dune exec examples/NAME.exe
#   bench:NAME           dune exec bench/main.exe -- NAME; its BENCH_*.json
#                        must be non-empty.  Every BENCH experiment writes
#                        through Experiments.Bench_report, which re-reads
#                        the file through Serde.Json and exits non-zero
#                        naming every false entry of its "checks" object.
#   perf:WORKLOAD:TRACE  python3 perfbench/run.py for one workload
#   lint:observe         the mpisim call layers reach Checker, Trace and
#                        Profiling only through Observe
#   lint:coll            lib/mpisim/collectives.ml sends no message itself
#   lint:wire            no Bytes/char-array conversion and no '\000'-filled
#                        char-array window in lib/kamping, lib/ckpt,
#                        lib/mpisim, lib/bindings or lib/apps
#   lint:exports         every value a lib/**/*.mli exports is called from
#                        another compilation unit, and every optional
#                        parameter it declares is passed by some call
#                        (bin/lint_exports.ml)
#
# What the passes cover, in order:
# - lint:observe: one observation point per MPI operation; a call layer
#   that records a count, a checker entry or a span itself fails here.
# - lint:coll: every collective schedule has one home, Coll_impl;
#   Collectives only validates, selects, observes and dispatches.
# - lint:wire: a serialized payload is one Bytes archive from encode to
#   in-place decode; a Bytes/char-array conversion or a char-array wire
#   window put back anywhere on the path fails here.
# - lint:exports: the interface has no dead surface.  `dune build @check`
#   leaves a typed tree (.cmt/.cmti) for every unit, executables included
#   (a plain `dune build` gives them only .cmti files); the lint matches
#   each identifier use of lib, bin, bench, perfbench, examples and test
#   against the values the library interfaces declare, and fails naming
#   every exported value no other unit calls.  Tests count as callers.
#   The same pass fails naming every exported optional parameter that no
#   application passes (~x: or ?x:, from any unit, the defining one and
#   tests included).  A forward (?x:y of the caller's own ?y, or ~x:y of
#   its ?(y = d)) counts only if some application sets ?y.  A knob every
#   call leaves at its default is deleted
#   with its default inlined, and call surface (offsets, roots, tags,
#   buffers, resize policies, *_out flags) is set by a knob row of
#   test/test_wrappers.ml.  Mutation-checked: an unset ?probe:int on
#   Ds.Bitset.create fails it naming the parameter, and so does deleting
#   the only test row that sets Kamping.Comm.is_root ?root, and so does
#   a ?deadline that Explore.explore only receives from a test wrapper's
#   unset ?deadline.
#   There is no allowlist: delete the value, drop it from its .mli, or
#   call it from a test.
# - runtest under the strictest MUST-style checker, under event tracing
#   (the recorder must be a pure observer: determinism and profiling
#   equality stay green), and under seeded random schedule exploration
#   with the checker raised (a fixed seed keeps it reproducible; bump it
#   deliberately, not per run).
# - trace: traces fig8 + fig10; the critical path covers the whole run,
#   and every rank track and flow pair is present in BENCH_trace.json.
# - ckpt: recovered-vs-reference bit-identity, Daly-interval minimality
#   and the <10% checkpoint overhead bound.
# - test:explore: the mutation smoke.  A Ckpt.run_sharded round loop
#   re-introduces the Daly-divergence bug behind a test-only flag, and
#   the suite fails unless random exploration finds and shrinks it (see
#   test/test_explore.ml).
# - explore: Default-strategy hooks are a pure observer and random
#   schedules agree on the workload's result.
# - serving: batching sweep, caching and rebalancing comparisons, and a
#   chaos run (jitter + a mid-run kill recovered through lib/ckpt), all
#   checked against the host-side workload oracle.
# - engine: the events/sec floor at p=4096, flat ranks-scaling through
#   p=16384 inside the time budget, the zero-alloc steady state, and the
#   profiler-off-vs-fine pure-observer equality.
# - MPI-4: the persistent/partitioned gallery example under the strict
#   checker, then mpi4 (>=1.15x serving throughput on persistent
#   channels, idle handles invisible in the profile, transports
#   bit-identical across 20 random schedules).
# - topology: the exploration suite (gallery digests over >=20 random
#   schedules) on a two-tier fabric with hierarchical candidates live and
#   again on a fat tree with shared uplinks (the rack tier and the uplink
#   ports of Netmodel.transfer), the topology suite, then colltuning (tuned tables beat the flat
#   defaults >=1.2x on bcast and allreduce, predicted crossovers within
#   one sweep step, pin table dispatches the predicted winner, every
#   allgatherv pick within 10% of the fastest pinned body).
# - scenarios: the three differential gallery workloads and the serving
#   example (its resilient path runs on Ckpt.run_sharded) under a random
#   schedule with the checker raised (each proves variant/transport
#   bit-identity, oracle equality and kill-recovery), the scenarios
#   suite, then apps (oracle exactness, p2p-vs-persistent noise band).
#   The examples link lib/explore, so a malformed MPISIM_EXPLORE spec
#   fails these passes instead of running the default schedule.
# - perf: the repository benchmark's correctness gates: oracle outputs
#   and determinism per workload; the traced bfs_rgg run adds the
#   pure-observer checks and the zero-overhead gate (Bfs_mpi simulates
#   exactly like Bfs_kamping); the traced cg_fabric run puts the same
#   pure-observer checks on the serialized dot products and their single
#   decode park; the traced pagerank_ckpt run puts them on the
#   checkpointed Bytes path (snapshots, buddy copies, recovery).
passes='
-                                                        lint:observe
-                                                        lint:coll
-                                                        lint:wire
-                                                        lint:exports
MPISIM_CHECK=communication                               runtest
MPISIM_TRACE=1                                           runtest
-                                                        bench:trace
-                                                        bench:ckpt
MPISIM_EXPLORE=random:42,MPISIM_CHECK=communication      runtest
-                                                        test:explore
-                                                        bench:explore
-                                                        bench:serving
-                                                        bench:engine
MPISIM_CHECK=communication                               example:persistent_halo
-                                                        bench:mpi4
MPISIM_TOPOLOGY=two:4,MPISIM_CHECK=communication         test:explore
MPISIM_TOPOLOGY=fat:8:4:2,MPISIM_CHECK=communication     test:explore
MPISIM_CHECK=communication                               test:topology
-                                                        bench:colltuning
MPISIM_EXPLORE=random:42,MPISIM_CHECK=communication      example:graph_analytics
MPISIM_EXPLORE=random:42,MPISIM_CHECK=communication      example:cg_solver
MPISIM_EXPLORE=random:42,MPISIM_CHECK=communication      example:stream_windows
MPISIM_EXPLORE=random:42,MPISIM_CHECK=communication      example:serving
MPISIM_CHECK=communication                               test:scenarios
-                                                        bench:apps
-                                                        perf:bfs_rgg:0
-                                                        perf:cg_fabric:0
-                                                        perf:pagerank_ckpt:0
-                                                        perf:bfs_rgg:1
-                                                        perf:cg_fabric:1
-                                                        perf:pagerank_ckpt:1
'

run_suite() {
  case "$1" in
    runtest) dune runtest --force ;;
    test:*) dune exec test/test_main.exe -- test "${1#test:}" ;;
    example:*) dune exec "examples/${1#example:}.exe" ;;
    bench:*)
      name=${1#bench:}
      dune exec bench/main.exe -- "$name"
      case "$name" in colltuning) file=collectives ;; *) file=$name ;; esac
      test -s "BENCH_$file.json"
      ;;
    perf:*)
      spec=${1#perf:}
      python3 perfbench/run.py --workload "${spec%:*}" --seed 1 --seconds 1 --trace "${spec#*:}"
      ;;
    lint:observe)
      cd lib/mpisim
      if grep -n 'Checker\.\|Trace\.\|Profiling\.' p2p.ml collectives.ml win.ml ulfm.ml \
        cart.ml topology.ml group.ml persist.ml coll_impl.ml; then
        echo "ci.sh: call layers must observe through Observe only" >&2
        exit 1
      fi
      ;;
    lint:coll)
      if grep -n 'P2p\.' lib/mpisim/collectives.ml; then
        echo "ci.sh: collective schedules belong in Coll_impl, not Collectives" >&2
        exit 1
      fi
      ;;
    lint:wire)
      if grep -rnE "Array\.init \(Bytes\.length|Bytes\.init .*Array\.(unsafe_)?get|Bytes\.(unsafe_)?(get|set)\b|Array\.make .*'\\\\000'" \
        lib/kamping lib/ckpt lib/mpisim lib/bindings lib/apps; then
        echo "ci.sh: serialized payloads stay Bytes end to end; no char-array windows or conversions" >&2
        exit 1
      fi
      ;;
    lint:exports)
      dune build @check
      dune exec bin/lint_exports.exe
      ;;
    *) echo "ci.sh: unknown suite $1" >&2; exit 2 ;;
  esac
}

echo "$passes" | while read -r envs suite; do
  [ -n "$envs" ] || continue
  (
    if [ "$envs" != - ]; then
      for assignment in $(echo "$envs" | tr , ' '); do export "$assignment"; done
    fi
    run_suite "$suite" </dev/null
  )
done

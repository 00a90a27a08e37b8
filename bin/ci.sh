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
#   lint:wire            lib/kamping and lib/ckpt convert between Bytes and
#                        char arrays only in lib/kamping/serialization.ml
#
# What the passes cover, in order:
# - lint:observe: one observation point per MPI operation; a call layer
#   that records a count, a checker entry or a span itself fails here.
# - lint:coll: every collective schedule has one home, Coll_impl;
#   Collectives only validates, selects, observes and dispatches.
# - lint:wire: a serialized payload is copied once per side, by the one
#   wire helper; a hand-rolled Bytes/char-array conversion fails here.
# - runtest under the strictest MUST-style checker, under event tracing
#   (the recorder must be a pure observer: determinism and profiling
#   equality stay green), and under seeded random schedule exploration
#   with the checker raised (a fixed seed keeps it reproducible; bump it
#   deliberately, not per run).
# - trace: traces fig8 + fig10; the critical path covers the whole run,
#   and every rank track and flow pair is present in BENCH_trace.json.
# - ckpt: recovered-vs-reference bit-identity, Daly-interval minimality
#   and the <10% checkpoint overhead bound.
# - test:explore: the mutation smoke.  The suite re-introduces the
#   Daly-divergence bug behind a test-only flag and fails unless random
#   exploration finds and shrinks it (see test/test_explore.ml).
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
#   schedules) on a two-tier fabric with hierarchical candidates live,
#   the topology suite, then colltuning (tuned tables beat the flat
#   defaults >=1.2x on bcast and allreduce, predicted crossovers within
#   one sweep step, pin table dispatches the predicted winner).
# - scenarios: the three differential gallery workloads under a random
#   schedule with the checker raised (each proves variant/transport
#   bit-identity, oracle equality and kill-recovery), the scenarios
#   suite, then apps (oracle exactness, p2p-vs-persistent noise band).
# - perf: the repository benchmark's correctness gates: oracle outputs
#   and determinism per workload; the traced bfs_rgg run adds the
#   pure-observer checks and the zero-overhead gate (Bfs_mpi simulates
#   exactly like Bfs_kamping).
passes='
-                                                        lint:observe
-                                                        lint:coll
-                                                        lint:wire
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
MPISIM_CHECK=communication                               test:topology
-                                                        bench:colltuning
MPISIM_EXPLORE=random:42,MPISIM_CHECK=communication      example:graph_analytics
MPISIM_EXPLORE=random:42,MPISIM_CHECK=communication      example:cg_solver
MPISIM_EXPLORE=random:42,MPISIM_CHECK=communication      example:stream_windows
MPISIM_CHECK=communication                               test:scenarios
-                                                        bench:apps
-                                                        perf:bfs_rgg:0
-                                                        perf:cg_fabric:0
-                                                        perf:pagerank_ckpt:0
-                                                        perf:bfs_rgg:1
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
      if grep -rnE 'Array\.init \(Bytes\.length|Bytes\.init .*Array\.(unsafe_)?get|Bytes\.(unsafe_)?(get|set)\b' \
        lib/kamping lib/ckpt | grep -v '^lib/kamping/serialization\.ml:'; then
        echo "ci.sh: Bytes/char-array conversions belong in Kamping.Serialization" >&2
        exit 1
      fi
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

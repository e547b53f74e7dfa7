# Convenience targets; `make check` is the everything-gate: build, full
# test suite, then a fast-profile smoke of the fig3 figure, the
# migration-path wall-clock bench, and the observability bench (which
# fails if the disabled-instrumentation overhead leaves its 2% budget or
# the migration trace stops validating).

.PHONY: all build test bench bench-record bench-smoke obs-smoke obs-cluster-smoke lint-smoke invert-smoke mvcc-smoke shard-smoke server-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# The bench targets write their BENCH_*.json (and trace files) under
# _build/bench-out/, so a gate run leaves the tracked tree clean.
bench-smoke:
	BF_FAST=1 dune exec bench/main.exe -- fig3 migpath recovery

# Rewrites the committed BENCH_*.json at the repository root, each at the
# profile its committed copy records.  qpath runs in its own process: after
# mvcc in the same process its ns figures read several times higher.
bench-record:
	BF_FAST=1 dune exec bench/main.exe -- --out . migpath recovery obs obscluster shard server
	dune exec bench/main.exe -- --out . qpath
	dune exec bench/main.exe -- --out . invert mvcc

obs-smoke:
	BF_FAST=1 dune exec bench/main.exe -- obs

# Gated on a single wire request against a migrating 4-shard cluster
# exporting one connected trace tree (client -> server -> router ->
# shards -> 2pc -> lazy-migrate) and STATS round-tripping the exact
# coordinator snapshot.
obs-cluster-smoke:
	BF_FAST=1 dune exec bench/main.exe -- obscluster

lint-smoke:
	BF_FAST=1 dune exec bench/main.exe -- lint

# Gated on the TPC-C invertibility verdicts, the rollback flip staying
# instant under a live workload, and the rolled-back table matching a
# never-migrated oracle row-exactly.
invert-smoke:
	BF_FAST=1 dune exec bench/main.exe -- invert

mvcc-smoke:
	BF_FAST=1 dune exec bench/main.exe -- mvcc

shard-smoke:
	BF_FAST=1 dune exec bench/main.exe -- shard

# Gated on the breaker cycling, shed rate returning to 0 after the
# backfill, and admitted writes replaying row-exactly vs an in-process
# oracle.
server-smoke:
	BF_FAST=1 dune exec bench/main.exe -- server

check: build test bench-smoke obs-smoke obs-cluster-smoke lint-smoke invert-smoke mvcc-smoke shard-smoke server-smoke

clean:
	dune clean

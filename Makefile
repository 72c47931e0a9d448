# Local dev targets mirroring .github/workflows/ci.yml: `make ci`
# reproduces the gate's checks; CI additionally runs `make bench-baseline`
# (kept out of `ci` because it rewrites BENCH_9.json's current section).

GO ?= go
# bench-baseline needs pipefail so a panicking benchmark fails the target.
SHELL := /bin/bash

.PHONY: build test race cover cover-gate chaos-soak crash-soak fuzz-smoke bench benchmark-check pins bench-baseline fmt fmt-check vet loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The race suite with a merged coverage profile; cover-gate consumes it.
cover:
	$(GO) test -race -covermode=atomic -coverprofile=coverage.out ./...

# Coverage floors for the packages this repo's correctness hangs on:
# internal/cluster (site RPC and the two control-site join operators) at
# what it measures now that a site evaluates each of its graphs once, one
# after the other (95.7), minus a point,
# internal/rdf (the CSR + delta-overlay storage engine, merge cursor
# included) and internal/match (the matcher over it) at what they
# measured when the visibility rule came to be written once, in rdf (95.0
# and 98.0), minus a point — rdf's floor stays where it was, a floor never
# drops: it measures 94.9 now that the triple list is gone, the code that
# kept the list consistent having been covered line for line while the
# parsers' error branches, which are most of what is not, stayed,
# internal/serve (the MVCC query admission/update path) at its PR-6
# baseline measured when snapshot reads landed, and internal/transport
# (the networked site RPC with retries, progress deadline and breaker)
# at what `make cover` measures with one attempt path and no hedge race
# (88.8; 88.9 run alone), minus a point, and internal/wal (the
# write-ahead log the durability guarantee hangs on) at what it measures
# reading the one format it writes (88.7), minus a point. The three packages that
# are the paper's offline pipeline — internal/fap (Algorithm 1),
# internal/mining (Section 4's pattern mining) and internal/fragment
# (Definitions 5-12) — sit at what they measured when the pipeline moved
# to matched edge sets (fap 100.0, mining 96.5), and when a fragment
# became its edge set and its size (fragment 97.9), minus a point of
# slack. internal/allocation (Section 6's Algorithm 2, whose placement
# every site process must reach alike) sits at what it measured when the
# clustering came to be written over explicit clusters and held to the
# previous code by a differential test (93.8), minus a point.
# internal/persist (the checkpoint image every recovery starts
# from) sits at what it measured when it came to list each site's graph
# once and read the format before it (94.2), minus a point.
COVER_FLOOR_CLUSTER ?= 94.7
COVER_FLOOR_RDF ?= 94.5
COVER_FLOOR_MATCH ?= 97.0
COVER_FLOOR_SERVE ?= 88.0
COVER_FLOOR_TRANSPORT ?= 87.8
COVER_FLOOR_WAL ?= 87.7
COVER_FLOOR_FAP ?= 99.0
COVER_FLOOR_MINING ?= 95.5
COVER_FLOOR_FRAGMENT ?= 96.9
COVER_FLOOR_PERSIST ?= 93.2
COVER_FLOOR_ALLOCATION ?= 92.8
cover-gate:
	@test -f coverage.out || { echo "coverage.out missing; run 'make cover' first" >&2; exit 1; }
	@status=0; \
	for spec in "cluster=$(COVER_FLOOR_CLUSTER)" "rdf=$(COVER_FLOOR_RDF)" "match=$(COVER_FLOOR_MATCH)" "serve=$(COVER_FLOOR_SERVE)" "transport=$(COVER_FLOOR_TRANSPORT)" "wal=$(COVER_FLOOR_WAL)" "fap=$(COVER_FLOOR_FAP)" "mining=$(COVER_FLOOR_MINING)" "fragment=$(COVER_FLOOR_FRAGMENT)" "persist=$(COVER_FLOOR_PERSIST)" "allocation=$(COVER_FLOOR_ALLOCATION)"; do \
		pkg=$${spec%%=*}; floor=$${spec##*=}; \
		{ head -1 coverage.out; grep "rdffrag/internal/$$pkg/" coverage.out; } > .cover_gate.out; \
		pct=$$($(GO) tool cover -func=.cover_gate.out | awk '/^total:/ { sub("%","",$$3); print $$3 }'); \
		rm -f .cover_gate.out; \
		awk -v p="$$pct" -v floor="$$floor" -v pkg="$$pkg" 'BEGIN { \
			if (p+0 < floor+0) { printf "internal/%s coverage %.1f%% dropped below the baseline %.1f%%\n", pkg, p, floor; exit 1 } \
			printf "internal/%s coverage %.1f%% (floor %.1f%%)\n", pkg, p, floor }' || status=1; \
	done; exit $$status

# The deterministic chaos soak, isolated: seeded fault injection
# (drop/error/cut/delay) over networked sites under mixed query/update
# load, client-disconnect cancellation, kill/restart of an in-test site
# listener, and a SIGSTOP/SIGCONT and a SIGKILL/restart cycle of a real
# multi-process `rdffrag site` deployment — all under the race detector.
# These tests also run inside `test`/`cover`; this target is the fast,
# named gate.
chaos-soak:
	$(GO) test -race -count=1 -run \
		'TestChaosSoakRemoteSites|TestSiteKillRestartRecovery|TestQueryDisconnectCancelsRemoteEvals|TestMultiProcessSites' .

# The durability gate: a real `rdffrag serve` process is SIGKILLed at
# 20+ seeded points mid-update-stream — externally, and internally via
# the WAL's fault-injecting filesystem tearing the log tail mid-fsync —
# then restarted; recovered state must contain every acknowledged update
# (no lost acks, no torn batches, no duplicate applies) and reconcile
# with the replay metrics. The delete soak interleaves DELETE batches
# into the killed stream: an acknowledged delete must never resurrect on
# replay. The overwrite soak kills mid-overwrite-batch: every recovered
# key must hold exactly one complete version — old or new, never a mix
# of the two, never neither. The checkpoint soak kills while two writers
# stream and checkpoints are written off the writer lock beside their
# appends — some kills inside a checkpoint's write — and every restart
# must load a whole checkpoint, old or new, and replay each writer to an
# acknowledged prefix. The TTL soak kills, the same three ways and once
# with SIGTERM, a server that sweeps every 50ms while TTL-stamped and
# permanent batches stream: after every restart an acknowledged TTL batch
# is there until its original absolute deadline and gone within a sweep
# interval and a second's slack after it, and a permanent one stays. The
# SIGTERM tests prove graceful shutdown loses nothing even under the
# lossy-window "interval" sync policy.
crash-soak:
	$(GO) test -race -count=1 -run \
		'TestCrashRecoverySoak|TestCrashRecoveryDeleteSoak|TestCrashRecoveryOverwriteSoak|TestCrashRecoveryCheckpointSoak|TestCrashRecoveryTTLSoak|TestGracefulShutdownSIGTERM|TestSiteGracefulShutdownSIGTERM' .

# Ten seconds of coverage-guided fuzzing each of the two hand-written
# codecs against encoding/json, then of the N-Triples scanner, of the term
# dictionary, of the checkpoint loader, of the WAL segment scanner and of the WAL batch
# payload decoder. The result encoders, against the
# struct-and-encoding/json oracle in results_test.go: the JSON must
# unmarshal to the same value, the CSV read back to the same records,
# the TSV bytes be equal. The batch-frame row codec, against
# encoding/json into a [][]rdf.ID: never accept what it rejects, decode
# to the same IDs, row count and common row width otherwise, encode a
# table back to the same bytes — and a frame whose rows are ragged, or
# not as wide as the subquery's variables, is never accepted as a
# table. The scanner every load and every update batch goes through:
# never panic, accept no line with an unclosed IRI, literal or datatype
# or with anything after the third term, and scan what WriteNTriples
# writes of an accepted document back to the same triples. The term
# dictionary, which keeps a term as its rendering: for terms of any kind
# and value, Encode, Decode, Lookup and Rendered agree, distinct terms get
# distinct IDs, and the fingerprint is that of the decoded terms. The checkpoint
# loader: never panic, allocate from no count the bytes do not back, and
# accept no image whose CRC trailer fails. Its inputs are kilobytes of gob,
# which the fuzzer would otherwise spend the whole run minimizing. The
# segment scanner: never panic, return no frame whose CRC fails — the
# records it returns, framed again, are the bytes it calls valid — and
# reach past the image from no length prefix. The batch payload decoder:
# never panic, slice from no length prefix the payload does not back, and
# what it accepts encodes back to the same batch. The SPARQL parser: never
# panic, and wrap ErrParse in every error it returns — what /query answers
# with 400. The Turtle reader: never panic, add no triple from a document
# it refuses, and read what WriteTurtle writes of a document it accepts
# back to the same triple set; like the loader's, its inputs would spend
# the run being minimized. The seed corpora alone run inside `test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWriteJSON$$' -fuzztime=10s .
	$(GO) test -run '^$$' -fuzz '^FuzzWireRows$$' -fuzztime=10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzScanNTriples$$' -fuzztime=10s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzDictEncode$$' -fuzztime=10s ./internal/rdf
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzScanSegment$$' -fuzztime=10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime=10s .
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s ./internal/sparql
	$(GO) test -run '^$$' -fuzz '^FuzzReadTurtle$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/rdf

# One iteration per benchmark: a compile-and-run smoke, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The end-to-end harness is a module of its own, so `./...` above never
# reaches it — yet benchmark/layers compiles against internal packages,
# and a signature it uses moving shows up only later, as a traced run
# reporting layers.available 0 and a column of -1. Vet and test it here;
# -short skips the run that launches servers.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# The harness pins its input by hash (benchmark/pinned.json) and refuses
# to run on other bytes. datagen writes the generator's own triple list —
# a graph keeps no order to write one in — so a change of generation
# order, or of how a line is formatted, moves the hash: build datagen, run
# it with the arguments benchmark/build.go runs it with, and compare the
# two SHA-256s. Seconds, and no server is launched.
pins:
	@mkdir -p .bench_build/pins
	$(GO) build -o .bench_build/pins/datagen ./cmd/datagen
	@.bench_build/pins/datagen -kind watdiv -triples 100000 -queries 400 -seed 1 -out .bench_build/pins/watdiv > /dev/null
	@status=0; \
	for spec in nt=DataSHA256 rq=WorkloadSHA256; do \
		ext=$${spec%%=*}; key=$${spec##*=}; \
		sum=$$(sha256sum .bench_build/pins/watdiv.$$ext | cut -d' ' -f1); \
		if grep -q "\"$$key\": \"$$sum\"" benchmark/pinned.json; then \
			echo "watdiv.$$ext $$sum is the pinned $$key"; \
		else \
			echo "watdiv.$$ext hashes to $$sum, not the $$key benchmark/pinned.json pins" >&2; status=1; \
		fi; \
	done; exit $$status

# Hot-path benchmarks, recorded as a point of the perf trajectory in
# BENCH_9.json. The current section includes the control-site joins
# (BenchmarkHashJoin, BenchmarkJoinStream), the
# live-update mixed add+query pair (BenchmarkLiveMixedAddQuery/overlay
# vs /refreeze), its add+delete sibling
# (BenchmarkLiveMixedAddDeleteQuery — the tombstone overlay against the
# rebuild-per-mutation baseline), the slowly-changing-graph pair
# (BenchmarkLiveSlowlyChangingGraph — overwrite-style version churn
# over a fixed entity population) and the MVCC writer-latency pair
# (BenchmarkUpdateLatencyUnderLoad/mvcc vs /rwlock — per-update latency
# with long queries in flight, snapshot reads against the retired
# data-lock architecture; run at a fixed iteration count because the
# rwlock side costs a full query latency per op, and at 1000x rather
# than the original 200x because the mvcc side's mean is tail-dominated
# on small single-core hosts and 200 samples made the 20% gate flake); the parallel section
# re-measures BenchmarkMatchWatDiv and BenchmarkJoinStream under GOMAXPROCS=1
# and the host's full core count, and the regression gate fails the
# target when any benchmark runs >20% slower than the previous committed
# trajectory file (BENCH_8.json). The WAL section measures the durable
# append under each sync policy (BenchmarkWALAppend/always-interval-none)
# and the group-commit ack latency (BenchmarkWALGroupCommitLatency) —
# the write-side cost every durable update now pays.
BENCH_HOT := BenchmarkCandidateScan$$|BenchmarkMatchWatDiv$$|BenchmarkHashJoin$$|BenchmarkJoinStream$$|BenchmarkLiveMixedAddQuery$$|BenchmarkLiveMixedAddDeleteQuery$$|BenchmarkLiveSlowlyChangingGraph$$
BENCH_PAR := BenchmarkMatchWatDiv$$|BenchmarkJoinStream$$
BENCH_SERVE := BenchmarkUpdateLatencyUnderLoad$$
BENCH_WAL := BenchmarkWALAppend$$|BenchmarkWALGroupCommitLatency$$
# Tolerated ns/op regression vs the previous trajectory file. Wall-clock
# comparisons across hosts drift; override (e.g. BENCH_MAX_REGRESS=0.5)
# when the measurement machine differs from the one that recorded the
# previous file.
BENCH_MAX_REGRESS ?= 0.20
bench-baseline:
	set -o pipefail; \
	np=$$(nproc); \
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '$(BENCH_PAR)' -benchmem -benchtime 1s \
		./internal/match ./internal/cluster > .bench_gomaxprocs_1.txt; \
	if [ "$$np" -gt 1 ]; then \
		$(GO) test -run '^$$' -bench '$(BENCH_PAR)' -benchmem -benchtime 1s \
			./internal/match ./internal/cluster > .bench_gomaxprocs_np.txt; \
		par="1=.bench_gomaxprocs_1.txt,$$np=.bench_gomaxprocs_np.txt"; \
	else \
		par="1=.bench_gomaxprocs_1.txt"; \
	fi; \
	$(GO) test -run '^$$' -bench '$(BENCH_SERVE)' -benchmem -benchtime 1000x \
		./internal/serve > .bench_serve.txt; \
	$(GO) test -run '^$$' -bench '$(BENCH_WAL)' -benchmem -benchtime 300x \
		./internal/wal > .bench_wal.txt; \
	{ $(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchmem -benchtime 1s \
		./internal/match ./internal/cluster; cat .bench_serve.txt; cat .bench_wal.txt; } | \
		$(GO) run ./cmd/benchjson -pr 9 -out BENCH_9.json \
		-require 'BenchmarkCandidateScan,BenchmarkMatchWatDiv,BenchmarkHashJoin,BenchmarkJoinStream,BenchmarkLiveMixedAddQuery/overlay,BenchmarkLiveMixedAddQuery/refreeze,BenchmarkLiveMixedAddDeleteQuery/overlay,BenchmarkLiveMixedAddDeleteQuery/refreeze,BenchmarkLiveSlowlyChangingGraph/overlay,BenchmarkLiveSlowlyChangingGraph/refreeze,BenchmarkUpdateLatencyUnderLoad/mvcc,BenchmarkUpdateLatencyUnderLoad/rwlock,BenchmarkWALAppend/always,BenchmarkWALAppend/interval,BenchmarkWALAppend/none,BenchmarkWALGroupCommitLatency' \
		-parallel "$$par" -prev BENCH_8.json -max-regress $(BENCH_MAX_REGRESS); \
	status=$$?; rm -f .bench_gomaxprocs_1.txt .bench_gomaxprocs_np.txt .bench_serve.txt .bench_wal.txt; exit $$status

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# Non-test Go lines per package of this module (benchmark/ is a module of
# its own and not counted), then their total: the count every PR states
# its delta of.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		while read pkg files; do printf '%6d %s\n' $$(cat $$files | wc -l) $$pkg; done | \
		awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

ci: fmt-check vet build cover cover-gate chaos-soak crash-soak fuzz-smoke bench benchmark-check pins

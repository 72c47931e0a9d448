# Local dev targets mirroring .github/workflows/ci.yml: `make ci`
# reproduces the gate's checks.

GO ?= go

.PHONY: build test race cover cover-gate allocs chaos-soak crash-soak fuzz-smoke bench benchmark-check pins fmt fmt-check vet loc ci

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
# included) at what it measures now that its planner statistics are
# counted from the arenas and held to a scan by a differential test
# (96.1), minus a point, and internal/match (the matcher over it) at what
# it measured when the visibility rule came to be written once, in rdf
# (98.0), minus a point,
# internal/serve (the MVCC query admission/update path) at what it
# measures now that admission runs each query on its caller's goroutine
# (93.8; its floor had stayed at 88.0 since snapshot reads landed), and
# internal/transport
# (the networked site RPC with retries, progress deadline and breaker)
# at what `make cover` measures now that a site looks query terms up and
# checks the client's dictionary stamp one way only (91.3; it was 88.8,
# minus a point), internal/sparql (the parser every workload and served
# query goes through, interning or looking up) at what it measures with
# FuzzParse's seeds holding both parsers to one another (84.4), and
# internal/wal (the
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
# internal/baseline (the SHAPE and WARP placements of Section 8.1 and
# the decomposition that serves them through internal/exec, so every
# Section 8 comparison is one of placements, not engines) sits at what
# it measured when its own evaluator was deleted for that engine's
# (92.3), minus a point. internal/decompose (Section 7's Algorithm 3)
# and internal/plan (Algorithm 4's join order), the last two stages of
# the paper's pipeline without a floor, sit at what they measured when
# each serving job came to be written once (95.3 and 96.0), minus a
# point. internal/model (the reference every end-to-end answer and update
# is checked against, so a branch of it no test reaches is a rule nothing
# checks) sits at what it measured when it replaced the hand-built
# oracles (100.0), minus a point. internal/exec (Section 7's engine, which
# merges co-located subqueries and marks the vertices each one must keep,
# so a branch of it no test reaches is an answer nothing checks) sits at
# what it measures now that a query runs as units pushing into its joins
# (82.5; 82.3 when it came to merge them); its own tests leave Explain
# and the remote-site paths to the root package's. internal/dict (the
# data dictionary of Section 7.1, whose cardinality estimates Algorithm 3
# splits queries by) sits at what it measured when its cold estimates came
# to read the cold graph's live per-predicate counts (83.0), minus a point.
COVER_FLOOR_CLUSTER ?= 94.7
COVER_FLOOR_RDF ?= 95.1
COVER_FLOOR_MATCH ?= 97.0
COVER_FLOOR_SERVE ?= 93.8
COVER_FLOOR_TRANSPORT ?= 91.3
COVER_FLOOR_WAL ?= 87.7
COVER_FLOOR_FAP ?= 99.0
COVER_FLOOR_MINING ?= 95.5
COVER_FLOOR_FRAGMENT ?= 96.9
COVER_FLOOR_PERSIST ?= 93.2
COVER_FLOOR_ALLOCATION ?= 92.8
COVER_FLOOR_BASELINE ?= 91.3
COVER_FLOOR_DECOMPOSE ?= 94.3
COVER_FLOOR_PLAN ?= 95.0
COVER_FLOOR_MODEL ?= 99.0
COVER_FLOOR_EXEC ?= 82.5
COVER_FLOOR_SPARQL ?= 84.4
COVER_FLOOR_DICT ?= 82.0
cover-gate:
	@test -f coverage.out || { echo "coverage.out missing; run 'make cover' first" >&2; exit 1; }
	@status=0; \
	for spec in "cluster=$(COVER_FLOOR_CLUSTER)" "rdf=$(COVER_FLOOR_RDF)" "match=$(COVER_FLOOR_MATCH)" "serve=$(COVER_FLOOR_SERVE)" "transport=$(COVER_FLOOR_TRANSPORT)" "wal=$(COVER_FLOOR_WAL)" "fap=$(COVER_FLOOR_FAP)" "mining=$(COVER_FLOOR_MINING)" "fragment=$(COVER_FLOOR_FRAGMENT)" "persist=$(COVER_FLOOR_PERSIST)" "allocation=$(COVER_FLOOR_ALLOCATION)" "baseline=$(COVER_FLOOR_BASELINE)" "decompose=$(COVER_FLOOR_DECOMPOSE)" "plan=$(COVER_FLOOR_PLAN)" "model=$(COVER_FLOOR_MODEL)" "exec=$(COVER_FLOOR_EXEC)" "sparql=$(COVER_FLOOR_SPARQL)" "dict=$(COVER_FLOOR_DICT)"; do \
		pkg=$${spec%%=*}; floor=$${spec##*=}; \
		{ head -1 coverage.out; grep "rdffrag/internal/$$pkg/" coverage.out; } > .cover_gate.out; \
		pct=$$($(GO) tool cover -func=.cover_gate.out | awk '/^total:/ { sub("%","",$$3); print $$3 }'); \
		rm -f .cover_gate.out; \
		awk -v p="$$pct" -v floor="$$floor" -v pkg="$$pkg" 'BEGIN { \
			if (p+0 < floor+0) { printf "internal/%s coverage %.1f%% dropped below the baseline %.1f%%\n", pkg, p, floor; exit 1 } \
			printf "internal/%s coverage %.1f%% (floor %.1f%%)\n", pkg, p, floor }' || status=1; \
	done; exit $$status

# The allocation guards at their real ceilings: every test named
# ...Alloc, ...Allocs or ...LiveHeap (not allocation's TestAllocate...),
# without the race detector. Under `cover`, which runs under it, each
# guard falls back to the loose ceiling its race-detector runs need
# (sync.Pool drops what is put back at random there), so a regression
# that stays under that one would pass unseen.
allocs:
	$(GO) test -count=1 -run 'Alloc(s)?($$|[A-Z])|LiveHeap' ./...

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

# Ten seconds of coverage-guided fuzzing each of the result encoders and
# of the site RPC's binary frame reader, then of the N-Triples scanner, of the term
# dictionary, of the checkpoint loader, of the WAL segment scanner and of the WAL batch
# payload decoder. The result encoders, against the
# struct-and-encoding/json oracle in results_test.go: the JSON must
# unmarshal to the same value, the CSV read back to the same records,
# the TSV bytes be equal. The frame reader, on a response to a subquery
# over two variables: never panic, allocate from no length prefix more
# than the stream's bytes back, deliver only tables over the subquery's
# variables, and accept only the very bytes a site writes of the batches
# it delivered — a header naming other variables, a batch whose length is
# not its row count times their number, and a byte after done are
# refused. The scanner every load and every update batch goes through:
# never panic, accept no line with an unclosed IRI, literal or datatype
# or with anything after the third term, scan what WriteNTriples writes
# of an accepted document back to the same triples, and load it
# (ReadNTriples, which interns from the line's bytes) to the dictionary,
# ID for ID, and the triples that its statements encoded in order give;
# a refused document the load refuses with the same error. The term
# dictionary, which keeps a term as its rendering: for terms of any kind
# and value, Encode, Decode, Lookup and Rendered agree, distinct terms get
# distinct IDs, and the fingerprint is that of the decoded terms. The checkpoint
# loader: never panic, allocate from no count the bytes do not back, and
# accept no image whose CRC trailer fails. Its inputs are kilobytes of gob,
# which the fuzzer would otherwise spend the whole run minimizing. The
# segment scanner: never panic, return no frame whose CRC fails — the
# records it returns, framed again, are the bytes it calls valid — and
# reach past the image from no length prefix. The batch payload decoder:
# never panic, add no term to the dictionary, slice from no length prefix
# the payload does not back, and what it accepts encodes back to the same
# batch. The SPARQL parser: never panic, and wrap ErrParse in every error
# it returns — what /query answers with 400 — and the lookup-only parser
# /query uses accepts what the interning one does, adds no term, and
# resolves a query exactly when the dictionary holds its every constant. The Turtle reader: never panic, add no triple from a document
# it refuses, and read what WriteTurtle writes of a document it accepts
# back to the same triple set; like the loader's, its inputs would spend
# the run being minimized. The /eval request decoder: never panic, add no
# term to the site's dictionary, allocate from no length prefix more than
# the body backs, and a request it accepts encodes back to the very bytes
# it was given — a repeated vertex, which would shift every edge after
# it, and a term ID past the stamped dictionary are refused. The tree
# reducer: on small graphs, compacted or under a delta, MatchedEdges and
# Count of a tree pattern — with a constant vertex and a vertex filter or
# without — equal the sequential search's, and the reducer takes every
# tree and nothing else: one more edge or a predicate variable goes to
# the search.
# The seed corpora alone run inside `test`.
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
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeQuery$$' -fuzztime=10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzTreeReducer$$' -fuzztime=10s ./internal/match

# One iteration per benchmark: a compile-and-run smoke, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The end-to-end harness is a module of its own, so `./...` above never
# reaches it. benchmark/layers compiles against internal packages; the
# exports checker in `go test .` (exports_test.go) type-checks it, so a
# signature it uses moving fails `test`, not a later traced run. Vet and
# test the whole harness here; -short skips the run that launches servers.
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

ci: fmt-check vet build cover cover-gate allocs chaos-soak crash-soak fuzz-smoke bench benchmark-check pins

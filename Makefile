# Targets mirror the CI jobs (.github/workflows/ci.yml) so local and
# CI invocations stay identical. One producer per kind of number: the
# paper's rows come from `make bench` (cmd/experiments), end-to-end
# speed from the benchmark harness (BENCHMARK.json → bench/run.sh, and
# `make bench-record` for a PR's before/after), and the layer bench-*
# targets time the finer splits no harness cell has.

GO ?= go

.PHONY: build test test-budgets bench bench-aggregate bench-classify bench-train bench-persist bench-wire bench-harness-smoke bench-record bench-record-smoke test-crash test-events test-distributed cover docs-gate fuzz-smoke lint fmt

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full suite with the race detector (CI `test` job),
## then by name the test that drains payload-carrying alarms through the
## sharded service over both brokers with the lease and batch poison
## modes armed — a decoded alarm's Payload is a view of its leased
## record, and this is what fails if a copy of one outlives the lease
test:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'TestLeasedPayloadNeverRetained|TestPayloadViewStaysInTheBatch' -v ./internal/serve ./internal/core

## bench: one pass over every reproduced experiment of the paper's
## evaluation, ablations included — the reproduction smoke run (CI
## `bench-smoke` job). Rerun at larger scales with
## `go run ./cmd/experiments -exp all -scale medium|paper`.
bench:
	$(GO) run ./cmd/experiments -exp all

## bench-aggregate: the analytics pushdown sweep on its own — the
## streaming reference vs pushdown execution of the asks serving makes
## (the TopDevices pipeline, a 64-device histogram sweep, a filtered
## per-ZIP count) across partition counts (internal/docstore, beside the
## reference). The CI bench-smoke job runs this explicitly (and fails if
## a partitions=8 pushdown ask disappears) so the pushdown speedup story
## can't rot.
bench-aggregate:
	@out=$$($(GO) test -run=- -bench=BenchmarkAggregatePushdown -benchmem -benchtime=1x ./internal/docstore) || \
		{ echo "$$out"; echo "BenchmarkAggregatePushdown failed"; exit 1; }; \
	echo "$$out"; \
	for ask in top_devices histograms zip_counts; do \
		echo "$$out" | grep -q "BenchmarkAggregatePushdown/mode=pushdown/partitions=8/ask=$$ask" || \
			{ echo "BenchmarkAggregatePushdown did not run ask=$$ask"; exit 1; }; \
	done

## bench-classify: where a classify batch's time goes at the benchmark
## harness's scale (1 001 features, 512-alarm batches, 50 trees × depth
## 30): alarms into sparse rows (encode-ns/alarm) and rows through the
## compiled forest (walk-ns/alarm), timed apart, beside the whole
## verifyBatchInto call — means over 200 batches on one CPU. The CI
## bench-smoke job runs this explicitly (and fails if the benchmark
## disappears)
bench-classify:
	@out=$$($(GO) test -run=- -bench=BenchmarkVerifyBatchSplit -benchtime=200x -cpu 1 ./internal/core) || \
		{ echo "$$out"; echo "BenchmarkVerifyBatchSplit failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q 'walk-ns/alarm' || \
		{ echo "BenchmarkVerifyBatchSplit did not run"; exit 1; }

## bench-train: what training the verifier costs: the forest's Fit on
## its own at the benchmark harness's full scale (12 000 alarms, 1 001
## features, 50 trees × depth 30; internal/ml) and the whole of
## core.Train — label, encode, fit, compile — on the harness's training
## set (BenchmarkTrain/harness, the span the harness reports as
## ml.train_s) and on a retrain window's (BenchmarkTrain/retrain, 40 000
## alarms over 8 000 devices; internal/core); seven runs each on two
## CPUs, one package at a time so the two never share them, the
## before/after evidence for training changes. The CI bench-smoke job
## runs this explicitly (and fails if any of the three disappears)
bench-train:
	@out=$$($(GO) test -p 1 -run=- -bench='^(BenchmarkForestFit|BenchmarkTrain)$$' -benchmem -cpu 2 -count 7 ./internal/ml ./internal/core) || \
		{ echo "$$out"; echo "training benchmarks failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q '^BenchmarkForestFit' && echo "$$out" | grep -q '^BenchmarkTrain/harness' && \
		echo "$$out" | grep -q '^BenchmarkTrain/retrain' || \
		{ echo "BenchmarkForestFit, BenchmarkTrain/harness or BenchmarkTrain/retrain did not run"; exit 1; }

## bench-persist: the persist stage's two store calls at the size of one
## benchmark drain round (internal/core) — 40 000 alarms recorded 512 at
## a time, and one histogram sweep over every device — beside the
## store's own batched insert, memory-only and WAL-backed at the default
## group sync, with its per-call p50-us and p99-us, and a retention
## prune of one partition's oldest row at 10 000 and 100 000 rows
## (internal/docstore); and the reads beside them (internal/core): the
## benchmark harness operator's four calls on the 30 000-row store its
## ops_mix workload reads (BenchmarkOperatorQueries), and the newest-n
## read at a dashboard's 100 and a retrain's 50 000 on 250 000 rows
## (BenchmarkRecentAlarms); seven runs each on one CPU, the before/after
## evidence for store write- and read-path changes (compare two trees'
## outputs run by run). Beside them the broker log's own write path
## (internal/broker): 2 000 000 single appends to one partition, one
## fill a run, with the slowest append's max-us and the median's p50-ns
## (BenchmarkAppendLongLog). The CI bench-smoke job runs this explicitly
## (and fails if any of the seven benchmarks disappears)
bench-persist:
	@out=$$($(GO) test -run=- -bench='^(BenchmarkRecordBatch|BenchmarkDeviceHistograms|BenchmarkInsertMany|BenchmarkPruneExpired|BenchmarkOperatorQueries|BenchmarkRecentAlarms)$$' -benchmem -cpu 1 -count 7 ./internal/core ./internal/docstore) || \
		{ echo "$$out"; echo "persist benchmarks failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q '^BenchmarkRecordBatch' && echo "$$out" | grep -q '^BenchmarkDeviceHistograms' && \
		echo "$$out" | grep -q '^BenchmarkInsertMany/store=wal.*p99-us' && \
		echo "$$out" | grep -q '^BenchmarkPruneExpired/rows=100000' && \
		echo "$$out" | grep -q '^BenchmarkRecentAlarms/n=100[-[:space:]]' && echo "$$out" | grep -q '^BenchmarkRecentAlarms/n=50000' || \
		{ echo "BenchmarkRecordBatch, BenchmarkDeviceHistograms, BenchmarkInsertMany, BenchmarkPruneExpired or BenchmarkRecentAlarms did not run"; exit 1; }; \
	for q in top_devices recent by_location device_histogram; do \
		echo "$$out" | grep -q "^BenchmarkOperatorQueries/query=$$q" || \
			{ echo "BenchmarkOperatorQueries did not run query=$$q"; exit 1; }; \
	done
	@out=$$($(GO) test -run=- -bench='^BenchmarkAppendLongLog$$' -benchtime 1x -benchmem -cpu 1 -count 7 ./internal/broker) || \
		{ echo "$$out"; echo "broker log benchmark failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q '^BenchmarkAppendLongLog.*max-us.*p50-ns' || \
		{ echo "BenchmarkAppendLongLog did not run"; exit 1; }

## bench-wire: the round trips a remote shard repeats, both ends in
## one process (internal/netbroker) — an RF 1 SendAt, a consumer
## heartbeat, and one record sent and drained (SendAt, then a shard's
## Drain to ReleaseBatch) — seven runs each on one CPU, the before/after
## evidence for wire-path changes (compare two trees' outputs run by
## run). The CI bench-smoke job runs this explicitly (and fails if any
## sub-benchmark disappears)
bench-wire:
	@out=$$($(GO) test -run=- -bench='^BenchmarkWire$$' -benchmem -cpu 1 -count 7 ./internal/netbroker) || \
		{ echo "$$out"; echo "BenchmarkWire failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -q '^BenchmarkWire/send' && echo "$$out" | grep -q '^BenchmarkWire/heartbeat' && \
		echo "$$out" | grep -q '^BenchmarkWire/drain' || \
		{ echo "BenchmarkWire/send, BenchmarkWire/heartbeat or BenchmarkWire/drain did not run"; exit 1; }

## bench-harness-smoke: vet and race-test the benchmark harness
## (BENCHMARK.json → bench/). bench/ is a module of its own, so `go
## build ./...` and `go test ./...` never compile it: without this
## target a change to a seam the harness wraps (serve.Cluster,
## broker.GroupConsumer, broker.RecordSender, netbroker.Options) first
## fails in the benchmark pipeline. CI `test` job.
bench-harness-smoke:
	cd bench && $(GO) vet . && $(GO) test -race .

## bench-record: write this PR's entry of the benchmark trajectory,
## BENCH_$(PR).json — the parent revision and this tree measured side
## by side with `bash bench/run.sh` over interleaved seeds (10 pairs on
## the workload the PR's claim is about, CLAIM, 3 on the others,
## alternating which side runs first), each side's median and quartiles
## per end-to-end cell, plus one `--trace 1` layer dump of CLAIM per
## side (cmd/benchrecord; ~45 min).
## Usage: make bench-record PR=19 [PARENT=HEAD~1] [CLAIM=wire_rf3]
PARENT ?= HEAD~1
CLAIM ?= drain_mem
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n> [PARENT=<rev>] [CLAIM=<workload>]"; exit 1; }
	$(GO) run ./cmd/benchrecord -pr $(PR) -parent $(PARENT) -claim $(CLAIM)

## bench-record-smoke: the same tool in one-seed smoke mode — one short
## pair per workload at the harness's smoke scale, this tree against
## its own HEAD, nothing written — so the recorder cannot rot (CI
## `test` job).
bench-record-smoke:
	$(GO) run ./cmd/benchrecord -parent HEAD -smoke

## test-crash: the crash-recovery hammer on its own, race-instrumented —
## SIGKILL a child mid-sustained-ingest, reopen the data dir, assert
## zero acked-alarm loss and bounded replay (CI `test` job runs the
## full suite; this target is the focused repro loop).
test-crash:
	$(GO) test -race -run 'TestCrashRecoveryHammer' -v ./internal/docstore

## test-events: the event-driven wait paths — the in-process consumer's
## park on its wake channel (internal/broker) and the wire's parked
## pulls and fetches (internal/netbroker) — and the group protocol —
## rebalances, a same-id rejoin, session expiry and the heartbeat pace
## a join hands out — plus the sharded service's rebalance barrier,
## whose idle intake a rebalance wakes, and the live feedback → retrain
## → hot-swap lifecycle (internal/serve), twenty times over under the
## race detector, so the sweep/park/signal, join/heartbeat/expire and
## retrain-trigger interleavings get more than one shot per CI run (CI
## `test` job). A lost wake-up is a hang up to the tests' 30 s poll
## timeouts, hence the explicit -timeout.
test-events:
	$(GO) test -race -count=20 -timeout 5m -run 'Event|Wake|Parked|LostWakeup|Rebalance|Rejoin|Session|Janitor|JoinUnder|HotSwap' ./internal/broker ./internal/netbroker ./internal/serve

## test-budgets: the allocation and footprint budgets by name, without
## the race detector — they carry a `!race` tag (the race runtime
## inflates the counts), so `make test` never compiles them and `make
## cover` runs only those whose package it lists. Fails if one of the
## six packages ran none (CI `test` job).
test-budgets:
	@out=$$($(GO) test -count=1 -v -run 'AllocBudget|ScratchBudget|FootprintBudget|IdleAllocs' ./internal/broker ./internal/netbroker ./internal/core ./internal/docstore ./internal/serve ./cmd/alarmd) || \
		{ echo "$$out"; echo "budget tests failed"; exit 1; }; \
	echo "$$out"; \
	if echo "$$out" | grep -q 'no tests to run'; then echo "a package ran no budget test"; exit 1; fi

## test-distributed: the multi-process chaos run (CI `distributed-e2e`
## job) — build brokerd + alarmd, boot a 3-node replica set and two
## remote shard processes, drive a flash-crowd burst over the wire,
## SIGKILL the leader mid-burst, and assert zero lost acked alarms,
## bounded ack p99 through the failover, and a full pipeline drain on
## the successor. Process logs land in $(DIST_ARTIFACTS).
DIST_ARTIFACTS ?= coverage/distributed
test-distributed:
	$(GO) build -o bin/brokerd ./cmd/brokerd
	$(GO) build -o bin/alarmd ./cmd/alarmd
	@mkdir -p $(DIST_ARTIFACTS)
	ALARMVERIFY_DIST_BIN=$(CURDIR)/bin ALARMVERIFY_DIST_ARTIFACTS=$(CURDIR)/$(DIST_ARTIFACTS) \
		$(GO) test -v -run 'TestDistributedChaos' -timeout 10m ./internal/chaos

## cover: per-package statement coverage with enforced floors on the
## serving layers, the classifiers and the two path-sensitive analyzers
## (CI `coverage` job). Floors sit ~10 points under measured coverage
## (broker 85%, core 89%, serve 80%, loadgen 90%, metrics 90%, netbroker
## 78%, frame 95%, ml 96%, lockscope 95%, batchlife 94%) so they catch
## real erosion without flaking on noise; docstore's sits one point under
## its 93.0%, most of it the pushdown battery, and the store's chunk
## lanes (lane 97.9%) and the alarm codec (codec 92.1%) sit three and
## four under. Profiles land in coverage/ for the CI artifact upload.
COVER_FLOORS = internal/broker:75 internal/core:79 internal/serve:70 internal/loadgen:80 internal/metrics:80 internal/docstore:92 internal/netbroker:70 internal/frame:85 internal/ml:88 internal/analysis/lockscope:85 internal/analysis/batchlife:84 internal/lane:95 internal/codec:88
cover:
	@mkdir -p coverage; fail=0; \
	for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		prof=coverage/$$(echo $$pkg | tr / -).out; \
		out=$$($(GO) test -cover -coverprofile=$$prof ./$$pkg 2>&1) || \
			{ echo "$$out"; fail=1; continue; }; \
		pct=$$(echo "$$out" | grep -o 'coverage: [0-9.]*%' | head -1 | grep -o '[0-9.]*'); \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p>=f)?1:0}'); \
		if [ "$$ok" != 1 ]; then echo "FAIL: $$pkg coverage $$pct% is below the $$floor% floor"; fail=1; fi; \
	done; exit $$fail

## docs-gate: fail on undocumented exported identifiers in the audited
## packages, on broken relative links in *.md, on documented flags no
## daemon defines, and — the caller audit — on exported names under
## internal/ that no non-test file of the module or bench/ uses, unless
## cmd/docsgate/callers.allow lists them with a reason (CI `build` job)
docs-gate:
	$(GO) run ./cmd/docsgate

## fuzz-smoke: short fuzz passes (CI `test` job) — the codec decoder
## (malformed payloads must error, never panic), the aggregation
## differential (any decodable pipeline must behave identically
## through the pushdown planner and the streaming oracle), the store's
## row-frame replay (a frame read from disk is stored or refused whole,
## never a panic, and what it stores encodes back to the same cells), the
## frame decoder the log and the wire share (internal/frame: torn frames,
## hostile lengths and corrupt payloads must error, never panic or
## over-allocate), and the wire
## message decoders (the same for the binary bodies inside the frames,
## JSON bodies of the format before them included, plus: whatever
## decodes survives a round trip), the model-file loader (a file
## either fails with ErrBadModelFile or loads into a classifier that
## answers — no panic, no endless tree walk), and the forest compiler
## (any forest over any rows answers from sparse rows what Proba
## answers from dense ones, to the bit)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/codec
	$(GO) test -run '^$$' -fuzz '^FuzzAggregate$$' -fuzztime 10s ./internal/docstore
	$(GO) test -run '^$$' -fuzz '^FuzzRowFrame$$' -fuzztime 10s ./internal/docstore
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s ./internal/frame
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 10s ./internal/netbroker
	$(GO) test -run '^$$' -fuzz '^FuzzLoadClassifier$$' -fuzztime 10s ./internal/ml
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledForest$$' -fuzztime 10s ./internal/ml

## lint: vet, the alarmvet invariant suite (cmd/alarmvet run through
## `go vet -vettool`, so findings cache per package like vet's own),
## a gofmt cleanliness check, and a ratchet on the audited escape hatch:
## Go code outside internal/analysis may hold at most IGNORE_BUDGET
## //alarmvet:ignore directives (lower the budget when one goes; CI
## `build` job). The analyzers and their golden self-tests live in
## internal/analysis.
IGNORE_BUDGET = 6
lint:
	$(GO) vet ./...
	$(GO) build -o bin/alarmvet ./cmd/alarmvet
	$(GO) vet -vettool=bin/alarmvet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@ignores=$$(grep -rnE --include='*.go' '^[[:space:]]*//alarmvet:ignore([[:space:]]|$$)|[^"[:space:]][[:space:]]+//alarmvet:ignore([[:space:]]|$$)' . | \
		grep -v '^\./internal/analysis/'); n=$$(printf '%s' "$$ignores" | grep -c .); \
	if [ "$$n" -gt $(IGNORE_BUDGET) ]; then \
		echo "$$n //alarmvet:ignore directives outside internal/analysis, budget $(IGNORE_BUDGET):"; echo "$$ignores"; exit 1; \
	fi

## fmt: rewrite all files with gofmt
fmt:
	gofmt -w .

# Developer entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench ci lint fuzz experiments examples cover loc clean

all: build test

test:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count=2 -run 'TestStressAdmissionsRaceClock|TestConcurrentEquivalence' ./internal/station/

build:
	$(GO) build ./...
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/vodserver/ ./internal/vodclient/ ./internal/station/

# Static analysis beyond vet, pinned so every machine runs the same checks.
# staticcheck is not vendored: when the binary is missing the lane prints
# the pinned install command and passes, so hermetic CI containers keep
# working without network access.
STATICCHECK_VERSION ?= 2024.1.1
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "lint: running staticcheck"; \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed — skipping (install: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# The one-stop gate: gofmt (any file it lists fails the gate), vet — the
# netem-tagged scenarios and the non-Linux TCP_INFO, clock-wait and
# direct-write branches on darwin and windows included, so no build-gated
# file goes unchecked — the race suite, a coverage floor on the
# observability-critical packages (including the wire codec, the QoE client
# and the set-top box that measures its QoE, since they carry the telemetry
# loop) and a separate one on the scheduler the live server admits through
# (core and its slot ring), and the census of the read surface: every metric
# family a fully wired server registers must pass obs.ValidMetricName and
# name its reader, every routed endpoint path and every /statusz key (top
# level and one level into station) must name its reader, and every named
# reader's family, path or key must still be served.
COVER_FLOOR ?= 85

# cover-floor runs the tests of the packages $(2) under one profile and fails
# unless their pooled coverage, printed as $(1), reaches COVER_FLOOR. Each
# group has its own floor, so a well-covered group cannot carry another.
define cover-floor
$(GO) test -coverprofile=ci-cover.out $(2)
@total=$$($(GO) tool cover -func=ci-cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
echo "$(1) coverage: $$total% (floor $(COVER_FLOOR)%)"; \
awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= floor+0) }' || \
	{ echo "$(1) coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }
endef

ci:
	@unformatted=$$(gofmt -l *.go cmd internal examples benchmark); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags netem ./internal/vodserver/
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/conntrack/ ./internal/station/ ./internal/vodserver/
	GOOS=windows GOARCH=amd64 $(GO) vet ./internal/conntrack/ ./internal/station/ ./internal/vodserver/
	$(MAKE) lint
	$(GO) test -race ./...
	# The station clock tests run on a fake time source, so fifty runs are
	# deterministic and take well under a second: any wall-clock dependence
	# left in them shows up here as a flake. TestClockSendsBegunSlot among
	# them pins the tick's timing: an admission in slot i is in the very
	# next tick's report, as slot i+1.
	$(GO) test -count=50 -run '^(TestClock|TestStationStatusAndStages$$|TestCloseIdempotent$$)' ./internal/station/
	# The clock's wall wait, on the real clock and so outside the lane above:
	# an idle clock on a 5 ms grid ticks under 250 µs late at the median (a
	# time.Timer, woken at the idle poller's next whole millisecond, reads
	# about 560 µs); with its one P never idle, the read-deadline backstop
	# keeps it under 2.5 ms (the timerfd alone reads about 5 ms); and its
	# timerfd opens with StartClock and closes with Close. Three runs each,
	# so a lag reading that passed by chance shows.
	$(GO) test -count=3 -run '^(TestWallClockWakesOnGrid|TestWallClockWakesOnGridWhenBusy|TestWallWaitFDLifecycle)$$' ./internal/station/
	# Each slot's payloads are generated into its frame by the tick's
	# encoder, so the payload generator's chunk tables, built once on the
	# first payload of two chunks or more, are first touched on the tick
	# path: four goroutines encoding overlapping videos from a fresh process
	# must all read the one build and match the reference encoder's bytes,
	# and racing first payloads in wire itself likewise.
	$(GO) test -race -cpu 4 -count=20 -run '^TestConcurrentFirstEncodes$$' ./internal/fanout/
	$(GO) test -race -cpu 4 -count=20 -run '^TestConcurrentFirstPayloads$$' ./internal/wire/
	# A video's serving record is built by its first admission under the lock
	# Close latches the catalogue under: racing first admissions against
	# Close must build one record, refuse admissions after Close and leak
	# nothing. Then the start-up cost gate: each idle video costs Start+Close
	# at most 4 allocations and 512 B (it skips under -race, so it runs here).
	$(GO) test -race -cpu 4 -count=20 -run '^TestFirstAdmissionRacesClose$$' ./internal/vodserver/
	# The tick's direct write: it writes the due frames itself only for a
	# handler parked with nothing due; a short write, of one frame or of a
	# flush's vectored write, leaves the rest queued with the first frame's
	# sent prefix and the handler resumes from there, byte-exact; no frame
	# precedes the ScheduleInfo; first frames go before the tick's
	# steady-state frames; every frame reference comes back after Close; a
	# session is written only its assigned slots and its last, and a
	# subscriber whose need set lastSlot has not yet published gets every
	# slot (the set crosses from the handler to the tick workers through
	# that store).
	$(GO) test -race -cpu 4 -count=20 -run '^TestRingWritesOnlyForParkedConsumer$$' ./internal/fanout/
	$(GO) test -race -cpu 4 -count=20 -run '^(TestSessionServedByDirectWrites|TestShortDirectWriteResumes|TestDeadlineCutAfterShortDirectWrite|TestNoFrameBeforeScheduleInfo|TestFirstFramesGoFirst|TestWrittenSlotsAreAssignedPlusLast|TestUnpublishedNeedSetGetsEverySlot)$$' ./internal/vodserver/
	# The flush rule, on manual ticks, so twenty runs are deterministic and
	# any wall-clock dependence left in them shows here as a flake: Hold
	# never wakes the consumer or calls its Writer, and Park returns held
	# and due frames in the order they were handed over; each session's
	# writes are the flush groups recomputed on a twin scheduler; a drain
	# held past a deadline counts in vod_late_writes_total exactly the
	# misses a strict set-top box counts; a session holding frames
	# classifies healthy.
	$(GO) test -race -cpu 4 -count=20 -run '^(TestRingHoldWaitsForFlush|TestRingCloseDeliversHeld)$$' ./internal/fanout/
	$(GO) test -race -cpu 4 -count=20 -run '^(TestWriteBoundariesAreFlushSlots|TestLateWritesCountStrictMisses|TestHeldFramesClassifyHealthy)$$' ./internal/vodserver/
	$(GO) test -run '^TestStartCostPerIdleVideo$$' -count=1 ./internal/vodserver/
	$(call cover-floor,obs+history+station+wire+vodclient+client,./internal/obs/ ./internal/obs/history/ ./internal/station/ ./internal/wire/ ./internal/vodclient/ ./internal/client/)
	$(call cover-floor,core+slots,./internal/core/ ./internal/slots/)
	$(GO) test -run '^(TestRegisteredMetricNamesValid|TestEndpointReaders|TestStatusFieldReaders)$$' -count=1 ./internal/vodserver/
	# The Config census: every vodserver.Config field is set by the command
	# line or is a listed test seam naming what retires it, and every listed
	# seam is a field the command line does not set.
	$(GO) test -run '^TestConfigFieldsHaveSetters$$' -count=1 ./cmd/vodserver/
	# The flight-recorder acceptance E2E: fault injection fires the miss
	# alert, exactly one bundle lands, its history shows the step-up and
	# /queryz serves the same series.
	$(GO) test -race -run '^TestE2EFlightRecorder$$' -count=1 ./internal/vodserver/
	# The transport-telemetry acceptance E2E: a paused and a slow subscriber
	# land in different /connz states, the stall alert walks pending →
	# firing → resolved, exactly one bundle carries conns.json, and the drop
	# path attributes the disconnect reason="stalled".
	$(GO) test -race -run '^TestE2EConntrackStallAttribution$$' -count=1 ./internal/vodserver/
	# The one cut rule: a paused reader's handler ends its own session at the
	# last deadline plus the read bound, and its fd and goroutine come back.
	$(GO) test -race -run '^TestSlowSubscriberDroppedMidBroadcast$$' -count=1 ./internal/vodserver/
	# The served wait: on a 100 ms slot, sequential sessions' server-side
	# first byte has a median under 0.75 slot and a maximum under 1.5 slots,
	# because the clock sends a slot's frame as the slot begins.
	$(GO) test -race -run '^TestFirstByteWithinOneSlot$$' -count=1 ./internal/vodserver/
	# The zero-alloc gate — hold, push and flush ticks — runs without -race
	# (race instrumentation itself allocates, so the test skips under the
	# race suite above), then a
	# one-iteration smoke of the fan-out A/B matrix.
	$(GO) test -run '^TestSteadyStateZeroAlloc$$' -count=1 ./internal/fanout/
	$(GO) test -run '^$$' -bench 'BenchmarkFanOut' -benchtime=1x ./internal/fanout/
	# The multi-core race lane: the parallel fan-out tick, its COW set, the
	# station's span pool, and the churn stress all re-run with four scheduler
	# threads so cross-worker interleavings the single-threaded suite can't
	# produce get race coverage.
	GOMAXPROCS=4 $(GO) test -race -cpu 4 -count=1 ./internal/fanout/ ./internal/station/ ./internal/vodserver/
	# The idle-catalogue gate: a tick locks O(active) videos, never an idle
	# one, and one tick over 16 active videos allocates nothing whether the
	# catalogue holds 64 videos or 4096.
	$(GO) test -run '^TestTickLocksOnlyActiveVideos$$' -count=1 ./internal/station/
	$(GO) test -run '^$$' -bench '^BenchmarkStationTick$$' -benchtime=1x -benchmem ./internal/station/ | \
		awk '{ print } /^BenchmarkStationTick\// { rows++; if ($$(NF-1) != 0) bad++ } END { exit !(rows == 2 && bad == 0) }'
	# The drain-path alloc gate: one vectored write per popped batch, and one
	# direct write per flush for a parked handler — a tick that holds and a
	# tick that flushes included — zero allocations at steady state. Then the admit path's: a resume near the end of a 1000-segment
	# video pools its serving-slot vector, so it allocates no more than a
	# six-segment full viewing.
	$(GO) test -run '^(TestDrainZeroAlloc|TestAdmitAllocatesNoAssignment)$$' -count=1 ./internal/vodserver/
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./internal/...
	# benchmark/ is a module of its own, invisible to ./... above, so the
	# race suite's TestBenchmarkModuleBuilds vets it and its tests run here.
	# Its TestQuickRun is the live smoke: all four workloads against the
	# shipped out-of-process vodserver binary.
	cd benchmark && $(GO) test -count=1 ./...
	$(MAKE) fuzz FUZZTIME=5s
	@rm -f ci-cover.out
	@echo "ci: all gates passed"
	@$(MAKE) --no-print-directory loc

bench:
	$(GO) test -run '^$$' -bench=. -benchmem . ./internal/...

# FuzzSegmentPayload checks the chunked payload generator against the
# byte-at-a-time spec on any video, segment, size and dst prefix.
# FuzzSchedulerInvariants drives the scheduler the live server admits
# through on any vector, policy and client cap. FuzzPeriodVectors checks
# every deadline on any vector the validator accepts, non-monotone ones with
# resumes included. Both scan the window of every uncapped admission: it
# must share a segment whenever an instance of it lies there, and each
# assignment must be the one Figure 6's rule picks from the slots as they
# stood. FuzzCappedNeverPanics drives the capped scheduler on any vector,
# cap, arrivals and resumes: what Validate accepts must never panic. ci runs
# all six targets briefly (FUZZTIME=5s).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/wire/ -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz='^FuzzReadFrameStream$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz='^FuzzSegmentPayload$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz='^FuzzSchedulerInvariants$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz='^FuzzPeriodVectors$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz='^FuzzCappedNeverPanics$$' -fuzztime=$(FUZZTIME)

experiments:
	@for e in fig7 fig8 fig9 ablation peaks vbrplan clientcap reactive dsb models ci wait capacity storage buffer; do \
		echo "== $$e =="; $(GO) run ./cmd/vodsim -experiment $$e -full; echo; \
	done

examples:
	@for e in quickstart comparison vbr multivideo network flashcrowd; do \
		echo "== $$e =="; $(GO) run ./examples/$$e; echo; \
	done

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

# The figures every ROADMAP acceptance quotes: non-test and test Go lines,
# benchmark/ excluded.
loc:
	@echo "non-test Go lines (benchmark/ excluded): $$(git ls-files '*.go' | grep -v -e '^benchmark/' -e '_test\.go$$' | xargs cat | wc -l)"
	@echo "test Go lines (benchmark/ excluded): $$(git ls-files '*_test.go' | grep -v '^benchmark/' | xargs cat | wc -l)"

clean:
	rm -f cover.out ci-cover.out test_output.txt bench_output.txt

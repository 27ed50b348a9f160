# Developer entry points, mirroring the CI gates (.github/workflows/ci.yml).
# `make build test` matches the tier-1 verify command in ROADMAP.md.

GO ?= go

.PHONY: all build test race bench cover fmt vet lint serve-smoke fleet-smoke stream-smoke merge-smoke backend-parity skymap-smoke chaos-smoke downlink-smoke fuzz-smoke check clean

all: build test

## build: compile every package
build:
	$(GO) build ./...

## test: run the full test suite (tier-1 verify: make build test)
test:
	$(GO) test ./...

## race: run the full test suite under the race detector (CI gate)
race:
	$(GO) test -race -timeout 40m ./...

## bench: one iteration of every benchmark (CI smoke); set BENCHTIME for real runs
BENCHTIME ?= 1x
bench:
	ADAPT_SCALE=ci $(GO) test -bench=. -benchtime=$(BENCHTIME) -run '^$$' ./...

## cover: test with coverage summary
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

## fmt: list files needing gofmt (fails if any)
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

## vet: static analysis, also for arm64 so the !amd64 portable kernels
## compile (CI)
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

## lint: vet plus staticcheck and govulncheck (CI lint job). The extra
## tools are not vendored; locally they run only if already on PATH
## (install with `go install honnef.co/go/tools/cmd/staticcheck@latest`
## and `go install golang.org/x/vuln/cmd/govulncheck@latest`).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (CI runs it)"; \
	fi

## serve-smoke: end-to-end adaptserve smoke test (CI serve-smoke job)
serve-smoke:
	./scripts/serve_smoke.sh

## fleet-smoke: 3-replica fleet behind adaptrouter — bitwise routed-vs-direct
## and hit-vs-miss comparisons, zero failed requests while a replica is
## kill -9ed mid-load, ejection visible in /metrics (CI fleet-smoke job)
fleet-smoke:
	./scripts/fleet_smoke.sh

## stream-smoke: record→crash→replay adaptstream smoke test (CI stream-smoke job)
stream-smoke:
	./scripts/stream_smoke.sh

## merge-smoke: split→skew→merge bitwise-alert smoke test (CI merge-smoke job)
merge-smoke:
	./scripts/merge_smoke.sh

## backend-parity: golden-scenario parity across the float32 and int8
## backends — exact trigger identity, bitwise int8 agreement across worker
## counts, bounded localization drift (CI backend-parity job)
backend-parity:
	./scripts/backend_parity.sh

## skymap-smoke: downlink sky-map determinism end to end — journal replay
## reproduces alert map payloads bitwise at any worker count, adaptmap
## round-trips every payload exactly, and /v1/skymap through adaptrouter is
## bitwise-identical and cacheable (CI skymap-smoke job)
skymap-smoke:
	./scripts/skymap_smoke.sh

## chaos-smoke: run the built-in multi-fault "flight" chaos scenario through
## adaptsim -scenario and require the mission scorecard and alert records to
## reproduce bitwise across runs and worker counts (CI chaos-smoke job)
chaos-smoke:
	./scripts/chaos_smoke.sh

## downlink-smoke: journal + alerts through an emulated 10% lossy downlink —
## ground artifacts byte-identical to onboard, nonzero retransmits, and the
## adaptlink transmit/receive/emulate paths agree (CI downlink-smoke job)
downlink-smoke:
	./scripts/downlink_smoke.sh

## fuzz-smoke: short native-fuzz runs of the untrusted-input decoders and
## the int8 requantization and packed-panel, float32, localization-likelihood
## and sky-map mixture arithmetic kernels (CI)
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzReader -fuzztime=$(FUZZTIME) -run '^$$' ./internal/evio
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=$(FUZZTIME) -run '^$$' ./internal/evio
	$(GO) test -fuzz=FuzzRecover -fuzztime=$(FUZZTIME) -run '^$$' ./internal/flightlog
	$(GO) test -fuzz=FuzzMerge -fuzztime=$(FUZZTIME) -run '^$$' ./internal/merge
	$(GO) test -fuzz=FuzzRequantize -fuzztime=$(FUZZTIME) -run '^$$' ./internal/nn/quant
	$(GO) test -fuzz=FuzzPanelDot -fuzztime=$(FUZZTIME) -run '^$$' ./internal/nn/quant
	$(GO) test -fuzz=FuzzLinearForward -fuzztime=$(FUZZTIME) -run '^$$' ./internal/nn
	$(GO) test -fuzz=FuzzLogLikelihoodPair -fuzztime=$(FUZZTIME) -run '^$$' ./internal/localize
	$(GO) test -fuzz=FuzzMixtureQuad -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sky
	$(GO) test -fuzz=FuzzSkymapDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/skymap
	$(GO) test -fuzz=FuzzScenarioParse -fuzztime=$(FUZZTIME) -run '^$$' ./internal/chaos
	$(GO) test -fuzz=FuzzChunkDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/downlink
	$(GO) test -fuzz=FuzzDeltaEvio -fuzztime=$(FUZZTIME) -run '^$$' ./internal/downlink

## check: everything CI checks
check: build fmt vet race

clean:
	rm -f coverage.out

# Developer entry points, mirroring the CI gates (.github/workflows/ci.yml).
# `make build test` matches the tier-1 verify command in ROADMAP.md.

GO ?= go

.PHONY: all build test race bench cover fmt vet lint fuzz-smoke check clean

all: build test

## build: compile every package
build:
	$(GO) build ./...

## test: run the full test suite (tier-1 verify: make build test); the root
## package's TestCrossPathEquivalence and TestCLI are the end-to-end checks
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

## fuzz-smoke: short native-fuzz runs of the untrusted-input decoders, the
## int8 requantization and packed-panel, float32, localization-likelihood
## and sky-map mixture arithmetic kernels, and the byte-level downlink
## codec against its event-based reference (CI)
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
	$(GO) test -fuzz=FuzzCodecMatchesReference -fuzztime=$(FUZZTIME) -run '^$$' ./internal/downlink

## check: everything CI checks
check: build fmt vet race

clean:
	rm -f coverage.out

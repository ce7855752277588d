GO ?= go

.PHONY: all build test race vet loc shipped-deps smoke-patterns bench bench-check bench-smoke chaos-smoke parallel-smoke state-smoke serving-smoke crash-smoke elision-smoke order-smoke soak

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# loc prints the size every PR reports before and after: lines of
# non-test Go outside the nested bench/ module.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs cat | wc -l

# shipped-deps fails if a shipped package links the test harness:
# benchmarks and fixtures live in _test.go files.
shipped-deps:
	@! $(GO) list -deps . ./cmd/... ./internal/... ./examples/... | grep -x -e testing -e net/http/httptest

# smoke-patterns fails when an alternative of a smoke target's -run
# pattern names no test in that command's packages, so a renamed test
# cannot silently drop out of a smoke target.
smoke-patterns:
	@bash smoke-patterns.sh chaos-smoke parallel-smoke state-smoke serving-smoke crash-smoke elision-smoke order-smoke soak

# bench runs every Go benchmark of the module: the microscope. The gate,
# on which performance claims are made, is the nested bench/ module
# (bench/README.md); the η rows are pinned by internal/scenarios'
# testdata/eta.golden.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-check vets and tests the nested bench module: root `go test
# ./...` does not see it, so an internal rename that breaks bench/e2e
# would otherwise surface only in the pipeline.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# bench-smoke runs every benchmark of the module for one iteration.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./...

# chaos-smoke runs the fault-injection determinism/convergence tests, the
# fault families as actors (each variant reports a result section for
# exactly the families it plans; every family at once in one population,
# churn and a crash holding the same peer down), the counts folded from
# the primary client's settlement feed against a walk of its finished
# chain (the feed's watcher runs under the chain's write lock), and a
# short churn+partition sweep under the race detector.
chaos-smoke:
	$(GO) test -race -run 'TestChaosConcurrent|TestChaosTraceDeterministic|TestPartitionHealConverges|TestChurnRejoinCatchUp|TestSectionsFollowPlans|TestFamiliesCompose|TestFoldMatchesTheWalk' ./internal/sim
	$(GO) run -race ./cmd/serethsim -experiment chaos -quick -runs 2 -churn -partition

# parallel-smoke runs the parallel-execution differential suite — the
# SpecView shadow model, the conflict-dense fuzz corpus against the
# sequential oracle (and a parallel chain reopened from its store
# importing a block), and the sim mode matrix, whose parallel cells must
# reproduce the sequential base's whole result on every row — under the
# race detector.
parallel-smoke:
	$(GO) test -race -run 'TestSpecView' ./internal/statedb
	$(GO) test -race -run 'TestParallel|FuzzParallelDifferential' ./internal/chain
	$(GO) test -race -run 'TestModeMatrix' ./internal/scenarios

# state-smoke runs the shared-storage suite five times under the race
# detector: the model-based churn over a tree of copies (-short: 1000 of
# its 4000 steps per run; it must check a state at least 8 copies down
# its lineage), readers on a shared post state while a child copy writes
# and flushes, the exported records of a contract flushed over many
# blocks against its flat twin's (and of a lazily opened state against
# its materialized twin's), what Copy costs, that a copy's first writes
# alias nothing of its source's, either side of a copy writing and
# flushing while the other reads every slot it read before, the
# ownership of account structs over a tree of copies (one overlay each,
# a sealed one never written again), what a post state retains and what
# a pooled journal array carries to the next body (nothing), and a
# creation reverted across a mid-body Root and made again (the dirty
# list), and, without the race detector, that a reserved body's touches
# allocate nothing, that a copy's block costs the same at 1 000 and
# 100 000 accounts, that a lineage of flushed copies of a 20 000-slot
# contract holds at most 1.2 times its storage trie built alone (a
# flushed slot has one home) and that a memory chain on 10 000 accounts
# grows its heap by what its blocks touch; then SpecView and the parallel processor,
# whose MergeInto writes through the same overlay. Below the storage, the
# tries: the model-based churn over a tree of trie copies that write
# their unhashed nodes in place (-short: 1000 of its 4000 steps; both
# sides of a fresh copy write one key twice, the second write overwriting
# a leaf in place, and each must read its own value; no unhashed node
# reachable from two tries), readers on a shared hashed trie and the
# reachable-records walk beside them (it must write nothing: the trie
# commits in full afterwards), a trie and its copy both writing from
# chunks, and who owns the key and value an update passes in, five
# times, and, without the race detector, what a burst of updates
# allocates (one object a chunk where the previous flush wrote the path,
# one a node elsewhere) and that a lineage of flushed copies holds no
# more heap than its trie built alone; the miner's adoption of the execution it built, which is what
# the shared exec cache memoizes for every other importer (a build writes
# nothing, a refused or edited self-import leaves no entry, an edited
# header is accepted or refused exactly as a replay would); eight
# goroutines in CallReadOnly and ViewAMV on
# pooled machines while the node mines and imports, five times, and what
# a released machine keeps; and the node encoder fuzzed against the
# Item-tree oracle for 30 s.
state-smoke:
	$(GO) test -race -count=5 -short -run 'TestStorage|TestCopyDoesNotScaleWithStorage|TestCopySharesNoAccountStruct|TestAccountOwnership|TestPooledScratchCarriesNothing|TestSnapshot|TestChurnRootMatchesFromScratch|TestJournalChurn|TestRevertedCreationAcrossRoot|TestCopyIsolated' ./internal/statedb
	$(GO) test -count=1 -run 'TestReservedTouchesAllocateNothing|TestCopyCostsWhatTheBlockTouches|TestLineageHeapHoldsOneCopyOfStorage|TestMemoryChainHeapFollowsItsBlocks' ./internal/statedb ./internal/scenarios
	$(GO) test -race -count=5 -run 'TestProcessPostHoldsNoJournal' ./internal/chain
	$(GO) test -race -run 'TestSpecView' ./internal/statedb
	$(GO) test -race -run 'TestParallel' ./internal/chain
	$(GO) test -race -count=5 -short -run 'TestTrieChurnModel|TestTrieSharedReaders|TestWalk|TestUpdateOwnership|TestCopiesShareOnlyHashedNodes' ./internal/trie
	$(GO) test -count=1 -run 'TestBurstAllocatesChunksNotNodes|TestLineageHeapHoldsItsTrie|TestLeafAllocations' ./internal/trie
	$(GO) test -race -run 'TestInsertBuilt|TestCacheHoldsOnlyVerifiedExecutions' ./internal/chain
	$(GO) test -race -run 'TestBuildWritesNothingAdoptionMemoizes' ./internal/miner
	$(GO) test -race -run 'TestMineAndBroadcastExecutesOnce' ./internal/node
	$(GO) test -race -count=5 -run 'TestCallReadOnlyRacesImportAndMining' ./internal/node
	$(GO) test -race -run 'TestPooledScratchCarriesNothing' ./internal/evm
	$(GO) test -run '^$$' -fuzz '^FuzzNodeEncoding$$' -fuzztime 30s ./internal/trie

# crash-smoke runs the crash-consistency suite under the race detector:
# storage fault injection and salvage, the store against its map model
# at full length (3 x 6000 steps of writes, compactions, reopens and
# crashes that drop the unsynced tail or tear a batch; -short runs 3 x
# 1000), compactions that keep what a filter accepts, a write the file
# size limit cuts short, Get racing compaction, and the log fuzzed for 30 s (arbitrary bytes after the
# magic must salvage to a clean log of whole batches whose every record
# Get serves, a batch served whole or not at all;
# one exec is several fsyncs, so the minimiser is capped or it eats the
# budget); the chain-level crash-point and bit-flip recovery sweeps
# (-short: 3 seeds per point), every write of a reorg torn at 20 seeds
# (the chain reopens from genesis), one store write per adopted block and
# per reorg, the chain against its list model (inserts, own builds,
# reorgs, sweeps, clean reopens, crashes, torn reorgs and sweeps stopped
# between their synced temp log and the rename, of a FileStore datadir;
# -short: 3 x 80 steps; the 512-block reorg horizon of a memory chain
# and of a store-backed one), forks below the window of post states a
# store-backed chain keeps, reopened from its store, New and Open
# refusing a store with an ExecCache, whole stores from one shared
# genesis instance, the bounded retention of post states, a chain that sweeps its
# store by itself through 10 sweeps (each leaves exactly the states
# within the horizon, the bodies and the head, in a log within twice what
# the last one kept; a fork at the horizon imports after a reopen, one
# a block deeper is refused), a chain reopened every 300 blocks that
# still sweeps by itself (a swept store's head record carries the sweep
# height), sweeps beside imports (what blocks adopted during the mark
# wrote is kept) and failing sweeps (the block that set one off stays
# adopted; the next waits a horizon), serethnode -compact
# on a reorged datadir, a node's block intake against its block-tree
# model (several producers and a forger, gossip permuted, duplicated,
# dropped and late; -short: 4 x 500 steps),
# the snapshot sweeps (an exported
# sereth.kv cut at every length and flipped at every byte is rejected
# with the joiner's store untouched or adopted fully verified; -short:
# every 7th byte), the hardened RPC surface, and the sim crash scenario family against its
# honest twins, ending with a quick end-to-end crash experiment.
crash-smoke:
	$(GO) test -race ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzLogReplay$$' -fuzztime 30s -fuzzminimizetime 1s ./internal/store
	$(GO) test -race -short -run 'TestCrash|TestBitFlip|TestTornReorg|TestOneWrite|TestOpenFallsBack|TestInjectedWriteFailure|TestOpenSnapshot|TestOpenDistrusts|TestChainModel|TestForkBelowWindow|TestStoreRefusesAnExecCache|TestStoresFromOneGenesis|TestPostRetention' ./internal/chain
	$(GO) test -race -run 'TestSweepBoundsTheStore|TestSweepSurvivesRestarts|TestSweepBesideImports|TestFailedSweep' ./internal/chain
	$(GO) test -race -run 'TestCompactSweepsAReorgedDatadir' ./cmd/serethnode
	$(GO) test -race -short -run 'TestNodeModel' ./internal/node
	$(GO) test -race -run 'TestPanic|TestMaxInFlight|TestClientSurfacesShedStatus|TestShutdown|TestHealth' ./internal/rpc
	$(GO) test -race -run 'TestCrash' ./internal/sim ./internal/scenarios
	$(GO) run -race ./cmd/serethsim -experiment crash -quick -runs 2

# elision-smoke runs the SHA3-elision suite under the race detector:
# the keccak invocation-counter contract, the hinted/memoized jump
# table differentials and fuzz seed corpus against the raw CallGeneric
# reference, a body's SHA3 memo keeping two prices that share their
# boundary bytes, the zero-keccak frozen-instance admission and batch-id
# assertions, what an admission costs in digests (admitted, bad
# signature, unknown signer, duplicate) and what a market transaction
# costs a 3-node mesh from signature to last delivery, and the golden
# replay pinned at its absolute digest count with bit-identical receipts
# (sequential and parallel lanes), and what a fault-free Figure-2 cell
# costs in block executions (one per block, by its miner: every other
# peer hits the shared exec cache) and in digests per simulated set and
# buy (a client builds, signs and memoizes a call in one step, deriving
# the signing digest once, equal to signing then memoizing over random
# fields) and per block of ten of them (a miner's build, a peer's replay,
# the receipt root); what the write path allocates around
# its digests — a transaction's two digests nothing while its calldata
# fits the stack scratch, the tx and receipt roots nothing whatever the
# body, all equal to their Item-tree forms — and that a CallReadOnly result
# survives later calls on the pooled machine whose return buffer it came
# from; what the copies cost — a frozen copy one allocation, a caller's
# later edits reaching no instance a pool or a peer keeps — and that
# recycled envelopes keep the delivery traces, allocate nothing on a
# fault-free mesh and survive two goroutines advancing the clock; then,
# without the race detector, which changes allocation counts, that a
# client's signed call is one allocation, a key derived into a caller's
# slot none, a delivery onto a wheel slot a fresh network never used
# none, a second Sereth contract none (it is assembled once), a
# Figure-2 population what TestPopulationAllocsPinned pins, a fresh
# pool's admissions up to its index depth none and, alone, so that no other test binary moves it
# between processors and past its pooled machine, a view read none; then
# it fuzzes the permutation against the loop form for 30 s.
elision-smoke:
	$(GO) test -race -run 'TestInvocations' ./internal/keccak
	$(GO) test -race -run 'TestSha3|TestJumpTableMatchesGeneric|FuzzInterpreter' ./internal/evm
	$(GO) test -race -run 'TestAdmitAdoptsFrozenInstance|TestNthPoolAdmissionZeroKeccak|TestVerifiedFlagDoesNotSurviveTamper|TestAdmissionDigestBudget|TestCallerEditsReachNoKeptInstance' ./internal/txpool
	$(GO) test -race -run 'TestSubmitDigestBudget' ./internal/node
	$(GO) test -race -run 'TestBatchID|TestBroadcastTxsHashCount|TestRecycledEnvelopesKeepTheTrace|TestMeshGossipAllocatesNothing|TestConcurrentAdvanceDeliversEachOnce' ./internal/p2p
	$(GO) test -race -run 'TestReplayKeccakCount|TestReplayAllocsPinned|TestParallelReplayElidesIdentically' ./internal/scenarios
	$(GO) test -race -run 'TestPopulationExecutesEachBlockOnce|TestSubmissionDigestBudget|TestBlockDigestBudget' ./internal/sim
	$(GO) test -race -run 'TestSignCall' ./internal/wallet
	$(GO) test -race -run 'TestSerethContract' ./internal/asm
	$(GO) test -race -run 'TestTxDigestsEncodeOnTheStack|TestDeriveTxRootIsFlat|TestDeriveReceiptRootStreams|TestFrozenCopyIsOneObject' ./internal/types
	$(GO) test -race -run 'TestCallReadOnlyResultOutlivesTheMachine' ./internal/node
	$(GO) test -count=1 -run 'TestSignCallIsOneObject|TestDeriveAllocatesNothing|TestFreshWheelSlotsAllocateNothing|TestSerethContractAssembledOnce|TestPopulationAllocsPinned|TestIndicesHoldTheirDepth' ./internal/wallet ./internal/p2p ./internal/asm ./internal/sim ./internal/txpool
	$(GO) test -count=1 -run 'TestViewAMVAllocs' ./internal/scenarios
	$(GO) test -run '^$$' -fuzz '^FuzzF1600$$' -fuzztime 30s ./internal/keccak

# order-smoke runs the block-assembly and settlement suite ten times
# under the race detector: view, series, buy index and semantic prefix
# three ways under churn — the dag the pool's feed maintains, a dag
# filled from the snapshot, the paper's literal algorithms
# (internal/hms/reference_test.go), with every vertex of the live dag
# checked to list only what belongs under its mark — then the mark
# filter and dedupe by instance and by mark, attachment to a live pool,
# mark cycles and pinning, and, without the race detector, what an
# honest set and four buys cost the dag (one vertex, or none when a
# settled mark left one on the dag's free list); the pulled
# orderings, collected, against the eager slice-in/slice-out
# implementations they replaced (-short: 2 x 1000 of
# the 2 x 6000 churn steps per run), Build's bodies and generator
# positions against the eager ordering and the old trim at random gas
# limits (-short: 300 of 2400), the nonce repair on long queues, the body
# a block keeps, the gas-trim wedge, BuildBlock racing pool churn and the
# strategy scratch a build leaves (no transaction), and, without the race
# detector, that a second ordering of a pool's shape allocates nothing
# beyond the tracker's prefix;
# Pool.Settle against the full sweep on twin pools with trackers attached
# (-short: 1500 of 6000 steps) and the order of its change feed; the
# appended-to snapshot cache and the smallest pending GasLimit against an
# ordered-list model; a node settling blocks while transactions are
# admitted and views read;
# sereth_series served from the live DAG while batches are admitted and
# removed; then AdmitBatch fuzzed for 30 s against sequential Admit on a
# twin pool and a list model (forged signatures, duplicates within a
# batch, replacements, stale nonces after a block, a full pool with and
# without evict-lowest; seeds in internal/txpool/testdata/fuzz/).
order-smoke:
	$(GO) test -race -count=10 -run 'TestIncrementalEquivalence|TestProcess|TestAttach|TestConcurrentViewChurn|TestSemanticPrefix|TestBuyIndex' ./internal/hms
	$(GO) test -count=1 -run 'TestSetAndBuysAllocateOneObject' ./internal/hms
	$(GO) test -race -count=10 -short -run 'TestOrderDifferential|TestBuildMatchesReference|TestRepair|TestRestCountMismatchIsNamed|TestBlockDoesNotPinPoolSizedBody|TestMinerSkipsSenderAfterGasMiss|TestBuildBlockRacesPoolChurn|TestBuildLeavesNoTransactionInScratch' ./internal/miner
	$(GO) test -count=1 -run 'TestSecondOrderingAllocatesNothing' ./internal/miner
	$(GO) test -race -count=10 -short -run 'TestSettle|TestSnapshot|TestReAdmitted|TestClear' ./internal/txpool
	$(GO) test -race -count=10 -run 'TestSettleRacesAdmissionsAndViews' ./internal/node
	$(GO) test -race -count=10 -run 'TestSeries' ./internal/rpc
	$(GO) test -run '^$$' -fuzz '^FuzzAdmitBatch$$' -fuzztime 30s ./internal/txpool

# serving-smoke runs the persistence and serving-tier suite under the
# race detector: the store, trie/state persistence, the
# reachable-records walk (a commit into an empty store writes exactly the
# records it visits, for a trie and for a state) and the export/import
# round-trips built on it (a
# snapshot is a store: memory-built, store-backed and recovered chains
# export the same records, and the export opens as a datadir),
# restart-recovery and snapshot-bootstrap at chain and node level, the RPC dispatch/client surface and serethnode's listener
# limits, the client's connection lifecycle and the server's drain ten
# times over, and the sim mode matrix, whose persist and rpc cells must
# reproduce the base cell's whole result on every row; then it fuzzes
# each RPC codec target against encoding/json and the client's reply-head reader against
# http.ReadResponse for 30 s each (the minimiser capped: a 64 KiB head
# seed would eat the budget), and the wire RLP — a transaction and a
# block, each either refused or decoded to a value that re-encodes to the
# input byte for byte with its digests reproduced, and read field for
# field as the Item-tree oracle reads it — for 30 s each.
serving-smoke:
	$(GO) test -race ./internal/store ./internal/rpc ./cmd/serethnode
	$(GO) test -race -count=10 -run 'TestConnectionLifecycle|TestShutdownWaitsForEveryAdmittedRequest' ./internal/rpc
	$(GO) test -race -run 'TestPersist|TestWalk|TestSnapshot|TestOpen|TestRecovered|TestExport|TestGoldenRootsWithStore' ./internal/trie ./internal/statedb ./internal/chain
	$(GO) test -race -run 'TestNodeRestart|TestSnapshot' ./internal/node
	$(GO) test -race -run 'TestModeMatrix' ./internal/scenarios
	for f in FuzzRequestEnvelope FuzzResponseEncode FuzzResponseDecode FuzzServeHTTP FuzzResponseHead; do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 30s -fuzzminimizetime 1s ./internal/rpc || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTransaction$$' -fuzztime 30s ./internal/types
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime 30s ./internal/types

# soak steps the sim's population of three persisted peers on the default
# mesh through ten reorg horizons (5 120 blocks) and asserts they converge,
# keep their goroutine count, keep the states of their horizon in their
# stores and grow their heap by their history alone; steps the crash
# family's seven peers through five horizons and asserts the killed peer
# recovers, the population converges and keeps its goroutine count (not
# under -race); steps six peers on a multihop ring through three horizons
# and asserts the network's duplicate filter holds a few seconds of
# gossip, not its history; then builds as many blocks over a churning
# pool and asserts the miner's strategy scratch stays sized by the
# largest pool it ordered (~15 s; all are skipped under -short).
soak:
	$(GO) test -count=1 -run 'TestSoakHoldsItsWindow|TestSoakRecoversFromACrash|TestSoakBoundsTheGossipFilter' ./internal/scenarios
	$(GO) test -count=1 -run 'TestScratchStaysBoundedOverBuilds' ./internal/miner

package conformance

// The seed-deterministic program generator. One seed fixes everything:
// geometry, knobs, chaos rules, and every op of every round. Seeds cycle
// through eight knob classes so any contiguous seed sweep exercises every
// engine feature (and gives every mutant of the smoke gate something to
// bite on) within a small budget:
//
//	class 0 — baseline: preloaded reads, random drain/pipeline knobs.
//	class 1 — demand-populate reads.
//	class 2 — rank-aligned territory: writes aligned to each rank's own
//	          segments, so every segment has one writer, its owner.
//	class 3 — chaos: OST and one-sided put fault rules armed.
//	class 4 — multi-core placement: several ranks per node, so
//	          co-located ranks share a NIC and a memory share.
//	class 5 — hole-y reads: read-heavy interleaved rounds with holes,
//	          populated on demand (and read by vanilla MPI-IO through
//	          each round's view when its view-read draw is on).
//	class 6 — delegation tier: dedicated server ranks carved out of the
//	          communicator, several concurrently open files per client,
//	          credit-window admission. Ops span only the client ranks.
//	class 7 — crash consistency: the journaled-epoch tier armed, then
//	          several simulated kill instants replayed from the file
//	          system's write log, each followed by tcio.Recover and a
//	          byte-exact diff against the committed-prefix model.
//
// Cross-rank write disjointness is enforced by construction: bytes are
// dealt to ranks block-cyclically over a random granule, and every write
// op stays inside its rank's territory. Overlaps and rewrites within a
// rank are generated freely — they are well-defined (program order).

import "math/rand"

// Generate builds the program for one seed. The same seed always yields
// the identical program (Go's math/rand generators are stable).
func Generate(seed int64) *Program {
	rng := rand.New(rand.NewSource(seed))
	class := int(((seed % 8) + 8) % 8)

	p := &Program{Seed: seed, Procs: 2 + rng.Intn(4)}
	if class == 0 && rng.Intn(5) == 0 {
		p.Procs = 1 // the degenerate single-rank world stays covered
	}
	segSizes := []int64{16, 24, 32, 48, 64, 96, 128}
	p.SegmentSize = segSizes[rng.Intn(len(segSizes))]
	p.NumSegments = 2 + rng.Intn(5)
	capacity := p.Capacity()
	p.FileBytes = capacity/2 + rng.Int63n(capacity/2+1)
	stripes := []int64{16, 32, 64, 128, 256}
	p.StripeSize = stripes[rng.Intn(len(stripes))]
	p.StripeCount = 1 + rng.Intn(4)
	p.Knobs = genKnobs(rng, class, seed)
	if p.Knobs.ServerRanks >= p.Procs {
		p.Knobs.ServerRanks = p.Procs - 1 // at least one client remains
	}

	territory := genTerritory(rng, class, p)
	nextID := int64(1)
	rounds := 1 + rng.Intn(3)
	if class == 7 {
		rounds = 2 + rng.Intn(3) // several epochs, so kills can split them
	}
	for r := 0; r < rounds; r++ {
		p.WriteRounds = append(p.WriteRounds, genWriteRound(rng, p, territory, &nextID))
	}
	readRounds := 1 + rng.Intn(3)
	if class == 5 {
		readRounds = 2 + rng.Intn(3) // read-heavy
	}
	for r := 0; r < readRounds; r++ {
		if class == 5 {
			p.ReadRounds = append(p.ReadRounds, genHoleReadRound(rng, p, r))
		} else {
			p.ReadRounds = append(p.ReadRounds, genReadRound(rng, p, r == 0))
		}
	}
	return p
}

// genKnobs draws the library configuration for one knob class.
func genKnobs(rng *rand.Rand, class int, seed int64) Knobs {
	rng.Intn(4) // retired DrainWorkers: the draw is discarded so every seed keeps its program
	k := Knobs{DisableLevel1: rng.Intn(5) == 0}
	rng.Intn(3) // retired FetchBatch, discarded likewise
	rng.Intn(3) // retired PipelineDepth, discarded likewise
	k.ViewRead = rng.Intn(2) == 0
	rng.Intn(4) // retired EmulateTwoSided, discarded likewise
	rng.Intn(3) // retired Aggregators, discarded likewise
	switch class {
	case 1: // demand-populate
		k.DemandPopulate = true
		rng.Intn(3) // the retired lookahead-window draws, discarded
		rng.Intn(4)
		rng.Intn(3)
	case 2: // rank-aligned territory, see genTerritory
		// The retired write-behind threshold and WriteBehindQueue draws,
		// discarded likewise.
		rng.Intn(3)
		rng.Intn(3)
	case 3: // chaos
		k.ChaosSeed = seed
		if k.ChaosSeed == 0 {
			k.ChaosSeed = 1
		}
		probs := []float64{0, 0.02, 0.05, 0.08}
		k.OSTWriteProb = probs[rng.Intn(4)]
		k.OSTReadProb = probs[rng.Intn(4)]
		k.WinPutProb = probs[rng.Intn(4)]
		if k.OSTWriteProb == 0 && k.OSTReadProb == 0 && k.WinPutProb == 0 {
			k.OSTWriteProb = 0.05
		}
	case 4: // multi-core placement (block-cyclic territory interleaves
		// co-located ranks within segments)
		k.CoresPerNode = []int{1, 2, 3, 4}[rng.Intn(4)]
		if rng.Intn(3) == 0 {
			k.DemandPopulate = true
		}
	case 5: // hole-y demand-populate reads (see genHoleReadRound)
		k.DemandPopulate = true
		// The retired SieveBuffer and CollectiveRead draws, and the
		// lookahead-window draw behind them, are discarded in the order
		// they were made, so every seed keeps its program.
		rng.Intn(4)
		rng.Intn(8)
		if rng.Intn(3) != 0 && rng.Intn(3) == 0 {
			rng.Intn(2)
		}
	case 6: // delegation tier (multi-file, server ranks carved from Procs)
		k.ServerRanks = 1 + rng.Intn(2)
		if rng.Intn(5) == 0 {
			k.ServerRanks = 0 // tcio directly, over the same multi-file program
		}
		k.Files = 1 + rng.Intn(3)
		rng.Intn(3) // the retired QueueDepth draw, discarded
		if rng.Intn(3) == 0 {
			k.DemandPopulate = true // servers = 0 read-path variety
		}
		rng.Intn(4) // the retired ServerCacheBlocks draw, discarded
		rng.Intn(4) // the retired ReadQuantum draw, discarded
		if rng.Intn(2) == 0 {
			// The retired CollectiveRead draw. The DemandPopulate it armed
			// stays, so every seed keeps the rest of its program.
			k.DemandPopulate = true
		}
	case 7: // crash consistency: journaled epochs, kill-anywhere replay
		k.Journal = true
		k.CrashKills = 2 + rng.Intn(4)
		if rng.Intn(3) != 0 {
			rng.Intn(2) // the retired SegmentMemoryBudget draw, discarded
		}
	}
	return k
}

// genTerritory deals every file byte to exactly one rank. Class 2 aligns
// territories with equation (1)'s segment ownership, so every segment has
// one writer, its owner; the other classes use a
// random block-cyclic deal over a random granule, which produces the
// cross-rank interleaving within segments that stresses the one-sided
// paths. Returns each rank's territory as maximal contiguous runs.
func genTerritory(rng *rand.Rand, class int, p *Program) [][]Op {
	// Bytes are dealt over the client ranks only — in class 6 the trailing
	// ServerRanks ranks serve and own no territory (elsewhere Clients() is
	// just Procs).
	workers := p.Clients()
	ownerOf := make([]int, p.FileBytes)
	if class == 2 {
		for i := range ownerOf {
			ownerOf[i] = int((int64(i) / p.SegmentSize) % int64(workers))
		}
	} else {
		granules := []int64{4, 8, 16, p.SegmentSize}
		g := granules[rng.Intn(len(granules))] * int64(1+rng.Intn(3))
		perm := rng.Perm(workers)
		for i := range ownerOf {
			ownerOf[i] = perm[(int64(i)/g)%int64(workers)]
		}
	}
	runs := make([][]Op, p.Procs)
	for i := int64(0); i < p.FileBytes; {
		j := i
		for j < p.FileBytes && ownerOf[j] == ownerOf[i] {
			j++
		}
		r := ownerOf[i]
		runs[r] = append(runs[r], Op{Rank: r, Off: i, Len: j - i})
		i = j
	}
	return runs
}

// genWriteRound emits each rank's ops for one round: random sub-runs of
// the rank's territory (rewrites arise naturally across and within
// rounds), occasional bursts of small adjacent pieces (the level-1
// coalescing diet), and rare zero-length writes.
func genWriteRound(rng *rand.Rand, p *Program, territory [][]Op, nextID *int64) Round {
	var round Round
	for rank := 0; rank < p.Procs; rank++ {
		runs := territory[rank]
		if len(runs) == 0 {
			continue
		}
		n := rng.Intn(5)
		for i := 0; i < n; i++ {
			run := runs[rng.Intn(len(runs))]
			if rng.Intn(20) == 0 { // zero-length write
				round.Ops = append(round.Ops, Op{Rank: rank, Off: run.Off + rng.Int63n(run.Len), ID: *nextID})
				*nextID++
				continue
			}
			off := run.Off + rng.Int63n(run.Len)
			maxLen := run.End() - off
			length := 1 + rng.Int63n(maxLen)
			if rng.Intn(10) < 3 {
				// Burst: adjacent small pieces covering [off, off+length).
				for at := off; at < off+length; {
					chunk := 3 + rng.Int63n(7)
					if at+chunk > off+length {
						chunk = off + length - at
					}
					round.Ops = append(round.Ops, Op{Rank: rank, Off: at, Len: chunk, ID: *nextID})
					*nextID++
					at += chunk
				}
				continue
			}
			round.Ops = append(round.Ops, Op{Rank: rank, Off: off, Len: length, ID: *nextID})
			*nextID++
		}
	}
	return round
}

// genHoleReadRound emits one class-5 read round: the file is cut into
// granule blocks dealt to ranks round-robin (rotated by the round number,
// so consecutive rounds shift the interleave), and each rank reads only a
// random subset of its blocks — leaving holes between its runs. Some runs
// shrink within their block, producing sub-granule holes that never align
// with segment boundaries.
func genHoleReadRound(rng *rand.Rand, p *Program, phase int) Round {
	var round Round
	gran := []int64{4, 8, 16}[rng.Intn(3)] * int64(1+rng.Intn(2))
	// Bound the op count: large files read at coarser granules.
	for gran*128 < p.FileBytes {
		gran *= 2
	}
	for b, off := 0, int64(0); off < p.FileBytes; b, off = b+1, off+gran {
		rank := (b + phase) % p.Clients()
		if rng.Intn(10) < 4 { // ~40% of blocks are holes
			continue
		}
		n := gran
		if off+n > p.FileBytes {
			n = p.FileBytes - off
		}
		if rng.Intn(4) == 0 {
			n = 1 + rng.Int63n(n)
		}
		round.Ops = append(round.Ops, Op{Rank: rank, Off: off, Len: n})
	}
	return round
}

// genReadRound emits each rank's read ops for one round. The first round
// leans sequential — contiguous spans walked in segment-sized steps, so one
// fetch batch posts several consecutive segments — and later rounds read
// random (possibly overlapping, possibly never-written) ranges.
func genReadRound(rng *rand.Rand, p *Program, sequential bool) Round {
	var round Round
	for rank := 0; rank < p.Clients(); rank++ {
		if sequential && rng.Intn(10) < 7 {
			off := rng.Int63n(p.FileBytes)
			off -= off % p.SegmentSize
			step := p.SegmentSize
			if rng.Intn(3) == 0 {
				step = p.SegmentSize/2 + 3
			}
			chunks := 2 + rng.Intn(7)
			for i := 0; i < chunks && off < p.FileBytes; i++ {
				n := step
				if off+n > p.FileBytes {
					n = p.FileBytes - off
				}
				round.Ops = append(round.Ops, Op{Rank: rank, Off: off, Len: n})
				off += n
			}
			continue
		}
		n := rng.Intn(5)
		for i := 0; i < n; i++ {
			off := rng.Int63n(p.FileBytes)
			if rng.Intn(20) == 0 {
				round.Ops = append(round.Ops, Op{Rank: rank, Off: off})
				continue
			}
			maxLen := p.FileBytes - off
			if cap := 3 * p.SegmentSize; maxLen > cap {
				maxLen = cap
			}
			round.Ops = append(round.Ops, Op{Rank: rank, Off: off, Len: 1 + rng.Int63n(maxLen)})
		}
	}
	return round
}
